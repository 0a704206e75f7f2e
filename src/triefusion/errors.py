"""Exception types shared across the package."""


class TrieFusionError(Exception):
    """Base class for every package-specific error."""


class ConfigError(TrieFusionError):
    """Invalid input or configuration; the CLI exits 2 on these, 3 on the rest."""


class EmptyInput(ConfigError):
    """Text to tokenize was empty after trimming."""


class UnknownToken(ConfigError):
    """Surface form is not registered and growth was disabled."""


class UnknownId(ConfigError):
    """Token id falls outside the registry."""


class EmptySequence(TrieFusionError):
    """Tried to insert an empty token sequence into the trie."""


class TimestampRegression(TrieFusionError):
    """Insertion timestamp is older than an already accepted one."""


class CorruptSnapshot(ConfigError):
    """Snapshot payload is truncated, malformed, or self-inconsistent."""


class VersionMismatch(ConfigError):
    """Snapshot was written by an unsupported format version."""


class EmptyCandidates(TrieFusionError):
    """Scoring or normalization was asked to run on zero candidates."""


class EmptyCorpus(ConfigError):
    """Model training received no sequences."""


class ProviderUnavailable(TrieFusionError):
    """External logit provider is unreachable or answered garbage."""


class NonPositiveTemperature(TrieFusionError):
    """Softmax temperature must be strictly positive."""


class MissingSubstitution(ConfigError):
    """A template placeholder has no value under the active concept."""


class InvalidSchedule(ConfigError):
    """Drift schedule parameters are inconsistent."""


class EmptyWindow(TrieFusionError):
    """Lexical drift telemetry needs two non-empty token windows."""


class EmptyReference(TrieFusionError):
    """Metric evaluation needs a non-empty reference string."""


class EmptyList(TrieFusionError):
    """Aggregation over an empty list of metric bundles."""
