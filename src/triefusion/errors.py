"""Exception types shared across the package, and the typed-value check the
input boundaries (scenario, stream and model files, flags) share."""

import math


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


_WANTED = {int: "an integer", float: "a finite number", dict: "an object", list: "a list",
           str: "a string", bool: "true or false"}


MISSING = object()  # ``mapping.get(key, MISSING)``: the key is absent


def typed(kind, value, key, where: str = "scenario key"):
    """``value`` as JSON ``kind`` (an ``int`` whole, a ``float`` finite, neither a bool),
    else a ValueError naming ``where`` and ``key``. Null is never accepted."""
    if value is MISSING:  # named by the container before the key's last dot
        container, _, leaf = str(key).rpartition(".")
        where = f"{where} {container!r}" if container else where
        raise ValueError(f"{where} is missing {leaf!r}")
    if kind in (int, float):
        try:
            if not isinstance(value, bool) and isinstance(value, (int, float)):
                number = kind(value)
                if math.isfinite(number) and (kind is float or number == value):
                    return number
        except (ValueError, OverflowError):
            pass
    elif isinstance(value, kind):
        return value
    raise ValueError(f"{where} {key!r} needs {_WANTED[kind]}, got {value!r}")


def typed_items(kind, value, key: str, where: str = "scenario key") -> tuple:
    """``typed`` over each entry of a list; anything but a list names its key."""
    return tuple(typed(kind, item, f"{key}[{i}]", where)
                 for i, item in enumerate(typed(list, value, key, where)))
