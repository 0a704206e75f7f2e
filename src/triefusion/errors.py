"""The package's exception types, and the typed-value check the input
boundaries (scenario, stream and model files, flags) share.

A bad argument raises a plain ``ValueError``. The classes here are the ones a
caller tells apart: input the CLI refuses, a snapshot that cannot be
restored, and an external model that cannot be reached."""

import math


class TrieFusionError(Exception):
    """Base class of the package's own errors; the CLI exits 3 on those that
    are not a ConfigError."""


class ConfigError(TrieFusionError):
    """Invalid input or configuration; the CLI exits 2 on these."""


class CorruptSnapshot(ConfigError):
    """Snapshot payload is truncated, malformed, or self-inconsistent."""


class VersionMismatch(ConfigError):
    """Snapshot was written by an unsupported format version."""


class ProviderUnavailable(TrieFusionError):
    """External logit provider is unreachable or answered garbage."""


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
