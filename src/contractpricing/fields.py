"""Field-path readers of parsed JSON documents.

Shared by the config parser and the readers of stored solutions: each
helper checks one JSON value's type and finiteness, not its range, and
raises :class:`ConfigError` naming its field path, as in
``entries[2].p: must be finite``.
"""

from __future__ import annotations

import math

from .errors import ConfigError


def expect_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}: missing required field")
    return d[key]


def number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"{path}: must be finite") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite")
    return value


def number_list(value, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of numbers")
    return [number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def entry_list(data, key: str = "entries") -> list[tuple[str, dict]]:
    """The objects of the list ``data[key]``, each with its field path."""
    entries = require(expect_dict(data, "solution"), key, "solution")
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{key}: expected a nonempty list of objects")
    return [(f"{key}[{i}]", expect_dict(e, f"{key}[{i}]"))
            for i, e in enumerate(entries)]


def number_column(entries: list[tuple[str, dict]], key: str) -> tuple[float, ...]:
    """The finite number under ``key`` of every entry of :func:`entry_list`."""
    return tuple(number(require(e, key, path), f"{path}.{key}")
                 for path, e in entries)
