"""Field-path readers of parsed JSON documents.

Shared by the config parser and the readers of stored solutions: each
helper checks that a JSON value is an object, holds a key or is a
nonempty list of objects, and raises :class:`ConfigError` naming its
field path, as in ``entries[2]: expected an object``.  They convert no
number: the library's number rule (``functions._coefficients``) does,
with the field path as the parameter's name.
"""

from __future__ import annotations

from typing import Iterator

from .errors import ConfigError


def expect_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}: missing required field")
    return d[key]


def entry_list(data) -> list[tuple[str, dict]]:
    """The objects of the list ``data["entries"]``, each with its field path."""
    entries = require(expect_dict(data, "solution"), "entries", "solution")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("entries: expected a nonempty list of objects")
    return [(f"entries[{i}]", expect_dict(e, f"entries[{i}]"))
            for i, e in enumerate(entries)]


def column(entries: list[tuple[str, dict]], key: str) -> Iterator[tuple[str, object]]:
    """The field path and value, as read, under ``key`` of each entry of
    :func:`entry_list` in turn."""
    return ((f"{path}.{key}", require(e, key, path)) for path, e in entries)
