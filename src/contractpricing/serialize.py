"""Deterministic JSON/CSV emission and scenario hashing.

All emitted artifacts must be byte-identical across runs with the same
inputs, so floats are rendered at a fixed 9 significant digits and the
writers never touch locale, timestamps or environment state.  Scenario
hashes use a higher-precision canonical form with sorted keys so that
solution files can detect configuration drift.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

#: significant digits of every float in emitted JSON/CSV artifacts
FLOAT_DIGITS = 9


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("cannot serialize non-finite float")
    text = format(x, f".{FLOAT_DIGITS}g")
    # normalize negative zero for byte determinism
    return "0" if text == "-0" else text


def _scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit(value, out: list, level: int) -> None:
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            out.append(f"{pad}{json.dumps(str(key))}: ")
            _emit(item, out, level + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(value, (list, tuple)):
        if len(value) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad)
            _emit(item, out, level + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(close_pad + "]")
    else:
        out.append(_scalar(value))


def dumps_canonical(obj) -> str:
    """Render ``obj`` as deterministic, human-diffable JSON text."""
    out: list = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def write_json(path: Union[str, Path], obj) -> Path:
    path = Path(path)
    path.write_text(dumps_canonical(obj), encoding="utf-8")
    return path


def write_csv(path: Union[str, Path], header: Sequence[str],
              rows: Iterable[Sequence]) -> Path:
    """Write rows with the same fixed float formatting as the JSON dumps."""
    path = Path(path)
    lines = [",".join(header)]
    lines.extend(",".join(_scalar(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _canonical_hash_form(value) -> str:
    if isinstance(value, dict):
        inner = ",".join(
            f"{json.dumps(str(k))}:{_canonical_hash_form(v)}"
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0])))
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical_hash_form(v) for v in value) + "]"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return _scalar(value)


def scenario_hash(resolved_config: dict) -> str:
    """SHA-256 of the canonical form of a resolved configuration."""
    text = _canonical_hash_form(resolved_config)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
