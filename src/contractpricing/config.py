"""Scenario configuration files: strict parsing and resolution.

Configs are JSON documents with a ``mode`` of ``menu``, ``profile`` or
``tradeoff``.  This module only parses: it rejects unknown keys, wrong
JSON types and non-finite numbers, reads the referenced CSV files and
names the field path in every error.  The function constructors and
:class:`MenuScenario` / :class:`ProfileScenario` own every value rule
and the scenario defaults (price_lambda 0.5, grid_n 512, s_search_max
1e6, s_probe_max 100); their messages appear behind the field path, as
in ``cost: linear slope must be nonnegative``.  Only the run-time knobs
keep defaults and range checks here (probes 9, quad_n 256, seed 42,
samples_per_band 1000, points 50).  ``quad_n`` is hashed but no command
reads it; dropping it would change the hash of every stored profile
solution.  The resolved dictionary, defaults filled in, has a canonical
hash that solution files embed so that verification can detect
configuration drift.

Function declarations::

    {"family": "linear", "slope": 1.0}
    {"family": "log", "scale": 2.2}
    {"family": "power", "scale": 1.0, "exponent": 2.0}
    {"family": "scaled", "base": {...}, "factor": 0.1}
    {"family": "tabulated", "csv": "samples.csv"}

Tabulated scalar functions reference a two-column CSV (coordinate,
value) with a strictly increasing first column.  Tabulated tariffs
reference a matrix CSV whose first row holds the quality grid (top-left
cell ignored) and whose first column holds the demand grid.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, ScenarioError
from .functions import (
    BilinearTariff,
    DomainBox,
    LinearFunction,
    LogFunction,
    PowerFunction,
    ScalarFunction,
    ScaledFunction,
    SeparableTariff,
    TabulatedFunction,
    TabulatedTariff,
    TariffFunction,
)
from .menu import MenuScenario
from .profile import MarginSpec, ProfileScenario
from .serialize import scenario_hash

#: defaults of the run-time knobs; the scenario dataclasses own the rest
DEFAULTS = {
    "probes": 9,
    "quad_n": 256,
    "seed": 42,
    "samples_per_band": 1000,
    "points": 50,
}

#: closed-form families: constructor and argument names (= config keys)
_CLOSED_FORMS = {
    "linear": (LinearFunction, ("slope",)),
    "log": (LogFunction, ("scale",)),
    "power": (PowerFunction, ("scale", "exponent")),
    "bilinear": (BilinearTariff, ("d_p",)),
}
_SCALAR_FAMILIES = ("linear", "log", "power", "scaled", "tabulated")
_TARIFF_FAMILIES = ("bilinear", "separable", "tabulated")


def _expect_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _reject_unknown(d: dict, allowed: set, path: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s): {', '.join(unknown)}")


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}: missing required field")
    return d[key]


def _number(value, path: str, *, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"{path}: must be finite") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite")
    if positive and value <= 0:
        raise ConfigError(f"{path}: must be positive")
    return value


def _integer(value, path: str, *, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be at least {minimum}")
    return value


def _number_list(value, path: str, *, positive: bool = False) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of numbers")
    return [_number(v, f"{path}[{i}]", positive=positive)
            for i, v in enumerate(value)]


def _given(raw: dict, path_prefix: str, parsers: dict) -> dict:
    """Parse the optional keys present in ``raw``; the dataclass they are
    passed to supplies the defaults of the absent ones."""
    return {key: parse(raw[key], f"{path_prefix}{key}")
            for key, parse in parsers.items() if key in raw}


def _validated(prefix: str, validate, *args, **kwargs):
    """Call a validator or constructor, prefixing its error with the field path."""
    try:
        return validate(*args, **kwargs)
    except ScenarioError as exc:
        raise ScenarioError(f"{prefix}{exc}") from None


def _family(decl: dict, path: str, families: tuple) -> str:
    family = _require(decl, "family", path)
    if not isinstance(family, str) or family not in families:
        raise ConfigError(f"{path}.family: unknown family '{family}'")
    return family


def _closed_form(decl: dict, family: str, path: str):
    ctor, names = _CLOSED_FORMS[family]
    _reject_unknown(decl, {"family", *names}, path)
    args = {name: _number(_require(decl, name, path), f"{path}.{name}")
            for name in names}
    return _validated(f"{path}: ", ctor, **args), {"family": family, **args}


def _csv_source(decl: dict, path: str, base_dir: Path) -> tuple[Path, dict]:
    """Locate a tabulated declaration's CSV file; also return the resolved
    declaration, which embeds the data digest."""
    _reject_unknown(decl, {"family", "csv"}, path)
    name = _require(decl, "csv", path)
    if not isinstance(name, str):
        raise ConfigError(f"{path}.csv: expected a string")
    csv_path = Path(name)
    if not csv_path.is_absolute():
        csv_path = base_dir / csv_path
    if not csv_path.is_file():
        raise ConfigError(f"{path}.csv: file not found: {csv_path}")
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    return csv_path, {"family": "tabulated", "csv": name, "data_sha256": digest}


def parse_scalar_function(decl, path: str, base_dir: Path
                          ) -> tuple[ScalarFunction, dict]:
    """Build a scalar function from its declaration.

    Returns the function together with the resolved declaration used
    for hashing (tabulated declarations embed the data digest).
    """
    decl = _expect_dict(decl, path)
    family = _family(decl, path, _SCALAR_FAMILIES)
    if family in _CLOSED_FORMS:
        return _closed_form(decl, family, path)
    if family == "scaled":
        _reject_unknown(decl, {"family", "base", "factor"}, path)
        base, base_resolved = parse_scalar_function(
            _require(decl, "base", path), f"{path}.base", base_dir)
        factor = _number(_require(decl, "factor", path), f"{path}.factor")
        return (_validated(f"{path}: ", ScaledFunction, base, factor),
                {"family": "scaled", "base": base_resolved, "factor": factor})
    csv_path, resolved = _csv_source(decl, path, base_dir)
    try:
        data = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}.csv: cannot parse {csv_path}: {exc}") from None
    if data.shape[1] != 2:
        raise ConfigError(f"{path}.csv: expected two columns (coordinate, value)")
    return (_validated(f"{path}.csv: ", TabulatedFunction, data[:, 0], data[:, 1]),
            resolved)


def parse_tariff_function(decl, path: str, base_dir: Path
                          ) -> tuple[TariffFunction, dict]:
    decl = _expect_dict(decl, path)
    family = _family(decl, path, _TARIFF_FAMILIES)
    if family in _CLOSED_FORMS:
        return _closed_form(decl, family, path)
    if family == "separable":
        _reject_unknown(decl, {"family", "g", "h"}, path)
        g, g_res = parse_scalar_function(_require(decl, "g", path),
                                         f"{path}.g", base_dir)
        h, h_res = parse_scalar_function(_require(decl, "h", path),
                                         f"{path}.h", base_dir)
        return (SeparableTariff(g, h),
                {"family": "separable", "g": g_res, "h": h_res})
    csv_path, resolved = _csv_source(decl, path, base_dir)
    raw = np.genfromtxt(csv_path, delimiter=",")
    if raw.ndim != 2 or raw.shape[0] < 3 or raw.shape[1] < 3:
        raise ConfigError(
            f"{path}.csv: expected a matrix with demand rows and quality columns")
    return (_validated(f"{path}.csv: ", TabulatedTariff,
                       raw[1:, 0], raw[0, 1:], raw[1:, 1:]),
            resolved)


@dataclass
class TradeoffParams:
    quality_range: float
    demand_range: float
    n_types: int
    d_p: float
    points: int
    empirical: Optional["EmpiricalGrid"] = None


@dataclass
class EmpiricalGrid:
    template: ProfileScenario
    b_grid: tuple[float, ...]
    m_grid: tuple[float, ...]


@dataclass
class ScenarioConfig:
    """A parsed configuration plus its resolved, hashable form."""

    mode: str
    source: Path
    resolved: dict
    menu: Optional[MenuScenario] = None
    profile: Optional[ProfileScenario] = None
    tradeoff: Optional[TradeoffParams] = None
    probes: int = DEFAULTS["probes"]
    quad_n: int = DEFAULTS["quad_n"]
    seed: int = DEFAULTS["seed"]
    samples_per_band: int = DEFAULTS["samples_per_band"]
    out_dir: Optional[str] = None
    out_format: Optional[str] = None

    @property
    def hash(self) -> str:
        return scenario_hash(self.resolved)


def _parse_output(raw: dict, path: str) -> tuple[Optional[str], Optional[str]]:
    if "output" not in raw:
        return None, None
    out = _expect_dict(raw["output"], f"{path}output")
    _reject_unknown(out, {"dir", "format"}, f"{path}output")
    out_dir = out.get("dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"{path}output.dir: expected a string")
    out_format = out.get("format")
    if out_format is not None and out_format not in ("json", "csv", "both"):
        raise ConfigError(f"{path}output.format: expected json, csv or both")
    return out_dir, out_format


def _parse_box(raw, path: str) -> tuple[DomainBox, dict]:
    box = _expect_dict(raw, path)
    _reject_unknown(box, {"theta_low", "theta_up", "s_low", "s_up"}, path)
    values = {key: _number(_require(box, key, path), f"{path}.{key}")
              for key in ("theta_low", "theta_up", "s_low", "s_up")}
    return DomainBox(**values), values


def _parse_margins(raw, path_prefix: str) -> tuple[MarginSpec, dict]:
    path = f"{path_prefix}margins"
    margins = _expect_dict(raw, path)
    _reject_unknown(margins, {"b", "m", "gap"}, path)
    resolved = {key: _number_list(_require(margins, key, path), f"{path}.{key}")
                for key in ("b", "m")}
    if "gap" in margins:
        resolved["gap"] = _number_list(margins["gap"], f"{path}.gap")
    return MarginSpec(**{key: tuple(v) for key, v in resolved.items()}), resolved


def _parse_menu(raw: dict, base_dir: Path) -> tuple[dict, dict]:
    _reject_unknown(raw, {"mode", "budgets", "cost", "profit", "s_search_max",
                          "s_probe_max", "grid_n", "output"}, "config")
    budgets_raw = _require(raw, "budgets", "config")
    if not isinstance(budgets_raw, list) or not budgets_raw:
        raise ConfigError("budgets: expected a nonempty list of function declarations")
    budgets, budgets_res = [], []
    for i, decl in enumerate(budgets_raw):
        func, res = parse_scalar_function(decl, f"budgets[{i}]", base_dir)
        budgets.append(func)
        budgets_res.append(res)
    cost, cost_res = parse_scalar_function(_require(raw, "cost", "config"),
                                           "cost", base_dir)
    profit, profit_res = parse_scalar_function(_require(raw, "profit", "config"),
                                               "profit", base_dir)
    scenario = MenuScenario(tuple(budgets), cost, profit, **_given(
        raw, "", {"s_search_max": _number, "s_probe_max": _number,
                  "grid_n": _integer}))
    scenario.validate()
    return {
        "mode": "menu",
        "budgets": budgets_res,
        "cost": cost_res,
        "profit": profit_res,
        "s_search_max": scenario.s_search_max,
        "s_probe_max": scenario.s_probe_max,
        "grid_n": scenario.grid_n,
    }, {"menu": scenario}


def _parse_profile_core(raw: dict, path_prefix: str, base_dir: Path,
                        require_margins: bool = True
                        ) -> tuple[ProfileScenario, dict]:
    qualities = _number_list(_require(raw, "qualities", path_prefix or "config"),
                             f"{path_prefix}qualities")
    tariff, tariff_res = parse_tariff_function(
        _require(raw, "tariff", path_prefix or "config"),
        f"{path_prefix}tariff", base_dir)
    cost, cost_res = parse_scalar_function(
        _require(raw, "cost", path_prefix or "config"),
        f"{path_prefix}cost", base_dir)
    box, box_res = _parse_box(_require(raw, "box", path_prefix or "config"),
                              f"{path_prefix}box")
    if require_margins or "margins" in raw:
        margins, margins_res = _parse_margins(
            _require(raw, "margins", path_prefix or "config"), path_prefix)
    else:
        # placeholder margins for templates whose margins the tradeoff
        # grid supplies
        margins = MarginSpec(b=tuple(0.1 * s for s in qualities),
                             m=tuple(0.01 * s for s in qualities))
        margins_res = {"b": list(margins.b), "m": list(margins.m)}
    scenario = ProfileScenario(tuple(qualities), tariff, cost, box, margins,
                               **_given(raw, path_prefix,
                                        {"price_lambda": _number,
                                         "grid_n": _integer}))
    # the scenario owns its rules; its errors already name the field
    _validated(path_prefix, scenario.validate)
    resolved = {
        "mode": "profile",
        "qualities": qualities,
        "tariff": tariff_res,
        "cost": cost_res,
        "box": box_res,
        "margins": margins_res,
        "price_lambda": scenario.price_lambda,
        "grid_n": scenario.grid_n,
    }
    return scenario, resolved


def _parse_profile(raw: dict, base_dir: Path) -> tuple[dict, dict]:
    _reject_unknown(raw, {"mode", "qualities", "tariff", "cost", "box",
                          "margins", "price_lambda", "grid_n", "probes",
                          "quad_n", "seed", "samples_per_band", "output"},
                    "config")
    scenario, resolved = _parse_profile_core(raw, "", base_dir)
    knobs = {key: _integer(raw.get(key, DEFAULTS[key]), key, minimum=lowest)
             for key, lowest in (("probes", 3), ("quad_n", 64), ("seed", 0),
                                 ("samples_per_band", 1))}
    resolved.update(knobs)
    return resolved, {"profile": scenario, **knobs}


def _parse_tradeoff(raw: dict, base_dir: Path) -> tuple[dict, dict]:
    _reject_unknown(raw, {"mode", "delta_s", "delta_theta", "types", "d_p",
                          "points", "empirical", "output"}, "config")
    quality_range = _number(_require(raw, "delta_s", "config"), "delta_s",
                            positive=True)
    demand_range = _number(_require(raw, "delta_theta", "config"),
                           "delta_theta", positive=True)
    n_types = _integer(_require(raw, "types", "config"), "types", minimum=1)
    d_p = _number(_require(raw, "d_p", "config"), "d_p", positive=True)
    points = _integer(raw.get("points", DEFAULTS["points"]), "points", minimum=2)
    resolved = {
        "mode": "tradeoff",
        "delta_s": quality_range,
        "delta_theta": demand_range,
        "types": n_types,
        "d_p": d_p,
        "points": points,
    }
    empirical = None
    if "empirical" in raw:
        emp = _expect_dict(raw["empirical"], "empirical")
        _reject_unknown(emp, {"b_grid", "m_grid", "scenario"}, "empirical")
        b_grid = _number_list(_require(emp, "b_grid", "empirical"),
                              "empirical.b_grid", positive=True)
        m_grid = _number_list(_require(emp, "m_grid", "empirical"),
                              "empirical.m_grid", positive=True)
        scn_raw = _expect_dict(_require(emp, "scenario", "empirical"),
                               "empirical.scenario")
        _reject_unknown(scn_raw, {"qualities", "tariff", "cost", "box",
                                  "price_lambda", "grid_n"},
                        "empirical.scenario")
        template, template_res = _parse_profile_core(
            scn_raw, "empirical.scenario.", base_dir, require_margins=False)
        empirical = EmpiricalGrid(template, tuple(b_grid), tuple(m_grid))
        resolved["empirical"] = {"b_grid": b_grid, "m_grid": m_grid,
                                 "scenario": template_res}
    return resolved, {"tradeoff": TradeoffParams(
        quality_range, demand_range, n_types, d_p, points, empirical)}


def load_config(path: Union[str, Path]) -> ScenarioConfig:
    """Parse and resolve a scenario configuration file.

    Raises :class:`ConfigError` with the offending field path on any
    malformed content, and the :class:`ScenarioError` of the scenario or
    function whose rule a value breaks, prefixed with the field path.
    The resolved form carries every default, read back from the built
    scenario.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from None
    raw = _expect_dict(raw, "config")
    mode = _require(raw, "mode", "config")
    if mode not in ("menu", "profile", "tradeoff"):
        raise ConfigError(f"mode: expected menu, profile or tradeoff, got '{mode}'")
    out_dir, out_format = _parse_output(raw, "")
    parse = {"menu": _parse_menu, "profile": _parse_profile,
             "tradeoff": _parse_tradeoff}[mode]
    resolved, parsed = parse({k: v for k, v in raw.items() if k != "output"},
                             path.parent)
    return ScenarioConfig(mode=mode, source=path, resolved=resolved,
                          out_dir=out_dir, out_format=out_format, **parsed)
