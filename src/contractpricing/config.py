"""Scenario configuration files: strict parsing and resolution.

Configs are JSON documents with a ``mode`` of ``menu``, ``profile`` or
``tradeoff``.  Parsing is strict: unknown keys are rejected, every
numeric must be finite, and the error message carries the offending
field path.  Defaults (price_lambda 0.5, grid_n 512, probes 9,
quad_n 256) are filled into a resolved dictionary whose canonical hash
is embedded in solution files so that later verification can detect
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

DEFAULTS = {
    "price_lambda": 0.5,
    "grid_n": 512,
    "probes": 9,
    "quad_n": 256,
    "s_search_max": 1e6,
    "s_probe_max": 100.0,
    "seed": 42,
    "samples_per_band": 1000,
    "points": 50,
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


def _number(value, path: str, *, positive: bool = False,
            nonnegative: bool = False) -> float:
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
    if nonnegative and value < 0:
        raise ConfigError(f"{path}: must be nonnegative")
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


def _validated(prefix: str, validate, *args):
    """Call a validator or constructor, prefixing its error with the field path."""
    try:
        return validate(*args)
    except ScenarioError as exc:
        raise ScenarioError(f"{prefix}{exc}") from None


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _resolve_csv(name: str, path: str, base_dir: Path) -> Path:
    csv_path = Path(name)
    if not csv_path.is_absolute():
        csv_path = base_dir / csv_path
    if not csv_path.is_file():
        raise ConfigError(f"{path}.csv: file not found: {csv_path}")
    return csv_path


def parse_scalar_function(decl, path: str, base_dir: Path
                          ) -> tuple[ScalarFunction, dict]:
    """Build a scalar function from its declaration.

    Returns the function together with the resolved declaration used
    for hashing (tabulated declarations embed the data digest).
    """
    decl = _expect_dict(decl, path)
    family = _require(decl, "family", path)
    if family == "linear":
        _reject_unknown(decl, {"family", "slope"}, path)
        slope = _number(_require(decl, "slope", path), f"{path}.slope",
                        nonnegative=True)
        return LinearFunction(slope), {"family": "linear", "slope": slope}
    if family == "log":
        _reject_unknown(decl, {"family", "scale"}, path)
        scale = _number(_require(decl, "scale", path), f"{path}.scale",
                        nonnegative=True)
        return LogFunction(scale), {"family": "log", "scale": scale}
    if family == "power":
        _reject_unknown(decl, {"family", "scale", "exponent"}, path)
        scale = _number(_require(decl, "scale", path), f"{path}.scale",
                        nonnegative=True)
        exponent = _number(_require(decl, "exponent", path),
                           f"{path}.exponent", positive=True)
        return (PowerFunction(scale, exponent),
                {"family": "power", "scale": scale, "exponent": exponent})
    if family == "scaled":
        _reject_unknown(decl, {"family", "base", "factor"}, path)
        base, base_resolved = parse_scalar_function(
            _require(decl, "base", path), f"{path}.base", base_dir)
        factor = _number(_require(decl, "factor", path), f"{path}.factor",
                         nonnegative=True)
        return (ScaledFunction(base, factor),
                {"family": "scaled", "base": base_resolved, "factor": factor})
    if family == "tabulated":
        _reject_unknown(decl, {"family", "csv"}, path)
        name = _require(decl, "csv", path)
        csv_path = _resolve_csv(name, path, base_dir)
        try:
            data = np.loadtxt(csv_path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}.csv: cannot parse {csv_path}: {exc}") from None
        if data.shape[1] != 2:
            raise ConfigError(f"{path}.csv: expected two columns (coordinate, value)")
        func = _validated(f"{path}.csv: ", TabulatedFunction, data[:, 0], data[:, 1])
        return func, {"family": "tabulated", "csv": str(name),
                      "data_sha256": _file_sha256(csv_path)}
    raise ConfigError(f"{path}.family: unknown family '{family}'")


def parse_tariff_function(decl, path: str, base_dir: Path
                          ) -> tuple[TariffFunction, dict]:
    decl = _expect_dict(decl, path)
    family = _require(decl, "family", path)
    if family == "bilinear":
        _reject_unknown(decl, {"family", "d_p"}, path)
        d_p = _number(_require(decl, "d_p", path), f"{path}.d_p", positive=True)
        return BilinearTariff(d_p), {"family": "bilinear", "d_p": d_p}
    if family == "separable":
        _reject_unknown(decl, {"family", "g", "h"}, path)
        g, g_res = parse_scalar_function(_require(decl, "g", path),
                                         f"{path}.g", base_dir)
        h, h_res = parse_scalar_function(_require(decl, "h", path),
                                         f"{path}.h", base_dir)
        return (SeparableTariff(g, h),
                {"family": "separable", "g": g_res, "h": h_res})
    if family == "tabulated":
        _reject_unknown(decl, {"family", "csv"}, path)
        name = _require(decl, "csv", path)
        csv_path = _resolve_csv(name, path, base_dir)
        raw = np.genfromtxt(csv_path, delimiter=",")
        if raw.ndim != 2 or raw.shape[0] < 3 or raw.shape[1] < 3:
            raise ConfigError(
                f"{path}.csv: expected a matrix with demand rows and quality columns")
        return (_validated(f"{path}.csv: ", TabulatedTariff,
                           raw[1:, 0], raw[0, 1:], raw[1:, 1:]),
                {"family": "tabulated", "csv": str(name),
                 "data_sha256": _file_sha256(csv_path)})
    raise ConfigError(f"{path}.family: unknown family '{family}'")


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
    domain = DomainBox(**values)
    _validated(f"{path}: ", domain.validate)
    return domain, values


def _parse_margins(raw, path_prefix: str) -> tuple[MarginSpec, dict]:
    path = f"{path_prefix}margins"
    margins = _expect_dict(raw, path)
    _reject_unknown(margins, {"b", "m", "gap"}, path)
    resolved = {key: _number_list(_require(margins, key, path), f"{path}.{key}")
                for key in ("b", "m")}
    if "gap" in margins:
        resolved["gap"] = _number_list(margins["gap"], f"{path}.gap")
    return MarginSpec(**{key: tuple(v) for key, v in resolved.items()}), resolved


def _parse_menu(raw: dict, base_dir: Path) -> tuple[MenuScenario, dict]:
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
    s_search_max = _number(raw.get("s_search_max", DEFAULTS["s_search_max"]),
                           "s_search_max", positive=True)
    s_probe_max = _number(raw.get("s_probe_max", DEFAULTS["s_probe_max"]),
                          "s_probe_max", positive=True)
    grid_n = _integer(raw.get("grid_n", DEFAULTS["grid_n"]), "grid_n", minimum=16)
    scenario = MenuScenario(tuple(budgets), cost, profit,
                            s_search_max=s_search_max,
                            s_probe_max=s_probe_max, grid_n=grid_n)
    resolved = {
        "mode": "menu",
        "budgets": budgets_res,
        "cost": cost_res,
        "profit": profit_res,
        "s_search_max": s_search_max,
        "s_probe_max": s_probe_max,
        "grid_n": grid_n,
    }
    return scenario, resolved


def _parse_profile_core(raw: dict, path_prefix: str, base_dir: Path,
                        require_margins: bool = True
                        ) -> tuple[ProfileScenario, dict]:
    qualities = _number_list(_require(raw, "qualities", path_prefix or "config"),
                             f"{path_prefix}qualities", positive=True)
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
    price_lambda = _number(raw.get("price_lambda", DEFAULTS["price_lambda"]),
                           f"{path_prefix}price_lambda")
    grid_n = _integer(raw.get("grid_n", DEFAULTS["grid_n"]),
                      f"{path_prefix}grid_n", minimum=16)
    scenario = ProfileScenario(tuple(qualities), tariff, cost, box, margins,
                               price_lambda=price_lambda, grid_n=grid_n)
    # the scenario owns its rules; its errors already name the field
    _validated(path_prefix, scenario.validate)
    resolved = {
        "mode": "profile",
        "qualities": qualities,
        "tariff": tariff_res,
        "cost": cost_res,
        "box": box_res,
        "margins": margins_res,
        "price_lambda": price_lambda,
        "grid_n": grid_n,
    }
    return scenario, resolved


def _parse_profile(raw: dict, base_dir: Path):
    _reject_unknown(raw, {"mode", "qualities", "tariff", "cost", "box",
                          "margins", "price_lambda", "grid_n", "probes",
                          "quad_n", "seed", "samples_per_band", "output"},
                    "config")
    scenario, resolved = _parse_profile_core(raw, "", base_dir)
    probes = _integer(raw.get("probes", DEFAULTS["probes"]), "probes", minimum=3)
    quad_n = _integer(raw.get("quad_n", DEFAULTS["quad_n"]), "quad_n", minimum=64)
    seed = _integer(raw.get("seed", DEFAULTS["seed"]), "seed", minimum=0)
    samples = _integer(raw.get("samples_per_band", DEFAULTS["samples_per_band"]),
                       "samples_per_band", minimum=1)
    resolved.update({"probes": probes, "quad_n": quad_n, "seed": seed,
                     "samples_per_band": samples})
    return scenario, resolved, probes, quad_n, seed, samples


def _parse_tradeoff(raw: dict, base_dir: Path) -> tuple[TradeoffParams, dict]:
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
    return TradeoffParams(quality_range, demand_range, n_types, d_p, points,
                          empirical), resolved


def load_config(path: Union[str, Path]) -> ScenarioConfig:
    """Parse and resolve a scenario configuration file.

    Raises :class:`ConfigError` with the offending field path on any
    malformed content; fills documented defaults otherwise.
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
    base_dir = path.parent
    out_dir, out_format = _parse_output(raw, "")
    config = ScenarioConfig(mode=mode, source=path, resolved={},
                            out_dir=out_dir, out_format=out_format)
    raw = {k: v for k, v in raw.items() if k != "output"}

    if mode == "menu":
        config.menu, config.resolved = _parse_menu(raw, base_dir)
    elif mode == "profile":
        (config.profile, config.resolved, config.probes, config.quad_n,
         config.seed, config.samples_per_band) = _parse_profile(raw, base_dir)
    else:
        config.tradeoff, config.resolved = _parse_tradeoff(raw, base_dir)
    return config
