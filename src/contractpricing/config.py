"""Scenario configuration files: strict parsing and resolution.

Configs are JSON documents with a ``mode`` of ``menu``, ``profile`` or
``tradeoff``.  This module only parses: it rejects unknown keys, wrong
JSON types, non-finite numbers and nesting deeper than ``MAX_NESTING``,
reads the referenced CSV files and names the field path in every error.
The code that reads a value checks it by the library's one number rule
(``functions._coefficient``).  Function, box and scenario constructors
run at load, with the field path in front of their messages (``cost:
linear slope must be nonnegative``); the scenarios own their defaults (price_lambda 0.5,
grid_n 512, s_search_max 1e6, s_probe_max 100).  :mod:`.tradeoff`
checks the tradeoff values, and the simulator ``seed`` and
``samples_per_band``, when a command reads them.  Only the run-time
knobs keep defaults here (probes 9, quad_n 256, seed 42,
samples_per_band 1000, points 50).  Nothing reads ``probes`` and
``quad_n``: they are JSON integers with no floor, hashed because
dropping them would change the hash of every profile scenario.  The empirical
template of a tradeoff config takes only qualities, tariff, cost, box
and grid_n.  The resolved dictionary, defaults filled in, has a
canonical hash that solution files embed to detect configuration drift.
:func:`load_solution` checks a solution file's mode and hash; the
solution class's ``from_dict`` parses its body with the same field-path
helpers (:mod:`.fields`), and the verifier checks its counts.

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
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigError, ScenarioError
from .fields import expect_dict, number, number_list, require
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
from .menu import MenuScenario, QualityPriceMenu
from .profile import DemandPriceProfile, MarginSpec, ProfileScenario
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
#: deepest nesting of objects and lists in a config; the parsers and
#: ScaledFunction recurse once per level, the demo configs need 4
MAX_NESTING = 32

_SCALAR_FAMILIES = ("linear", "log", "power", "scaled", "tabulated")
_TARIFF_FAMILIES = ("bilinear", "separable", "tabulated")


def _check_nesting(value, path: str, depth: int = 0) -> None:
    """Reject objects and lists nested deeper than ``MAX_NESTING``, before
    any parser recurses into them."""
    if isinstance(value, dict):
        children = [(f"{path}.{key}" if path else key, item)
                    for key, item in value.items()]
    elif isinstance(value, list):
        children = [(f"{path}[{i}]", item) for i, item in enumerate(value)]
    else:
        return
    if depth > MAX_NESTING:
        raise ConfigError(f"{path}: nested deeper than {MAX_NESTING} levels")
    for child, item in children:
        _check_nesting(item, child, depth + 1)


def _reject_unknown(d: dict, allowed: set, path: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s): {', '.join(unknown)}")


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return value


def _given(raw: dict, path_prefix: str, parsers: dict) -> dict:
    """Parse the optional keys present in ``raw``; the dataclass they are
    passed to supplies the defaults of the absent ones."""
    return {key: parse(raw[key], f"{path_prefix}{key}")
            for key, parse in parsers.items() if key in raw}


def _validated(prefix: str, build, *args, **kwargs):
    """Call a constructor, prefixing its error with the field path."""
    try:
        return build(*args, **kwargs)
    except ScenarioError as exc:
        raise ScenarioError(f"{prefix}{exc}") from None


def _family(decl: dict, path: str, families: tuple) -> str:
    family = require(decl, "family", path)
    if not isinstance(family, str) or family not in families:
        raise ConfigError(f"{path}.family: unknown family '{family}'")
    return family


def _closed_form(decl: dict, family: str, path: str):
    ctor, names = _CLOSED_FORMS[family]
    _reject_unknown(decl, {"family", *names}, path)
    args = {name: number(require(decl, name, path), f"{path}.{name}")
            for name in names}
    return _validated(f"{path}: ", ctor, **args), {"family": family, **args}


def _csv_source(decl: dict, path: str, base_dir: Path,
                load: Callable[[io.StringIO], np.ndarray]) -> tuple[np.ndarray, dict]:
    """Read a tabulated declaration's CSV file once and parse those bytes
    with ``load``; also return the resolved declaration, which embeds the
    digest of the same bytes."""
    _reject_unknown(decl, {"family", "csv"}, path)
    name = require(decl, "csv", path)
    if not isinstance(name, str):
        raise ConfigError(f"{path}.csv: expected a string")
    csv_path = Path(name)
    if not csv_path.is_absolute():
        csv_path = base_dir / csv_path
    if not csv_path.is_file():
        raise ConfigError(f"{path}.csv: file not found: {csv_path}")
    content = csv_path.read_bytes()
    try:
        data = load(io.StringIO(content.decode("utf-8")))
    except ValueError as exc:  # also a byte that is not UTF-8
        raise ConfigError(f"{path}.csv: cannot parse {csv_path}: {exc}") from None
    return data, {"family": "tabulated", "csv": name,
                  "data_sha256": hashlib.sha256(content).hexdigest()}


def parse_scalar_function(decl, path: str, base_dir: Path
                          ) -> tuple[ScalarFunction, dict]:
    """Build a scalar function from its declaration.

    Returns the function together with the resolved declaration used
    for hashing (tabulated declarations embed the data digest).
    """
    decl = expect_dict(decl, path)
    family = _family(decl, path, _SCALAR_FAMILIES)
    if family in _CLOSED_FORMS:
        return _closed_form(decl, family, path)
    if family == "scaled":
        _reject_unknown(decl, {"family", "base", "factor"}, path)
        base, base_resolved = parse_scalar_function(
            require(decl, "base", path), f"{path}.base", base_dir)
        factor = number(require(decl, "factor", path), f"{path}.factor")
        return (_validated(f"{path}: ", ScaledFunction, base, factor),
                {"family": "scaled", "base": base_resolved, "factor": factor})
    data, resolved = _csv_source(
        decl, path, base_dir, lambda f: np.loadtxt(f, delimiter=",", ndmin=2))
    if data.shape[1] != 2:
        raise ConfigError(f"{path}.csv: expected two columns (coordinate, value)")
    return (_validated(f"{path}.csv: ", TabulatedFunction, data[:, 0], data[:, 1]),
            resolved)


def parse_tariff_function(decl, path: str, base_dir: Path
                          ) -> tuple[TariffFunction, dict]:
    decl = expect_dict(decl, path)
    family = _family(decl, path, _TARIFF_FAMILIES)
    if family in _CLOSED_FORMS:
        return _closed_form(decl, family, path)
    if family == "separable":
        _reject_unknown(decl, {"family", "g", "h"}, path)
        g, g_res = parse_scalar_function(require(decl, "g", path),
                                         f"{path}.g", base_dir)
        h, h_res = parse_scalar_function(require(decl, "h", path),
                                         f"{path}.h", base_dir)
        return (SeparableTariff(g, h),
                {"family": "separable", "g": g_res, "h": h_res})
    raw, resolved = _csv_source(
        decl, path, base_dir, lambda f: np.genfromtxt(f, delimiter=","))
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
    resolved: dict
    menu: Optional[MenuScenario] = None
    profile: Optional[ProfileScenario] = None
    tradeoff: Optional[TradeoffParams] = None
    seed: int = DEFAULTS["seed"]
    samples_per_band: int = DEFAULTS["samples_per_band"]

    @property
    def hash(self) -> str:
        return scenario_hash(self.resolved)


def _parse_box(raw, path: str) -> tuple[DomainBox, dict]:
    box = expect_dict(raw, path)
    _reject_unknown(box, {"theta_low", "theta_up", "s_low", "s_up"}, path)
    values = {key: number(require(box, key, path), f"{path}.{key}")
              for key in ("theta_low", "theta_up", "s_low", "s_up")}
    return _validated(f"{path}: ", DomainBox, **values), values


def _parse_margins(raw, path_prefix: str) -> tuple[MarginSpec, dict]:
    path = f"{path_prefix}margins"
    margins = expect_dict(raw, path)
    _reject_unknown(margins, {"b", "m"}, path)
    resolved = {key: number_list(require(margins, key, path), f"{path}.{key}")
                for key in ("b", "m")}
    return MarginSpec(**resolved), resolved


def _parse_menu(raw: dict, base_dir: Path) -> tuple[dict, dict]:
    _reject_unknown(raw, {"mode", "budgets", "cost", "profit", "s_search_max",
                          "s_probe_max", "grid_n"}, "config")
    budgets_raw = require(raw, "budgets", "config")
    if not isinstance(budgets_raw, list) or not budgets_raw:
        raise ConfigError("budgets: expected a nonempty list of function declarations")
    budgets, budgets_res = [], []
    for i, decl in enumerate(budgets_raw):
        func, res = parse_scalar_function(decl, f"budgets[{i}]", base_dir)
        budgets.append(func)
        budgets_res.append(res)
    cost, cost_res = parse_scalar_function(require(raw, "cost", "config"),
                                           "cost", base_dir)
    profit, profit_res = parse_scalar_function(require(raw, "profit", "config"),
                                               "profit", base_dir)
    scenario = MenuScenario(tuple(budgets), cost, profit, **_given(
        raw, "", {"s_search_max": number, "s_probe_max": number,
                  "grid_n": _integer}))
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
    qualities = number_list(require(raw, "qualities", path_prefix or "config"),
                             f"{path_prefix}qualities")
    tariff, tariff_res = parse_tariff_function(
        require(raw, "tariff", path_prefix or "config"),
        f"{path_prefix}tariff", base_dir)
    cost, cost_res = parse_scalar_function(
        require(raw, "cost", path_prefix or "config"),
        f"{path_prefix}cost", base_dir)
    box, box_res = _parse_box(require(raw, "box", path_prefix or "config"),
                              f"{path_prefix}box")
    if require_margins:
        margins, margins_res = _parse_margins(
            require(raw, "margins", path_prefix or "config"), path_prefix)
    else:
        # placeholder margins for templates whose margins the tradeoff
        # grid supplies
        margins = MarginSpec(b=tuple(0.1 * s for s in qualities),
                             m=tuple(0.01 * s for s in qualities))
        margins_res = {"b": list(margins.b), "m": list(margins.m)}
    # the scenario owns its rules; its errors already name the field
    scenario = _validated(path_prefix, ProfileScenario, tuple(qualities),
                          tariff, cost, box, margins,
                          **_given(raw, path_prefix, {"price_lambda": number,
                                                      "grid_n": _integer}))
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
                          "quad_n", "seed", "samples_per_band"},
                    "config")
    scenario, resolved = _parse_profile_core(raw, "", base_dir)
    knobs = {key: _integer(raw.get(key, DEFAULTS[key]), key)
             for key in ("probes", "quad_n", "seed", "samples_per_band")}
    resolved.update(knobs)
    del knobs["probes"], knobs["quad_n"]  # hashed, read by nothing
    return resolved, {"profile": scenario, **knobs}


def _parse_tradeoff(raw: dict, base_dir: Path) -> tuple[dict, dict]:
    _reject_unknown(raw, {"mode", "delta_s", "delta_theta", "types", "d_p",
                          "points", "empirical"}, "config")
    quality_range = number(require(raw, "delta_s", "config"), "delta_s")
    demand_range = number(require(raw, "delta_theta", "config"), "delta_theta")
    n_types = _integer(require(raw, "types", "config"), "types")
    d_p = number(require(raw, "d_p", "config"), "d_p")
    points = _integer(raw.get("points", DEFAULTS["points"]), "points")
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
        emp = expect_dict(raw["empirical"], "empirical")
        _reject_unknown(emp, {"b_grid", "m_grid", "scenario"}, "empirical")
        b_grid = number_list(require(emp, "b_grid", "empirical"),
                             "empirical.b_grid")
        m_grid = number_list(require(emp, "m_grid", "empirical"),
                             "empirical.m_grid")
        scn_raw = expect_dict(require(emp, "scenario", "empirical"),
                               "empirical.scenario")
        _reject_unknown(scn_raw, {"qualities", "tariff", "cost", "box",
                                  "grid_n"}, "empirical.scenario")
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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from None
    raw = expect_dict(raw, "config")
    _check_nesting(raw, "")
    mode = require(raw, "mode", "config")
    if mode not in ("menu", "profile", "tradeoff"):
        raise ConfigError(f"mode: expected menu, profile or tradeoff, got '{mode}'")
    parse = {"menu": _parse_menu, "profile": _parse_profile,
             "tradeoff": _parse_tradeoff}[mode]
    resolved, parsed = parse(raw, path.parent)
    return ScenarioConfig(mode=mode, resolved=resolved, **parsed)


def load_solution(path: Union[str, Path], config: ScenarioConfig
                  ) -> Union[QualityPriceMenu, DemandPriceProfile]:
    """Read a stored menu or profile solution of ``config``.

    The solution's mode and scenario hash must match the config's; the
    body is parsed by the solution class's ``from_dict``, and the
    verifier or simulator that reads it checks its entry counts.  Raises
    :class:`ConfigError` naming the field on any mismatch.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"solution file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"malformed solution JSON in {path}: {exc}") from None
    if not isinstance(data, dict) or "mode" not in data:
        raise ConfigError("solution file lacks a mode field")
    if data["mode"] != config.mode:
        raise ConfigError(
            f"solution mode '{data['mode']}' does not match config mode "
            f"'{config.mode}'")
    if data.get("scenario_sha256") != config.hash:
        raise ConfigError(
            "scenario hash mismatch: the solution was produced from a "
            "different configuration")
    solution_class = (QualityPriceMenu if config.mode == "menu"
                      else DemandPriceProfile)
    return solution_class.from_dict(data)
