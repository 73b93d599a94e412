"""Config-driven command line front end.

Subcommands::

    menu <config>                     solve + verify + emit a quality-price menu
    profile <config>                  check achievability, build, verify, emit
    verify <config> <solution.json>   re-certify an existing solution
    simulate <config> <solution.json> seeded Monte Carlo market simulation
    tradeoff <config>                 profit-satisfaction boundary (and grid)
    check <config>                    regularity/achievability reports only

Exit codes: 0 success/certified, 2 config or parse error, 3 constraint
violation or not achievable, 4 numerical failure (bracket or window
errors).  On an error exit, stderr holds exactly one JSON object naming
the error class, its exit code and its message; commands run with
Python warnings (numpy overflow and the like) suppressed so that
nothing else reaches stderr.

Artifacts are written to ``--out`` (default: the ``CONTRACTPRICING_OUT``
environment variable, else the working directory) in the formats chosen
by ``--format`` (default: both JSON and CSV).  Solution JSON embeds the
scenario hash so that ``verify`` and ``simulate`` can detect
configuration drift.  Because solution files
round floats to 9 significant digits, re-certification of a stored
solution uses a matching slack of 1e-6 instead of the solver-side 1e-9.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from pathlib import Path
from typing import Optional

from .config import ScenarioConfig, load_config, load_solution
from .errors import ConfigError, ContractPricingError, ScenarioError
from .functions import check_menu_regularity
from .menu import solve_menu
from .profile import build_profile, check_achievability
from .serialize import dumps_canonical, format_float, write_csv, write_json
from .tradeoff import empirical_region, homogeneous_region
from .verify import simulate_market, verify_menu, verify_profile

#: environment variable naming the default output directory
OUT_ENV_VAR = "CONTRACTPRICING_OUT"

#: verification slack matching the 9-significant-digit solution format
SERIALIZED_SLACK = 1e-6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contractpricing",
        description="Quality-price menus and demand-price profiles for "
                    "target profits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="output directory for emitted artifacts")
        p.add_argument("--format", choices=("json", "csv", "both"),
                       default="both", help="artifact formats to write")
        p.add_argument("--quiet", action="store_true",
                       help="suppress human-readable tables on stdout")

    p = sub.add_parser("menu", help="solve and certify a quality-price menu")
    p.add_argument("config")
    add_common(p)

    p = sub.add_parser("profile", help="build and certify a demand-price profile")
    p.add_argument("config")
    add_common(p)

    p = sub.add_parser("verify", help="re-certify a stored solution")
    p.add_argument("config")
    p.add_argument("solution")
    add_common(p)

    p = sub.add_parser("simulate", help="seeded market simulation of a solution")
    p.add_argument("config")
    p.add_argument("solution")
    p.add_argument("--samples", type=int, help="samples per satisfaction band")
    p.add_argument("--seed", type=int, help="simulation seed")
    add_common(p)

    p = sub.add_parser("tradeoff", help="profit-satisfaction tradeoff curve")
    p.add_argument("config")
    p.add_argument("--points", type=int, help="boundary points to emit")
    add_common(p)

    p = sub.add_parser("check", help="run condition reports without solving")
    p.add_argument("config")
    add_common(p)
    return parser


def _out_dir(args) -> Path:
    path = Path(args.out or os.environ.get(OUT_ENV_VAR) or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _formats(args) -> set[str]:
    return {"json", "csv"} if args.format == "both" else {args.format}


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _require_mode(config: ScenarioConfig, expected: str, command: str) -> None:
    if config.mode != expected:
        raise ConfigError(
            f"'{command}' needs a {expected} config, got mode '{config.mode}'")


def _print_table(args, header: list[str], rows: list[list]) -> None:
    if args.quiet:
        return
    cells = [[h for h in header]]
    for row in rows:
        cells.append([format_float(v) if isinstance(v, float) and math.isfinite(v)
                      else str(v) for v in row])
    widths = [max(len(r[c]) for r in cells) for c in range(len(header))]
    for r, row in enumerate(cells):
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if r == 0:
            print("  ".join("-" * w for w in widths))


def _cmd_menu(args) -> int:
    config = load_config(args.config)
    _require_mode(config, "menu", "menu")
    menu = solve_menu(config.menu)
    out = _out_dir(args)
    formats = _formats(args)
    solution = {"mode": "menu", "scenario_sha256": config.hash,
                **menu.to_dict()}
    if "json" in formats:
        write_json(out / "menu.json", solution)
    rows = [(k + 1, s, p, float(config.menu.budgets[k].value(s)), net)
            for k, (s, p, net) in enumerate(
                zip(menu.qualities, menu.prices, menu.net_values))]
    if "csv" in formats:
        write_csv(out / "menu.csv",
                  ["type", "quality", "price", "budget_at_quality", "net_saving"],
                  rows)
    _print_table(args, ["type", "quality", "price", "net_saving"],
                 [[k, s, p, net] for k, s, p, _, net in rows])
    _say(args, f"menu certified; artifacts in {out}")
    return 0


def _cmd_profile(args) -> int:
    config = load_config(args.config)
    _require_mode(config, "profile", "profile")
    profile = build_profile(config.profile)
    out = _out_dir(args)
    formats = _formats(args)
    solution = {"mode": "profile", "scenario_sha256": config.hash,
                **profile.to_dict()}
    if "json" in formats:
        write_json(out / "profile.json", solution)
    header = ["k", "theta", "price", "window_lo", "window_hi", "delta"]
    rows = [(k + 1, th, p, w[0], w[1], d)
            for k, (th, p, w, d) in enumerate(
                zip(profile.demands, profile.prices, profile.windows,
                    profile.step_sizes))]
    if "csv" in formats:
        write_csv(out / "profile.csv", header, rows)
    _print_table(args, header, rows)
    _say(args, f"profile certified; artifacts in {out}")
    return 0


def _cmd_verify(args) -> int:
    config = load_config(args.config)
    if config.mode not in ("menu", "profile"):
        raise ConfigError("'verify' needs a menu or profile config")
    solution = load_solution(args.solution, config)
    if config.mode == "menu":
        report = verify_menu(solution, config.menu, slack=SERIALIZED_SLACK)
    else:
        report = verify_profile(solution, config.profile,
                                probes_per_band=config.probes,
                                slack=SERIALIZED_SLACK)
    out = _out_dir(args)
    write_json(out / "verification.json", report.to_dict())
    if report.passed:
        _say(args, f"solution certified; worst margin "
                   f"{format_float(report.worst_margin)}")
        return 0
    _print_table(args, ["constraint", "k", "l", "margin"],
                 [[v.constraint, v.k, "" if v.l is None else v.l, v.margin]
                  for v in report.violations])
    _say(args, f"{len(report.violations)} constraint violation(s) found")
    return 3


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    _require_mode(config, "profile", "simulate")
    profile = load_solution(args.solution, config)
    samples = args.samples if args.samples is not None else config.samples_per_band
    seed = args.seed if args.seed is not None else config.seed
    report = simulate_market(profile, config.profile, samples, seed)
    out = _out_dir(args)
    write_json(out / "simulation.json", report.to_dict())
    _print_table(args,
                 ["k", "fraction_intended", "min_saving", "provider_profit",
                  "meets_target"],
                 [[s.k, s.fraction_intended, s.min_saving, s.provider_profit,
                   s.meets_profit_target] for s in report.bands])
    if report.out_of_band is not None and not args.quiet:
        oob = report.out_of_band
        print(f"out-of-band: {oob.samples} samples, "
              f"{format_float(oob.fraction_affordable)} affordable")
    return 0


def _cmd_tradeoff(args) -> int:
    config = load_config(args.config)
    _require_mode(config, "tradeoff", "tradeoff")
    params = config.tradeoff
    points = args.points if args.points is not None else params.points
    curve = homogeneous_region(params.quality_range, params.demand_range,
                               params.n_types, params.d_p, points)
    rows = curve.csv_rows()
    summary = curve.to_dict()
    if params.empirical is not None:
        grid = params.empirical
        norm = 4.0 * grid.template.box.quality_range * len(grid.template.qualities) ** 2
        if not math.isfinite(norm * max(grid.m_grid)):
            raise ScenarioError("empirical: normalized margin "
                                "4 * quality_range * L^2 * m is not finite")
        matrix = empirical_region(grid.template, grid.b_grid, grid.m_grid)
        for i, b in enumerate(grid.b_grid):
            for j, m in enumerate(grid.m_grid):
                rows.append((m, b, norm * m, bool(matrix[i, j])))
        summary["empirical"] = {
            "b_grid": list(grid.b_grid),
            "m_grid": list(grid.m_grid),
            "achievable": matrix.tolist(),
        }
    out = _out_dir(args)
    formats = _formats(args)
    if "json" in formats:
        write_json(out / "tradeoff.json", summary)
    if "csv" in formats:
        write_csv(out / "tradeoff.csv", ["m", "b", "normalized_m", "achievable"],
                  rows)
    _say(args, f"m0 = {format_float(curve.m0)}, b0 = {format_float(curve.b0)}; "
               f"artifacts in {out}")
    return 0


def _cmd_check(args) -> int:
    config = load_config(args.config)
    if config.mode == "menu":
        report = check_menu_regularity(config.menu)
    elif config.mode == "profile":
        report = check_achievability(config.profile)
    else:
        raise ConfigError("'check' needs a menu or profile config")
    out = _out_dir(args)
    write_json(out / "check.json", {"mode": config.mode, **report.to_dict()})
    _print_table(args, ["condition", "passed", "margin"],
                 [[c.cid, c.passed, c.margin] for c in report.checks])
    if report.passed:
        _say(args, "all conditions hold")
        return 0
    failed = ", ".join(c.cid for c in report.failures)
    _say(args, f"failing condition(s): {failed}")
    return 3


_HANDLERS = {
    "menu": _cmd_menu,
    "profile": _cmd_profile,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "tradeoff": _cmd_tradeoff,
    "check": _cmd_check,
}


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return _HANDLERS[args.command](args)
    except ContractPricingError as exc:
        error = {"error": {"type": type(exc).__name__,
                           "exit_code": exc.exit_code,
                           "message": str(exc)}}
        sys.stderr.write(dumps_canonical(error))
        return exc.exit_code


def main(argv: Optional[list[str]] = None) -> None:
    sys.exit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
