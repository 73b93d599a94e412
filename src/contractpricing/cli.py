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
the error class, its exit code and its message; a usage error is a
``ConfigError``, and commands run with Python warnings (numpy overflow
and the like) suppressed so that nothing else reaches stderr.

Every command runs through :func:`run`, which does the shared steps in
one order: load the config; check its mode against the command table;
create the output directory; run the command's handler, which only
computes; write each artifact whose extension ``--format`` selects;
unless ``--quiet``, print the handler's table, then its status lines;
return the handler's exit code.  So an unusable output directory fails
before any solver, verifier or simulator runs, and a command that fails
after the directory is created may leave it empty.

Artifacts are written to ``--out`` (default: the ``CONTRACTPRICING_OUT``
environment variable, else the working directory).  ``menu``,
``profile`` and ``tradeoff`` write the formats chosen by ``--format``
(default: both JSON and CSV); the other commands write JSON only and
take no ``--format``.  Solution JSON embeds the
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
from typing import NamedTuple, Optional

from .config import load_config, load_solution
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


class _Parser(argparse.ArgumentParser):
    """A usage error raises :class:`ConfigError`, so that it ends in the
    JSON error object like every other error (the subparsers inherit
    this class)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="contractpricing",
        description="Quality-price menus and demand-price profiles for "
                    "target profits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *positionals, formats=False):
        p = sub.add_parser(name, help=help)
        for positional in positionals:
            p.add_argument(positional)
        p.add_argument("--out", help="output directory for emitted artifacts")
        if formats:
            p.add_argument("--format", choices=("json", "csv", "both"),
                           default="both", help="artifact formats to write")
        p.add_argument("--quiet", action="store_true",
                       help="suppress human-readable tables on stdout")
        return p

    command("menu", "solve and certify a quality-price menu", "config",
            formats=True)
    command("profile", "build and certify a demand-price profile", "config",
            formats=True)
    command("verify", "re-certify a stored solution", "config", "solution")
    p = command("simulate", "seeded market simulation of a solution",
                "config", "solution")
    p.add_argument("--samples", type=int, help="samples per satisfaction band")
    p.add_argument("--seed", type=int, help="simulation seed")
    p = command("tradeoff", "profit-satisfaction tradeoff curve", "config",
                formats=True)
    p.add_argument("--points", type=int, help="boundary points to emit")
    command("check", "run condition reports without solving", "config")
    return parser


def _out_dir(args) -> Path:
    path = Path(args.out or os.environ.get(OUT_ENV_VAR) or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. the path names an existing file
        raise ConfigError(f"cannot use {path} as the output directory: "
                          f"{exc.strerror or exc}") from None
    return path


def _print_table(header: list[str], rows: list[list]) -> None:
    cells = [[h for h in header]]
    for row in rows:
        cells.append([format_float(v) if isinstance(v, float) and math.isfinite(v)
                      else str(v) for v in row])
    widths = [max(len(r[c]) for r in cells) for c in range(len(header))]
    for r, row in enumerate(cells):
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if r == 0:
            print("  ".join("-" * w for w in widths))


class _Result(NamedTuple):
    """What a command computed.  ``artifacts`` maps a file name to its
    JSON payload, or to ``(header, rows)`` for a ``.csv`` name; ``table``
    is an optional ``(header, rows)`` printed ahead of the status lines."""

    artifacts: dict
    table: Optional[tuple]
    status: list[str]
    code: int = 0


def _cmd_menu(args, config, out) -> _Result:
    menu = solve_menu(config.menu)
    rows = [(k + 1, s, p, float(config.menu.budgets[k].value(s)), net)
            for k, (s, p, net) in enumerate(
                zip(menu.qualities, menu.prices, menu.net_values))]
    return _Result(
        {"menu.json": {"mode": "menu", "scenario_sha256": config.hash,
                       **menu.to_dict()},
         "menu.csv": (["type", "quality", "price", "budget_at_quality",
                       "net_saving"], rows)},
        (["type", "quality", "price", "net_saving"],
         [[k, s, p, net] for k, s, p, _, net in rows]),
        [f"menu certified; artifacts in {out}"])


def _cmd_profile(args, config, out) -> _Result:
    profile = build_profile(config.profile)
    header = ["k", "theta", "price", "window_lo", "window_hi", "delta"]
    rows = [(k + 1, th, p, w[0], w[1], d)
            for k, (th, p, w, d) in enumerate(
                zip(profile.demands, profile.prices, profile.windows,
                    profile.step_sizes))]
    return _Result(
        {"profile.json": {"mode": "profile", "scenario_sha256": config.hash,
                          **profile.to_dict()},
         "profile.csv": (header, rows)},
        (header, rows), [f"profile certified; artifacts in {out}"])


def _cmd_verify(args, config, out) -> _Result:
    solution = load_solution(args.solution, config)
    if config.mode == "menu":
        report = verify_menu(solution, config.menu, slack=SERIALIZED_SLACK)
    else:
        report = verify_profile(solution, config.profile,
                                probes_per_band=config.probes,
                                slack=SERIALIZED_SLACK)
    artifacts = {"verification.json": report.to_dict()}
    if report.passed:
        return _Result(artifacts, None, [
            f"solution certified; worst margin {format_float(report.worst_margin)}"])
    return _Result(
        artifacts,
        (["constraint", "k", "l", "margin"],
         [[v.constraint, v.k, "" if v.l is None else v.l, v.margin]
          for v in report.violations]),
        [f"{len(report.violations)} constraint violation(s) found"], 3)


def _cmd_simulate(args, config, out) -> _Result:
    profile = load_solution(args.solution, config)
    samples = args.samples if args.samples is not None else config.samples_per_band
    seed = args.seed if args.seed is not None else config.seed
    report = simulate_market(profile, config.profile, samples, seed)
    oob = report.out_of_band
    return _Result(
        {"simulation.json": report.to_dict()},
        (["k", "fraction_intended", "min_saving", "provider_profit",
          "meets_target"],
         [[s.k, s.fraction_intended, s.min_saving, s.provider_profit,
           s.meets_profit_target] for s in report.bands]),
        [] if oob is None else [f"out-of-band: {oob.samples} samples, "
                                f"{format_float(oob.fraction_affordable)} affordable"])


def _cmd_tradeoff(args, config, out) -> _Result:
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
    return _Result(
        {"tradeoff.json": summary,
         "tradeoff.csv": (["m", "b", "normalized_m", "achievable"], rows)},
        None, [f"m0 = {format_float(curve.m0)}, b0 = {format_float(curve.b0)}; "
               f"artifacts in {out}"])


def _cmd_check(args, config, out) -> _Result:
    report = (check_menu_regularity(config.menu) if config.mode == "menu"
              else check_achievability(config.profile))
    failed = ", ".join(c.cid for c in report.failures)
    return _Result(
        {"check.json": {"mode": config.mode, **report.to_dict()}},
        (["condition", "passed", "margin"],
         [[c.cid, c.passed, c.margin] for c in report.checks]),
        ["all conditions hold" if report.passed
         else f"failing condition(s): {failed}"],
        0 if report.passed else 3)


#: command -> (handler, config modes it accepts)
_COMMANDS = {
    "menu": (_cmd_menu, ("menu",)),
    "profile": (_cmd_profile, ("profile",)),
    "verify": (_cmd_verify, ("menu", "profile")),
    "simulate": (_cmd_simulate, ("profile",)),
    "tradeoff": (_cmd_tradeoff, ("tradeoff",)),
    "check": (_cmd_check, ("menu", "profile")),
}


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        handler, modes = _COMMANDS[args.command]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config = load_config(args.config)
            if config.mode not in modes:
                raise ConfigError(f"'{args.command}' needs a {' or '.join(modes)} "
                                  f"config, got mode '{config.mode}'")
            out = _out_dir(args)
            result = handler(args, config, out)
            for name, payload in result.artifacts.items():
                kind = Path(name).suffix[1:]
                if getattr(args, "format", "both") not in ("both", kind):
                    continue
                if kind == "json":
                    write_json(out / name, payload)
                else:
                    write_csv(out / name, *payload)
            if not args.quiet:
                if result.table is not None:
                    _print_table(*result.table)
                for line in result.status:
                    print(line)
            return result.code
    except SystemExit as exc:  # --help
        return exc.code or 0
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
