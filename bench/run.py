"""Benchmark of contractpricing: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload design_sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs the same cycles twice, first plain and then with the
span tracer of ``spans.py`` installed, and reports the per-layer metrics
from the traced half; the difference between the halves is the tracing
overhead.  ``--workload all`` runs the four workloads in one process (its
``peak_rss_mb`` is then the process high-water mark so far).

Operation times are scaled for host speed: a short run of fixed work of
the workload's own kind follows every operation in a separate process
(``reference.py``; for the CLI child processes of ``cli_demos`` a fresh
``python -c "import numpy"``), and each operation's time is multiplied by
the reference's nominal duration over the mean of the runs around it; each set-up is
scaled alike by the reference runs around it.  The process and its
children are pinned to one CPU, so that the reference measures the CPU
the operations ran on.  The baseline rows are unscaled, and the
unscaled end-to-end figures are printed beside the scaled ones.  Metric
names and units are read from ``BENCHMARK.json``.

The program is imported from ``src/`` of the checkout, numpy/BLAS threads
are pinned to 1, and nothing is written outside ``.bench_work/``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give every metric by name with its unit, the run's provenance, the
outcome digest and a comparison with the ROADMAP baseline.  The exit
code is 1 when a correctness gate fails and 2 when the checkout holds no
program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("design_sweep", "region_map", "market_sim", "cli_demos")

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 9

#: what each per-layer metric should move, and on which workload; the
#: names and units of all metrics are those of ``BENCHMARK.json``
LAYER_NOTES = {
    "functions.eval_calls": "menu/profile_solve_ms_p50 on design_sweep",
    "functions.eval_ms": "menu/profile_solve_ms_p50 on design_sweep",
    "functions.marginal_budget_ms": "profile_solve_ms_p50, reject_ms_p50 on design_sweep; near 0 on region_map",
    "functions.menu_regularity_ms": "menu_solve_ms_p50 on design_sweep",
    "menu.maximize_net_ms": "menu_solve_ms_p50/tail on design_sweep",
    "menu.feasible_interval_ms": "menu_solve_ms_p50/tail on design_sweep",
    "menu.net_evals": "menu_solve_ms_p50/tail on design_sweep",
    "profile.check_achievability_ms": "region_cells_per_s on region_map; profile_solve_ms_p50 on design_sweep",
    "profile.check_achievability_calls": "region_cells_per_s on region_map",
    "profile.sensitivity_bounds_calls": "profile_solve_ms_p50 on design_sweep",
    "profile.step_sizes_calls": "profile_solve_ms_p50 on design_sweep",
    "profile.price_window_ms": "profile_solve_ms_p50 on design_sweep",
    "profile.accept_ratio": "identical for a given seed",
    "verify.verify_menu_ms": "menu_solve_ms_p50 on design_sweep; cli_ms_p50",
    "verify.verify_profile_ms": "profile_solve_ms_p50 on design_sweep; cli_ms_p50",
    "verify.simulate_ms": "sim_samples_per_s on market_sim",
    "verify.sim_samples": "sim_samples_per_s on market_sim",
    "tradeoff.empirical_region_ms": "region_cells_per_s on region_map",
    "tradeoff.cell_us": "region_cells_per_s on region_map",
    "tradeoff.achievable_share": "identical for a given seed",
    "config.load_ms": "cli_ms_p50 on cli_demos",
    "serialize.write_ms": "cli_ms_p50 on cli_demos",
    "serialize.bytes_written": "cli_ms_p50 on cli_demos",
    "cli.interpreter_ms": "cli_ms_p50 on cli_demos (process start-up)",
    "cli.import_ms": "cli_ms_p50 on cli_demos (package import)",
    "cli.handler_ms": "cli_ms_p50 on cli_demos (work)",
    "trace.coverage_pct": "share of operation time inside layer spans",
    "tracing_overhead_pct": "traced against untraced run of the same cycles",
}


def metric_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail_setup(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def import_program():
    """Import contractpricing from this checkout's ``src/``, or exit 2."""
    src = ROOT / "src"
    if not (src / "contractpricing" / "__init__.py").is_file():
        fail_setup(f"no contractpricing package under {src}")
    if not (ROOT / "demos" / "scenarios").is_dir():
        fail_setup("no demos/scenarios directory in the checkout")
    sys.path.insert(0, str(src))
    import contractpricing
    if Path(contractpricing.__file__).resolve().parent != (src / "contractpricing").resolve():
        fail_setup(f"contractpricing was imported from {contractpricing.__file__}")
    warnings.simplefilter("ignore", contractpricing.ReducedAccuracyWarning)
    return contractpricing


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """Commit of the checkout, or "unknown" where it is no git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def llc_size() -> str:
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(caches.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return "unknown"


def provenance(args) -> list[str]:
    import numpy as np
    affinity = (",".join(map(str, sorted(os.sched_getaffinity(0))))
                if hasattr(os, "sched_getaffinity") else "?")
    pins = ", ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return [
        f"commit: {git_commit()}",
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"nproc {os.cpu_count()} (pinned to CPU {affinity}), LLC {llc_size()}",
        f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
        f"trace {args.trace}; BLAS pin: {pins}",
    ]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(workload, records, setups, wl) -> dict:
    ms = [r.scaled * 1e3 for r in records]
    raw = [r.seconds * 1e3 for r in records]
    tail_value, tail_q = wl.tail(ms, workload.tail_q)
    return {
        "setup_s": (statistics.median(r.scaled for r in setups),
                    f"median of {len(setups)} set-ups, scaled; "
                    f"unscaled {statistics.median(r.seconds for r in setups):.6g}"),
        "throughput_per_s": (wl.throughput(records, len(workload.ops)),
                             f"{workload.work_unit} per scaled busy second, median of cycles; "
                             f"unscaled {sum(r.work for r in records) / sum(r.seconds for r in records):.6g}"),
        "op_ms_p50": (wl.percentile(ms, 50), f"n={len(ms)}; unscaled {wl.percentile(raw, 50):.6g}"),
        "op_ms_tail": (tail_value, f"p{tail_q:g}, n={len(ms)}, "
                                   f"{sum(1 for x in ms if x > tail_value)} beyond; "
                                   f"unscaled {wl.tail(raw, workload.tail_q)[0]:.6g}"),
        "peak_rss_mb": (peak_rss_mb(), "process high-water mark, finished CLI children included"),
    }


def per_layer(workload, records, summary, overhead_pct, startup) -> dict:
    n_ops = len(records)

    def per(x, n):
        return x / n if n else 0.0

    n_menu = summary.calls("menu.solve_menu")
    n_types = summary.calls("menu.maximize_net")
    n_profile = summary.calls("profile.build_profile")
    n_sim = summary.calls("verify.simulate_market")
    n_region = summary.calls("tradeoff.empirical_region")
    n_cli = summary.calls("cli.run")
    profiles = [r for r in records if r.kind == "profile"]
    cells = sum(r.work for r in records if r.kind == "region")
    ms = 1e3
    values = {
        "functions.eval_calls": per(summary.calls("functions.eval"), n_ops),
        "functions.eval_ms": per(summary.self_time("functions.eval") * ms, n_ops),
        "functions.marginal_budget_ms": per(summary.inclusive("functions.check_marginal_budget") * ms, n_ops),
        "functions.menu_regularity_ms": per(summary.inclusive("functions.check_menu_regularity") * ms, n_menu),
        "menu.maximize_net_ms": per(summary.inclusive("menu.maximize_net") * ms, n_types),
        "menu.feasible_interval_ms": per(summary.inclusive("menu.feasible_interval") * ms, n_types),
        "menu.net_evals": per(summary.calls("menu.net"), n_types),
        "profile.check_achievability_ms": per(summary.inclusive("profile.check_achievability") * ms, n_ops),
        "profile.check_achievability_calls": per(summary.calls("profile.check_achievability"), n_ops),
        "profile.sensitivity_bounds_calls": per(summary.calls("profile.sensitivity_bounds"), n_profile),
        "profile.step_sizes_calls": per(summary.calls("profile.step_sizes"), n_profile),
        "profile.price_window_ms": per(summary.inclusive("profile.price_window") * ms, n_profile),
        "profile.accept_ratio": per(sum(r.outcome == "certified" for r in profiles), len(profiles)),
        "verify.verify_menu_ms": per(summary.inclusive("verify.verify_menu") * ms, n_ops),
        "verify.verify_profile_ms": per(summary.inclusive("verify.verify_profile") * ms, n_ops),
        "verify.simulate_ms": per(summary.inclusive("verify.simulate_market") * ms, n_sim),
        "verify.sim_samples": per(sum(r.work for r in records if r.kind == "sim"), n_sim),
        "tradeoff.empirical_region_ms": per(summary.inclusive("tradeoff.empirical_region") * ms, n_region),
        "tradeoff.cell_us": per(summary.inclusive("tradeoff.empirical_region") * 1e6, cells),
        "tradeoff.achievable_share": workload.achievable_share() if hasattr(workload, "achievable_share") else 0.0,
        "config.load_ms": per(summary.inclusive("config.load_config") * ms, n_ops),
        "serialize.write_ms": per((summary.inclusive("serialize.write_json")
                                   + summary.inclusive("serialize.write_csv")) * ms, n_ops),
        "serialize.bytes_written": per(summary.bytes_written, n_ops),
        "cli.interpreter_ms": startup[0],
        "cli.import_ms": startup[1],
        "cli.handler_ms": per(summary.inclusive("cli.run") * ms, n_cli),
        "trace.coverage_pct": summary.coverage * 100.0,
        "tracing_overhead_pct": overhead_pct,
    }
    for layer in ("functions", "menu", "profile", "verify", "tradeoff", "config",
                  "serialize", "cli"):
        values[f"layer.{layer}_self_ms"] = per(summary.layer_self_time(layer) * ms, n_ops)
    return {name: (value, LAYER_NOTES.get(name, "where the time goes"))
            for name, value in values.items()}


def preregistered(records, summary) -> list[str]:
    """Counts that later changes may claim; they repeat exactly for a seed."""
    n = len(records)
    evals = summary.per_op_calls("functions.eval", n)
    sens = summary.per_op_calls("profile.sensitivity_bounds", n)
    nets = summary.per_op_calls("menu.net", n)
    lines = []
    certified = [i for i, r in enumerate(records)
                 if r.kind == "profile" and r.outcome == "certified"]
    if certified:
        steps = sum(int(records[i].key.rsplit("-", 1)[1]) - 1 for i in certified)
        lines.append(f"profile.sensitivity_bounds calls per certified profile solve: "
                     f"{sens[certified].sum() / len(certified):.6g} "
                     f"= {sens[certified].sum() / steps:.6g} x (L-1)")
    for kind, label in (("menu", "menu solve"), ("profile", "profile solve"),
                        ("region", "empirical_region call"), ("sim", "simulation"),
                        ("handler", "CLI handler call")):
        idx = [i for i, r in enumerate(records) if r.kind == kind]
        if idx:
            lines.append(f"functions.eval_calls per {label}: {evals[idx].sum() / len(idx):.6g}")
    menus = [i for i, r in enumerate(records) if r.kind == "menu"]
    if menus:
        types = sum(int(records[i].key.rsplit("-", 1)[1]) for i in menus)
        lines.append(f"menu.net_evals per type: {nets[menus].sum() / types:.6g}")
    return lines


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(name, index, args, wl, spans, ref, units):
    """Set up, run and gate one workload; report the metrics named in ``units``."""
    workdir = ROOT / ".bench_work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = wl.WORKLOADS[name](ROOT, workdir, args.seed, index, ref)
    setups = []
    clock = wl.HostClock(ref, workload.reference_for("setup"))
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        seconds = time.perf_counter() - t0
        setups.append(wl.Record("setup", "setup", seconds, "certified", 1.0,
                                clock.scale_after_step()))

    lines = [f"== {name}"]
    if args.trace == 0:
        records, cycles = workload.run(workload.ops, min_seconds=args.seconds,
                                       min_records=workload.tail_records())
        measured = records
    else:
        ops = workload.traced_ops()
        plain, cycles = workload.run(ops, min_seconds=args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, _ = workload.run(ops, cycles=cycles, tracer=tracer)
        finally:
            tracer.remove()
        records = plain + traced
        measured = traced
        summary = tracer.summary()
        tracer.write(workdir / f"spans-seed{args.seed}.npz")
        overhead = (sum(r.scaled for r in traced) / sum(r.scaled for r in plain) - 1.0) * 100.0
        startup = workload.startup_ms() if hasattr(workload, "startup_ms") else (0.0, 0.0)
    workload.final_gates()
    failed = sum(1 for r in records if r.key in workload.bad_keys)

    lines.append(f"cycles {cycles} of {len(workload.ops)} operations; "
                 f"outcome digest {workload.outcome_digest()}")
    scale = statistics.median(r.scale for r in records)
    lines.append(f"host-speed scale {scale:.4g} (median over operations of the nominal "
                 f"over the measured reference duration)")
    lines.append(f"failed_share = {failed / len(records):.6g} ({failed} of {len(records)} operations)")
    if args.trace == 0:
        metrics = end_to_end(workload, records, setups, wl)
        for row in workload.named_metrics(records):
            lines.append(f"{row[0]} = {row[1]:.6g} {row[2]}  ({row[3]})")
    else:
        metrics = per_layer(workload, measured, summary, overhead, startup)
        lines.append(f"traced half: {summary.span_count} spans, written to "
                     f"{(workdir / f'spans-seed{args.seed}.npz').relative_to(ROOT)}")
        lines += ["pre-registered: " + line for line in preregistered(measured, summary)]
    metrics = {key: metrics[key] for key in units}
    for key, (value, note) in metrics.items():
        lines.append(f"  {key} = {value:.6g} {units[key]}  ({note})")
    for row, roadmap_ms, measured_ms in workload.baseline(measured):
        lines.append(f"baseline: {row}: ROADMAP {roadmap_ms:g} ms, this run "
                     f"{measured_ms:.4g} ms ({measured_ms / roadmap_ms:.2f}x)")
    lines += ["GATE FAILED: " + p for p in workload.problems[:20]]
    print("\n".join(lines), flush=True)
    values = {key: {"value": value, "unit": units[key]} for key, (value, _) in metrics.items()}
    return values, len(records), failed, not workload.problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        fail_setup("--seconds must be positive")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if hasattr(os, "sched_setaffinity"):
        # the reference child, and the CLI children, then run on the CPU
        # whose speed they stand for
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans
    import workloads as wl

    units = metric_units()[args.trace]
    print("\n".join(provenance(args)), flush=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, correct = {}, 0, 0, True
    ref = wl.ReferenceChild(ROOT)
    try:
        for name in names:
            values, n, f, ok = run_workload(name, WORKLOAD_NAMES.index(name), args, wl,
                                            spans, ref, units)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in values.items()})
            attempted += n
            failed += f
            correct = correct and ok and f == 0
    finally:
        ref.close()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
