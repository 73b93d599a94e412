"""The four benchmark workloads.

Every workload is a closed loop with one caller: a fixed *cycle* of
operations built during set-up from the seed, run whole, again and again,
until the measured busy time reaches the run length.  Running whole
cycles keeps the mix of operation shapes identical between runs, so
throughput and percentiles compare across seeds.

* ``design_sweep`` solves randomized menus and profiles in-process.  It
  loads function evaluation, the condition scans, the menu bisections,
  the profile window recursion and in-solver certification, on both the
  accept path and the declared-rejection path.
* ``region_map`` sweeps ``empirical_region`` over large (b, m) grids.  It
  runs the achievability predicate thousands of times per call with the
  marginal-budget scan done once per template.
* ``market_sim`` runs ``simulate_market`` at 10**6 samples per band on
  profiles certified during set-up: vectorized numpy throughput that
  bypasses the solvers.
* ``cli_demos`` runs ``python -m contractpricing`` on the demo scenarios,
  one child process at a time: the only workload where start-up,
  ``config``, ``serialize`` and ``cli`` count.

Correctness gates run outside the timed region: every operation must end
in the outcome it was built for (a certified result, or for a profile
built to be rejected a declared rejection), every returned menu or
profile is re-verified at the solver slack, simulations must pick the
intended quality for every sampled user, region cells are spot-checked
against ``build_profile``, and CLI artifacts must match pinned digests.
A repeated operation must return what it returned the first time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import contractpricing as cp
from contractpricing import cli as cp_cli
import scenarios

#: slack of the re-verification gate; the solvers certify at the same value
GATE_SLACK = 1e-9

#: users simulated per satisfaction band on ``market_sim``
SIM_SAMPLES = 10 ** 6

#: (b, m) cells per side of one ``region_map`` grid
REGION_CELLS = 60

#: demand grid of region templates; the demo tradeoff config uses the same
REGION_GRID_N = 64

#: region cells per template that the gate rebuilds with ``build_profile``
SPOT_CHECKS = 6

DIGESTS_FILE = Path(__file__).with_name("cli_digests.json")
REFERENCE_SCRIPT = Path(__file__).with_name("reference.py")


class ReferenceChild:
    """Fixed reference work, run outside this process (see ``reference.py``).

    The kinds ``interpreter`` and ``vector`` are kernels of one long-lived
    child; ``startup`` is a fresh ``python -c "import numpy"``.  ``close``
    ends the child and waits for it.
    """

    #: nominal duration of each kind; scaled times are relative to it
    NOMINAL_S = {"interpreter": 0.02, "vector": 0.025, "startup": 0.17}

    def __init__(self, root: Path):
        self.root = root
        self.proc = subprocess.Popen([sys.executable, str(REFERENCE_SCRIPT)], cwd=root,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def seconds(self, kind: str) -> float:
        """Duration of one run of the reference work ``kind``."""
        if kind == "startup":
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import numpy"], cwd=self.root, check=True)
            return time.perf_counter() - t0
        self.proc.stdin.write(kind + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process ended with code {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class HostClock:
    """Host-speed factors of a sequence of timed steps.

    The host's speed swings by up to a factor of two within a second or
    two.  The reference runs before the first step and after every step,
    and a step's factor is the reference's nominal duration over the mean
    of the runs around it, so that a step timed while the host was slow
    compares with one timed while it was fast.
    """

    def __init__(self, ref: ReferenceChild, kind: str):
        self.ref = ref
        self.kind = kind
        self.before = ref.seconds(kind)

    def scale_after_step(self) -> float:
        after = self.ref.seconds(self.kind)
        scale = self.ref.NOMINAL_S[self.kind] / (0.5 * (self.before + after))
        self.before = after
        return scale


@dataclasses.dataclass
class Op:
    """One operation of a cycle.

    ``work`` counts the items the operation completes (designs, region
    cells, simulated users or CLI calls).  ``expect`` names the outcomes
    the operation was built for: ``"certified"`` for a returned result, or
    the class names of the declared errors it may end in.  ``observe``
    turns the raw result into what the gates compare, outside the timed
    region.
    """

    kind: str
    key: str
    call: Callable[[], object]
    work: float = 1.0
    expect: tuple[str, ...] = ("certified",)
    observe: Optional[Callable[[object], object]] = None
    data: object = None


@dataclasses.dataclass
class Record:
    kind: str
    key: str
    seconds: float
    outcome: str
    work: float
    #: host-speed factor of the operation (see ``HostClock``)
    scale: float = 1.0

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


class Workload:
    """Base class: holds the cycle and the gate state of one run."""

    name = ""
    work_unit = ""
    #: tail percentile; a measured run lasts until at least 10 samples lie
    #: beyond it, so every run reports the same percentile
    tail_q = 90.0
    #: kind of reference work (``ReferenceChild``) like the workload's own
    reference_kind = "interpreter"

    def __init__(self, root: Path, workdir: Path, seed: int, index: int,
                 ref: ReferenceChild):
        self.root = root
        self.ref = ref
        self.workdir = workdir
        self.seed = seed
        self.rng_key = [seed, index]
        self.ops: list[Op] = []
        self.first: dict[str, tuple[str, object]] = {}
        self.problems: list[str] = []
        self.bad_keys: set[str] = set()

    # -- set-up ------------------------------------------------------------

    def rng(self, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng(self.rng_key + [stream])

    def setup(self) -> None:
        """Build the cycle from the seed and warm it up."""
        raise NotImplementedError

    def reference_for(self, op_kind: str) -> str:
        """Kind of reference work for operations of ``op_kind``, or for ``"setup"``."""
        return self.reference_kind

    def traced_ops(self) -> list[Op]:
        """Operations of the traced run (in-process for every workload)."""
        return self.ops

    # -- measurement -------------------------------------------------------

    def tail_records(self) -> int:
        """Operations a run needs for 10 samples beyond the ``tail_q`` percentile."""
        return math.ceil(1000.0 / (100.0 - self.tail_q) - 1e-9)

    def run(self, ops: list[Op], *, min_seconds: float = 0.0, min_records: int = 0,
            cycles: Optional[int] = None, tracer=None) -> tuple[list[Record], int]:
        """Run whole cycles of ``ops`` for ``cycles``, or for ``min_seconds`` of
        busy time and ``min_records`` operations.

        All of ``ops`` share the reference kind of the first.
        """
        records: list[Record] = []
        busy = 0.0
        done = 0
        clock = HostClock(self.ref, self.reference_for(ops[0].kind))
        while ((busy < min_seconds or len(records) < min_records) if cycles is None
               else done < cycles):
            for op in ops:
                t0 = time.perf_counter()
                try:
                    result = tracer.run_op(op.call) if tracer else op.call()
                    outcome = "certified"
                except cp.ContractPricingError as exc:
                    result, outcome = exc, type(exc).__name__
                except Exception as exc:  # an undeclared error is a failed operation
                    result, outcome = exc, "undeclared:" + type(exc).__name__
                seconds = time.perf_counter() - t0
                scale = clock.scale_after_step()
                busy += seconds
                records.append(Record(op.kind, op.key, seconds, outcome, op.work, scale))
                if op.observe is not None and outcome == "certified":
                    result = op.observe(result)
                self._gate(op, outcome, result)
            done += 1
        return records, done

    def _gate(self, op: Op, outcome: str, result) -> None:
        """Gate one result; a problem marks the operation's key as failed."""
        if outcome not in op.expect:
            self._problem(op.key, f"{outcome} where {' or '.join(op.expect)} was expected"
                                  + ("" if outcome == "certified" else f": {result}"))
            return
        first = self.first.get(op.key)
        if first is None:
            self.first[op.key] = (outcome, result)
            for problem in self.check(op, outcome, result):
                self._problem(op.key, problem)
        elif first[0] != outcome or not same(first[1], result):
            self._problem(op.key, "result differs from the first run of the operation")

    def _problem(self, key: str, text: str) -> None:
        self.bad_keys.add(key)
        self.problems.append(f"{self.name}/{key}: {text}")

    def check(self, op: Op, outcome: str, result) -> list[str]:
        """Gate on the first result of an operation, if expected; returns the problems."""
        return []

    def final_gates(self) -> None:
        """Gates that need the whole run (run once, untimed)."""

    def outcome_digest(self) -> str:
        """Digest of the outcome class of each operation of the cycle, in order."""
        lines = [f"{key}:{self.first[key][0]}" for key in (op.key for op in self.ops)
                 if key in self.first]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]

    # -- reporting ---------------------------------------------------------

    def named_metrics(self, records: list[Record]) -> list[tuple]:
        """Workload-specific metrics: (name, value, unit, note) rows."""
        return []

    def baseline(self, records: list[Record]) -> list[tuple[str, float, float]]:
        """(ROADMAP baseline row, its time in ms, this run's time in ms)."""
        return []

    def demo(self, name: str) -> Path:
        return self.root / "demos" / "scenarios" / name


def mean_ms(fn, repeat: int) -> float:
    fn()
    t0 = time.perf_counter()
    for _ in range(repeat):
        fn()
    return (time.perf_counter() - t0) / repeat * 1e3


def throughput(records: list[Record], per_cycle: int) -> float:
    """Median over whole cycles of the work completed per scaled busy second."""
    rates = []
    for i in range(0, len(records), per_cycle):
        cycle = records[i:i + per_cycle]
        rates.append(sum(r.work for r in cycle) / sum(r.scaled for r in cycle))
    return float(np.median(rates))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def tail(values, q: float) -> tuple[float, float]:
    """Value at percentile ``q``, lowered (not below the median) until 10 samples lie beyond it."""
    q = max(50.0, min(q, 100.0 * (1.0 - 10.0 / len(values))))
    return percentile(values, q), q


def latency_rows(prefix: str, seconds: list[float], q: float) -> list[tuple]:
    """p50 and tail rows of scaled operation times."""
    ms = [s * 1e3 for s in seconds]
    if not ms:
        return [(f"{prefix}_p50", float("nan"), "ms", "no samples")]
    t, tq = tail(ms, q)
    return [(f"{prefix}_p50", percentile(ms, 50), "ms", f"n={len(ms)}"),
            (f"{prefix}_tail", t, "ms", f"p{tq:g}, n={len(ms)}")]


# ---------------------------------------------------------------------------
# design_sweep
# ---------------------------------------------------------------------------

class DesignSweep(Workload):
    name = "design_sweep"
    work_unit = "designs"
    tail_q = 90.0

    MENU_SIZES = (2, 4, 7, 12)
    PROFILE_SIZES = (2, 3, 5, 8)
    #: one profile per tariff family and cycle gets a load above 1, so a
    #: quarter of the profiles end in a declared rejection
    ACCEPT_LOADS = (0.35, 0.95)
    REJECT_LOADS = (1.02, 1.2)
    #: declared errors a profile built with a reject load may end in
    REJECTIONS = ("NotAchievableError", "EmptyPriceWindowError")

    def setup(self) -> None:
        rng = self.rng()
        ops = []
        for family in scenarios.MENU_FAMILIES:
            for n in self.MENU_SIZES:
                scn = scenarios.menu_scenario(rng, family, n)
                ops.append(Op("menu", f"menu-{family}-{n}",
                              (lambda s=scn: cp.solve_menu(s)), data=scn))
        for family in scenarios.TARIFF_FAMILIES:
            reject = int(rng.integers(len(self.PROFILE_SIZES)))
            for slot, n in enumerate(self.PROFILE_SIZES):
                load = float(rng.uniform(*(self.REJECT_LOADS if slot == reject
                                           else self.ACCEPT_LOADS)))
                scn = scenarios.profile_scenario(rng, family, n, load)
                ops.append(Op("profile", f"profile-{family}-{n}",
                              (lambda s=scn: cp.build_profile(s)),
                              expect=self.REJECTIONS if slot == reject else ("certified",),
                              data=scn))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        for op in self.ops:
            if op.key in ("menu-log-2", "profile-bilinear-2"):
                try:
                    op.call()
                except cp.NotAchievableError:
                    pass

    def check(self, op, outcome, result):
        scn = op.data
        if outcome == "certified":
            if op.kind == "menu":
                report = cp.verify_menu(result, scn, slack=GATE_SLACK)
            else:
                report = cp.verify_profile(result, scn, slack=GATE_SLACK)
            return [] if report.passed else [
                f"returned solution fails re-verification ({len(report.violations)} violations)"]
        if isinstance(result, cp.NotAchievableError) and (
                result.report is None or result.report.passed):
            return ["NotAchievableError without a failing condition"]
        return []

    def named_metrics(self, records):
        menus = [r.scaled for r in records if r.kind == "menu" and r.outcome == "certified"]
        profiles = [r.scaled for r in records
                    if r.kind == "profile" and r.outcome == "certified"]
        rejects = [r.scaled for r in records if r.kind == "profile" and r.outcome != "certified"]
        rows = [("designs_per_s", throughput(records, len(self.ops)), "1/s",
                 f"{len(records)} designs")]
        rows += latency_rows("menu_solve_ms", menus, 80.0)
        rows += latency_rows("profile_solve_ms", profiles, 75.0)
        rows.append(latency_rows("reject_ms", rejects, 50.0)[0])
        return rows

    def baseline(self, records):
        menu = cp.load_config(self.demo("menu_log_budget.json")).menu
        profile = cp.load_config(self.demo("profile_bilinear.json")).profile
        return [
            ("solve_menu (3 types)", 7.3, mean_ms(lambda: cp.solve_menu(menu), 5)),
            ("build_profile (bilinear demo)", 34.0,
             mean_ms(lambda: cp.build_profile(profile), 5)),
            ("check_marginal_budget (bilinear demo)", 21.5,
             mean_ms(lambda: cp.check_marginal_budget(profile.tariff, profile.cost,
                                                      profile.box, profile.grid_n), 5)),
        ]


# ---------------------------------------------------------------------------
# region_map
# ---------------------------------------------------------------------------

class RegionMap(Workload):
    name = "region_map"
    work_unit = "cells"
    tail_q = 75.0

    #: templates per tariff family, all with ``QUALITIES`` qualities; nine
    #: grids per cycle put the median inside a group of like-cost grids
    VARIANTS = 3
    QUALITIES = 5

    def setup(self) -> None:
        rng = self.rng()
        ops = []
        for family in scenarios.TARIFF_FAMILIES:
            for variant in range(self.VARIANTS):
                template, b_grid, m_grid = scenarios.region_template(
                    rng, family, self.QUALITIES, REGION_CELLS)
                template = dataclasses.replace(template, grid_n=REGION_GRID_N)
                ops.append(Op("region", f"region-{family}-{variant}",
                              (lambda t=template, b=b_grid, m=m_grid:
                               cp.empirical_region(t, b, m)),
                              work=float(b_grid.size * m_grid.size),
                              data=(template, b_grid, m_grid)))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        for template, b_grid, m_grid in (op.data for op in self.ops):
            cp.empirical_region(template, b_grid[::20], m_grid[::20])

    def final_gates(self) -> None:
        rng = self.rng(1)
        for op in self.ops:
            if op.key not in self.first:  # failed already
                continue
            matrix = self.first[op.key][1]
            template, b_grid, m_grid = op.data
            s = np.asarray(template.qualities)
            for _ in range(SPOT_CHECKS):
                i, j = (int(x) for x in rng.integers(0, REGION_CELLS, 2))
                margins = cp.MarginSpec(b=tuple(b_grid[i] * s), m=tuple(m_grid[j] * s))
                try:
                    cp.build_profile(dataclasses.replace(template, margins=margins))
                    accepted = True
                except cp.NotAchievableError:
                    accepted = False
                except cp.ContractPricingError as exc:
                    self._problem(op.key, f"cell ({i}, {j}): build_profile raised "
                                          f"{type(exc).__name__}: {exc}")
                    continue
                if accepted != bool(matrix[i, j]):
                    self._problem(op.key, f"cell ({i}, {j}): region says "
                                          f"{bool(matrix[i, j])}, build_profile says {accepted}")

    def achievable_share(self) -> float:
        """Share of achievable cells over the cycle's grids."""
        return float(np.mean([self.first[op.key][1].mean() for op in self.ops
                              if op.key in self.first]))

    def named_metrics(self, records):
        return [("region_cells_per_s", throughput(records, len(self.ops)), "1/s",
                 f"{len(records)} grids of {REGION_CELLS}x{REGION_CELLS}")]

    def baseline(self, records):
        template = cp.load_config(self.demo("profile_bilinear.json")).profile
        rows = []
        for cells, ms in ((50, 183.0), (80, 660.0)):
            b_grid = np.linspace(0.05, 0.4, cells)
            m_grid = np.linspace(0.002, 0.02, cells)
            rows.append((f"empirical_region {cells}x{cells} (bilinear demo)", ms,
                         mean_ms(lambda: cp.empirical_region(template, b_grid, m_grid), 1)))
        return rows


# ---------------------------------------------------------------------------
# market_sim
# ---------------------------------------------------------------------------

class MarketSim(Workload):
    name = "market_sim"
    work_unit = "samples"
    #: inside the group of the second-largest simulation, clear of the
    #: overlapping costs of the middle groups
    tail_q = 65.0
    reference_kind = "vector"

    #: (tariff family, qualities); an odd number of simulations per cycle
    #: keeps the median inside one simulation's group instead of between
    #: two.  Tabulated tariffs are left out because their per-sample
    #: lookup, not the simulator, would dominate.
    PROFILES = (("bilinear", 3), ("separable", 4), ("bilinear", 5),
                ("separable", 6), ("bilinear", 8))

    def setup(self) -> None:
        rng = self.rng()
        ops = []
        for index, (family, n) in enumerate(self.PROFILES):
            scn = scenarios.profile_scenario(rng, family, n, float(rng.uniform(0.35, 0.9)))
            profile = cp.build_profile(scn)
            sim_seed = self.seed * 100 + index
            ops.append(Op("sim", f"sim-{family}-{n}",
                          (lambda p=profile, s=scn, k=sim_seed:
                           cp.simulate_market(p, s, SIM_SAMPLES, k)),
                          work=float((n + 1) * SIM_SAMPLES), data=(profile, scn)))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        for profile, scn in (op.data for op in self.ops):
            cp.simulate_market(profile, scn, 1000, 0)

    def check(self, op, outcome, result):
        problems = [f"band {b.k}: fraction_intended {b.fraction_intended!r}"
                    for b in result.bands if b.fraction_intended != 1.0]
        problems += [f"band {b.k}: misses its profit target"
                     for b in result.bands if not b.meets_profit_target]
        if result.out_of_band is None or result.out_of_band.samples != SIM_SAMPLES:
            problems.append("out-of-band sample count differs from the work counted")
        return problems

    def named_metrics(self, records):
        largest = max(n for _, n in self.PROFILES)
        array_mb = largest * SIM_SAMPLES * 8 / 2 ** 20
        return [("sim_samples_per_s", throughput(records, len(self.ops)), "1/s",
                 f"{len(records)} simulations; largest savings array {array_mb:.0f} MiB, "
                 "to be read against the LLC above: not a memory-bandwidth figure")]

    def baseline(self, records):
        config = cp.load_config(self.demo("profile_bilinear.json"))
        profile = cp.build_profile(config.profile)
        return [("simulate_market, 10^6 samples per band (bilinear demo)", 265.0,
                 mean_ms(lambda: cp.simulate_market(profile, config.profile,
                                                    SIM_SAMPLES, 42), 3))]


# ---------------------------------------------------------------------------
# cli_demos
# ---------------------------------------------------------------------------

#: key -> (subcommand, config, solution key or None)
CLI_COMMANDS = {
    "menu": ("menu", "menu_log_budget.json", None),
    "profile_bilinear": ("profile", "profile_bilinear.json", None),
    "profile_separable": ("profile", "profile_separable.json", None),
    "verify_menu": ("verify", "menu_log_budget.json", "menu"),
    "verify_bilinear": ("verify", "profile_bilinear.json", "profile_bilinear"),
    "verify_separable": ("verify", "profile_separable.json", "profile_separable"),
    "simulate_bilinear": ("simulate", "profile_bilinear.json", "profile_bilinear"),
    "simulate_separable": ("simulate", "profile_separable.json", "profile_separable"),
    "tradeoff": ("tradeoff", "tradeoff_homogeneous.json", None),
    "check_menu": ("check", "menu_log_budget.json", None),
    "check_bilinear": ("check", "profile_bilinear.json", None),
    "check_separable": ("check", "profile_separable.json", None),
}


def cli_argv(root: Path, workdir: Path, key: str, out: Path) -> list[str]:
    command, config, solution = CLI_COMMANDS[key]
    argv = [command, str(root / "demos" / "scenarios" / config)]
    if solution is not None:
        argv.append(str(workdir / "solutions" / solution / f"{CLI_COMMANDS[solution][0]}.json"))
    return argv + ["--out", str(out), "--quiet"]


def artifact_digests(out: Path) -> dict:
    return {p.name: sha256_file(p) for p in sorted(out.iterdir())} if out.is_dir() else {}


class CliDemos(Workload):
    name = "cli_demos"
    work_unit = "calls"
    tail_q = 75.0

    def reference_for(self, op_kind: str) -> str:
        """Child processes are scaled by a child's start-up, in-process calls by the interpreter."""
        return "interpreter" if op_kind == "handler" else "startup"

    #: bare interpreter and package-import probes per traced run
    STARTUP_PROBES = 5

    def __init__(self, *args):
        super().__init__(*args)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.pinned = json.loads(DIGESTS_FILE.read_text())

    def child(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *argv], cwd=self.root, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def setup(self) -> None:
        solutions = self.workdir / "solutions"
        shutil.rmtree(solutions, ignore_errors=True)
        for key in ("menu", "profile_bilinear", "profile_separable"):
            code = cp_cli.run(cli_argv(self.root, self.workdir, key, solutions / key))
            if code != 0:
                raise RuntimeError(f"set-up command {key} exited with {code}")
        keys = list(CLI_COMMANDS)
        order = self.rng().permutation(len(keys))
        self.ops = [self._op(keys[i], "cli") for i in order]
        self.child(["-m", "contractpricing", *cli_argv(
            self.root, self.workdir, "check_menu", self.workdir / "warm")])

    def _op(self, key: str, kind: str) -> Op:
        """A CLI call as a child process (``cli``) or in-process (``handler``)."""
        out = self.workdir / kind / key
        argv = cli_argv(self.root, self.workdir, key, out)
        if kind == "cli":
            call = lambda: self.child(["-m", "contractpricing", *argv]).returncode
        else:
            call = lambda: cp_cli.run(argv)
        return Op(kind, key, call, observe=lambda code: (code, artifact_digests(out)))

    def traced_ops(self):
        return [self._op(op.key, "handler") for op in self.ops]

    def check(self, op, outcome, result):
        code, digests = result
        if code != 0:
            return [f"exit code {code}"]
        if digests != self.pinned[op.key]:
            return ["artifacts differ from the pinned digests"]
        return []

    def startup_ms(self) -> tuple[float, float]:
        """Median bare-interpreter time and median extra time of ``import contractpricing``."""
        def median_ms(argv):
            times = []
            for _ in range(self.STARTUP_PROBES):
                t0 = time.perf_counter()
                self.child(argv)
                times.append((time.perf_counter() - t0) * 1e3)
            return float(np.median(times))
        bare = median_ms(["-c", "pass"])
        return bare, median_ms(["-c", "import contractpricing"]) - bare

    def named_metrics(self, records):
        return latency_rows("cli_ms", [r.scaled for r in records], self.tail_q)

    def baseline(self, records):
        by_key = {}
        for r in records:
            if r.kind == "cli":
                by_key.setdefault(r.key, []).append(r.seconds * 1e3)
        return [(f"CLI {key.split('_')[0]} (demo), p50 of this run", ms,
                 float(np.median(by_key[key])))
                for key, ms in (("menu", 490.0), ("profile_bilinear", 450.0))
                if key in by_key]


WORKLOADS = {cls.name: cls for cls in (DesignSweep, RegionMap, MarketSim, CliDemos)}
