"""Fuzz over config and solution JSON: mutations end in a declared outcome.

Each example mutates one or two keys or leaves of a demo scenario or of
a stored demo solution (delete it, or set it to a hostile value) and
runs ``check``/``tradeoff`` on the config or ``verify``/``simulate`` on
the solution, in-process; a small derandomized sample runs the same
mutations as ``python -m contractpricing`` child processes.  The only
allowed outcomes are exit codes 0, 2, 3 and 4; an error exit leaves
exactly one JSON object on stderr naming a class from
:mod:`contractpricing.errors`, never a traceback.
"""

import copy
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import contractpricing
from contractpricing import errors
from contractpricing.cli import run
from contractpricing.functions import MAX_GRID_N
from contractpricing.tradeoff import MAX_POINTS
from contractpricing.verify import MAX_SAMPLES_PER_BAND
from oracles import MAX_QUAD_N

DEMOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"

COMMANDS = {
    "menu_log_budget.json": "check",
    "profile_bilinear.json": "check",
    "profile_separable.json": "check",
    "tradeoff_homogeneous.json": "tradeoff",
}

DELETE = object()
HOSTILE = [DELETE, 0, -1, 1e308, 10 ** 400, True, None, "x", [], {}]

#: solution files add the non-finite numbers that Python's json reads
SOLUTION_HOSTILE = HOSTILE + [math.nan, math.inf, -math.inf]

#: demo config -> the commands that read its stored solution
SOLUTION_COMMANDS = {
    "menu_log_budget.json": ("menu", ("verify",)),
    "profile_bilinear.json": ("profile", ("verify", "simulate")),
    "profile_separable.json": ("profile", ("verify", "simulate")),
}

#: knobs that size work or memory get only small values or ones above
#: their bound, so that no example allocates much or runs long
SIZING_BOUNDS = {"grid_n": MAX_GRID_N, "quad_n": MAX_QUAD_N, "samples_per_band": MAX_SAMPLES_PER_BAND,
                 "points": MAX_POINTS}


def _paths(node, prefix=()):
    """Every key or index path in a JSON tree, containers included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _apply(config, path, value) -> None:
    """Set or delete ``path``; skip it if an earlier mutation removed it.

    A container value is copied: a later mutation may write into it, and
    the ``HOSTILE`` list is shared by every example."""
    try:
        node = config
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(value)
    except (KeyError, IndexError, TypeError):
        pass


@st.composite
def mutated_demo(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    config = json.loads((DEMOS / name).read_text())
    targets = draw(st.lists(st.sampled_from(list(_paths(config))),
                            min_size=1, max_size=2, unique=True))
    for path in targets:
        bound = SIZING_BOUNDS.get(path[-1])
        extra = [] if bound is None else [16, 64, bound + 1]
        _apply(config, path, draw(st.sampled_from(HOSTILE + extra)))
    return name, config


@functools.lru_cache(maxsize=None)
def demo_solution(name: str) -> str:
    """The stored solution of a demo config, solved once per session."""
    command = SOLUTION_COMMANDS[name][0]
    with tempfile.TemporaryDirectory() as tmp:
        assert run([command, str(DEMOS / name), "--out", tmp, "--quiet"]) == 0
        return (Path(tmp) / f"{command}.json").read_text()


@st.composite
def mutated_solution(draw):
    name = draw(st.sampled_from(sorted(SOLUTION_COMMANDS)))
    command = draw(st.sampled_from(SOLUTION_COMMANDS[name][1]))
    solution = json.loads(demo_solution(name))
    targets = draw(st.lists(st.sampled_from(list(_paths(solution))),
                            min_size=1, max_size=2, unique=True))
    for path in targets:
        _apply(solution, path, draw(st.sampled_from(SOLUTION_HOSTILE)))
    return name, command, solution


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def _run_child(argv):
    package_root = str(Path(contractpricing.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-m", "contractpricing", *argv],
                           capture_output=True, text=True, env=env)
    return child.returncode, child.stderr


def _assert_declared(code, stderr):
    """An exit without output on stderr is a verdict, 0 or 3 (a failing
    report); any other exit leaves one JSON object naming a declared
    error class with that exit code."""
    if not stderr:
        assert code in (0, 3)
        return
    error = json.loads(stderr)["error"]
    raised = getattr(errors, error["type"], None)
    assert isinstance(raised, type)
    assert issubclass(raised, errors.ContractPricingError)
    assert error["exit_code"] == code != 0


def _run_on_solution(case, quiet, runner):
    name, command, solution = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "solution.json"
        path.write_text(json.dumps(solution))
        argv = [command, str(DEMOS / name), str(path),
                "--out", str(Path(tmp) / "out")] + ["--quiet"] * quiet
        if command == "simulate":
            argv += ["--samples", "200"]
        code, stderr = runner(argv)
    _assert_declared(code, stderr)


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_solution(), quiet=st.booleans())
def test_mutated_demo_solution_ends_in_declared_outcome(case, quiet):
    _run_on_solution(case, quiet, _run_in_process)


@settings(derandomize=True, max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_solution())
def test_mutated_demo_solution_child_process_sample(case):
    _run_on_solution(case, True, _run_child)


@settings(derandomize=True, max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_demo())
def test_mutated_demo_config_child_process_sample(case):
    name, config = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(config))
        code, stderr = _run_child([COMMANDS[name], str(path),
                                   "--out", str(Path(tmp) / "out"), "--quiet"])
    _assert_declared(code, stderr)


@settings(derandomize=True, max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_demo(), quiet=st.booleans())
def test_mutated_demo_config_ends_in_declared_outcome(case, quiet):
    name, config = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(config))
        argv = [COMMANDS[name], str(path), "--out", str(Path(tmp) / "out")]
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            # overflow warnings of hostile magnitudes are not outcomes
            warnings.simplefilter("ignore", RuntimeWarning)
            code = run(argv + ["--quiet"] * quiet)
        check_file = Path(tmp) / "out" / "check.json"
        report = json.loads(check_file.read_text()) if check_file.exists() else None

    assert code in (0, 2, 3, 4)
    if err.getvalue():
        error = json.loads(err.getvalue())["error"]
        raised = getattr(errors, error["type"], None)
        assert isinstance(raised, type)
        assert issubclass(raised, errors.ContractPricingError)
        assert error["exit_code"] == code != 0
    else:
        # no error: tradeoff succeeded, or check wrote its report and
        # exits 3 exactly when a condition fails
        assert code == (0 if report is None or report["passed"] else 3)
