"""Fuzz over config JSON: mutated demo configs end in a declared outcome.

Each example mutates one or two keys or leaves of a demo scenario
(delete it, or set it to a hostile value) and runs ``check`` or
``tradeoff`` in-process.  The only allowed outcomes are exit codes 0, 2,
3 and 4; an error exit carries a JSON error object on stderr naming a
class from :mod:`contractpricing.errors`, never a traceback.
"""

import io
import json
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contractpricing import errors
from contractpricing.cli import run
from contractpricing.functions import MAX_GRID_N
from contractpricing.tradeoff import MAX_POINTS
from contractpricing.verify import (
    MAX_PROBES_PER_BAND,
    MAX_QUAD_N,
    MAX_SAMPLES_PER_BAND,
)

DEMOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"

COMMANDS = {
    "menu_log_budget.json": "check",
    "profile_bilinear.json": "check",
    "profile_separable.json": "check",
    "tradeoff_homogeneous.json": "tradeoff",
}

DELETE = object()
HOSTILE = [DELETE, 0, -1, 1e308, 10 ** 400, True, None, "x", [], {}]

#: knobs that size work or memory get only small values or ones above
#: their bound, so that no example allocates much or runs long
SIZING_BOUNDS = {"grid_n": MAX_GRID_N, "probes": MAX_PROBES_PER_BAND,
                 "quad_n": MAX_QUAD_N, "samples_per_band": MAX_SAMPLES_PER_BAND,
                 "points": MAX_POINTS}


def _paths(node, prefix=()):
    """Every key or index path in a JSON tree, containers included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _apply(config, path, value) -> None:
    """Set or delete ``path``; skip it if an earlier mutation removed it."""
    try:
        node = config
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
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
