"""Byte identity of the CLI artifacts on the demo scenarios.

Runs the twelve commands pinned in ``bench/cli_digests.json`` in-process
through ``cli.run``, with the argv that the benchmark's ``cli_demos``
workload builds (``cli_argv`` of ``bench/workloads.py``), and compares the SHA-256 digest of every artifact
with the pinned one.  The pinned file is only read.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from contractpricing.cli import run

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
PINNED = json.loads((BENCH / "cli_digests.json").read_text())


def load_workloads():
    """``bench/workloads.py``, which imports its sibling ``scenarios``."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up by name
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


WORKLOADS = load_workloads()


def argv(key, workdir, out):
    """The benchmark's argv; solutions live under ``workdir/solutions``."""
    return WORKLOADS.cli_argv(ROOT, workdir, key, out)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    for key in ("menu", "profile_bilinear", "profile_separable"):
        assert run(argv(key, root, root / "solutions" / key)) == 0
    return root


def test_every_pinned_command_is_run():
    assert sorted(WORKLOADS.CLI_COMMANDS) == sorted(PINNED)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_artifacts_match_pinned_digests(key, workdir, tmp_path):
    out = tmp_path / "out"
    assert run(argv(key, workdir, out)) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.iterdir())}
    assert digests == PINNED[key]
