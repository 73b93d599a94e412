"""Byte identity of the CLI artifacts on the demo scenarios.

Runs the twelve commands pinned in ``bench/cli_digests.json`` in-process
through ``cli.run``, with the argv that the benchmark's ``cli_demos``
workload builds (``cli_argv`` of ``bench/workloads.py``), and compares the SHA-256 digest of every artifact
with the pinned one.  The pinned file is only read.
"""

import hashlib
import json

import pytest

from contractpricing.cli import run
from conftest import BENCH, load_bench

ROOT = BENCH.parent
PINNED = json.loads((BENCH / "cli_digests.json").read_text())
WORKLOADS = load_bench("workloads")


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
