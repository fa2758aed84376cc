"""Outputs pinned to earlier runs: perfbench's reference gate, and golden.json's hashes.

The hashes are of the exact bytes, so they hold on the platform that
recorded them (``golden.json``'s ``recorded_on``); another libm or numpy
build may round a last digit differently.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from record_golden import GOLDEN, golden_hashes

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workload():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workload")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["oracle", "closed_loop", "sweep"])
def test_perfbench_workload_matches_reference(tmp_path, workload, name):
    # one untimed pass through the benchmark's own 1e-12 gate
    reference = json.loads(workload.REFERENCE.read_text())
    reqs = workload.requests_for(name, seed=1)
    workload.write_scenarios(name, tmp_path / "scenarios")
    result = workload.run_pass(reqs, reference, tmp_path / "scenarios", tmp_path / "out")
    assert result.attempted > 0
    assert result.failed == 0, result.failures


def test_outputs_match_golden_hashes(tmp_path):
    want = json.loads(GOLDEN.read_text())["hashes"]
    got = golden_hashes(tmp_path)
    moved = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not moved, moved
