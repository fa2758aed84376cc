"""``perturbation_test``'s random stream: its seed contract, that the
stream belongs to the call, and that an oracle run loads no module for it.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from akhabit import DiscreteProblem, HistoryGrid, InitialState, perturbation_test, simulate_integral_form

from test_outcomes import scenario

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def small(params):
    """A 75-node problem on [0, 3] and the closed loop on its grid."""
    init = InitialState(10.0, HistoryGrid.constant(1.0, tau=1.0, n=25))
    return DiscreteProblem(params, init, T=3.0, m=75), simulate_integral_form(params, init, T=3.0, n=25).c


class TestSeedContract:
    @pytest.mark.parametrize("seed", [-1, -7])
    def test_negative_seed_raises_value_error(self, small, seed):
        # random.Random(-7) would silently equal Random(7)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            perturbation_test(*small, trials=1, seed=seed)

    @pytest.mark.parametrize("seed", [2.5, 7.0, "x", [1, 2]])
    def test_non_integer_seed_raises_type_error(self, small, seed):
        # random.Random would hash these into a seed
        with pytest.raises(TypeError):
            perturbation_test(*small, trials=1, seed=seed)

    def test_none_draws_fresh_entropy(self, small):
        report = perturbation_test(*small, trials=3, seed=None)
        assert report.trials == 3 and report.improving == 0

    def test_integer_like_seed_is_its_integer(self, small):
        assert perturbation_test(*small, trials=5, seed=np.int64(7)) == perturbation_test(*small, trials=5, seed=7)


class TestOwnStream:
    def test_global_random_state_does_not_reach_the_draws(self, small):
        first = perturbation_test(*small, trials=20, seed=7)
        state = random.getstate()
        try:
            random.seed(0)
            for _ in range(3):
                random.random()
            assert perturbation_test(*small, trials=20, seed=7) == first
        finally:
            random.setstate(state)

    def test_seeds_give_different_draws(self, small):
        a = perturbation_test(*small, trials=20, seed=7)
        b = perturbation_test(*small, trials=20, seed=8)
        assert a.max_gain != b.max_gain

    def test_global_random_state_is_left_alone(self, small):
        state = random.getstate()
        perturbation_test(*small, trials=20, seed=7)
        perturbation_test(*small, trials=3, seed=None)
        assert random.getstate() == state


CHILD = """
import contextlib, io, sys
from pathlib import Path
from akhabit import cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    cli.run(Path(sys.argv[1]), Path(sys.argv[2]))
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_oracle_run_loads_no_random_or_hash_module(tmp_path):
    # in a child process: pytest or hypothesis may have loaded these already
    path = scenario(tmp_path, numerics={"oracle": True, "oracle_m": 200, "trials": 3, "ascent_iters": 5})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(path), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "perturbation" in {check["name"] for check in report["checks"]}
    assert report["oracle"]["perturbation_trials"] == 3
    added = set(proc.stdout.split())
    assert not added & {"numpy.random", "secrets", "hashlib", "_hashlib"}, sorted(added)
