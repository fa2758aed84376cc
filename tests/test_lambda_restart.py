"""Time consistency of the lambda form: a restart from its own state converges to its tail at order 2.

The lambda form integrates c = h + Lambda e^(Gamma t) with the
differentiated habit law, so its excess is exact by construction and
its state (k(t1), c on [t1 - tau, t1]) carries the scheme's O(dt^2)
error.  Restarted from that state at t1, it computes its own Lambda from
the window quadratures of the new history; the restarted tail differs
from the original's by the discretization error, which must fall by 4
per doubling of n.  Measured on ``baseline`` at t1 = tau, largest over
k, c and h: 1.06e-6, 2.65e-7 and 6.63e-8 of the tail's maximum at
n = 200, 400 and 800, a ratio of 4.00 per doubling on both scenarios
and both t1 (``low_curvature`` at t1 = 3 tau reads 9.3e-8 at n = 800).

A restart that keeps the original Lambda instead of its own drops the
growth e^(Gamma t1) from the excess, a gap of order one.
"""

from pathlib import Path

import numpy as np
import pytest

from akhabit.cli import load_scenario
from akhabit.model import HistoryGrid, InitialState
from akhabit.simulate import simulate_lambda_form

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GRIDS = (200, 400, 800)
FINE_GAP = 2e-7  # at n = 800


def tail_gaps(name, n, t1_in_tau):
    """Relative gaps in k, c and h between the path's tail and its restart at t1 = t1_in_tau * tau."""
    scn = load_scenario(SCENARIOS / f"{name}.yaml")
    p = scn.params
    path = simulate_lambda_form(p, scn.initial.resample(n), scn.horizon)
    j1 = t1_in_tau * n
    state = InitialState(float(path.k[j1]), HistoryGrid(p.tau, path.c[j1 - n : j1 + 1]))
    rest = simulate_lambda_form(p, state, scn.horizon - path.t[j1])
    assert len(rest.t) == len(path.t) - j1
    return np.array([
        np.max(np.abs(full[j1:] - tail)) / np.max(np.abs(full[j1:]))
        for full, tail in ((path.k, rest.k), (path.c, rest.c), (path.h, rest.h))
    ])


@pytest.mark.parametrize("name", ["baseline", "low_curvature"])
@pytest.mark.parametrize("t1_in_tau", [1, 3])
def test_the_restarted_tail_converges_at_order_two(name, t1_in_tau):
    gaps = [tail_gaps(name, n, t1_in_tau) for n in GRIDS]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert np.all((3.5 <= coarse / fine) & (coarse / fine <= 4.5))
    assert np.all(gaps[-1] <= FINE_GAP)
