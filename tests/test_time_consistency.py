"""Time consistency of the closed loop: the dynamic-programming principle in the state (k, window).

The policy c = h + alpha*G reads only the state at t: capital k(t) and
consumption on the window [t - tau, t].  Restarting the integral form at
t1 from (k(t1), c on [t1 - tau, t1]) of a path on the same grid must
therefore reproduce that path's tail.  Measured: 1.1e-14 relative at
most, over both shipped scenarios, t1 in {tau, 3 tau} and n in
{200, 400, 800}; a W(0) scaled by 1 + 1e-6 in ``simulate._start`` moves
the tail by 8.2e-9.

The restart's Lambda is its own excess level (c - h)(t1), so it must
approach Lambda e^(Gamma t1) at the discretization's order 2: the
relative gap on ``baseline`` at t1 = tau is 1.85e-7, 4.64e-8 and 1.16e-8
at n = 200, 400 and 800.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from akhabit.cli import load_scenario
from akhabit.model import HistoryGrid, InitialState
from akhabit.simulate import simulate_integral_form

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

TAIL_TOL = 1e-13


def restart(name, n, t1_in_tau):
    """The path at n per tau, and the path restarted from its state at t1 = t1_in_tau * tau."""
    scn = load_scenario(SCENARIOS / f"{name}.yaml")
    p = scn.params
    path = simulate_integral_form(p, scn.initial.resample(n), scn.horizon)
    j1 = t1_in_tau * n
    state = InitialState(float(path.k[j1]), HistoryGrid(p.tau, path.c[j1 - n : j1 + 1]))
    return path, simulate_integral_form(p, state, scn.horizon - path.t[j1]), j1


@pytest.mark.parametrize("name", ["baseline", "low_curvature"])
@pytest.mark.parametrize("n", [200, 800])
@pytest.mark.parametrize("t1_in_tau", [1, 3])
def test_restart_reproduces_the_tail(name, n, t1_in_tau):
    path, rest, j1 = restart(name, n, t1_in_tau)
    assert len(rest.t) == len(path.t) - j1
    for full, tail in ((path.k, rest.k), (path.c, rest.c), (path.h, rest.h)):
        gap = np.max(np.abs(full[j1:] - tail)) / np.max(np.abs(full[j1:]))
        assert gap <= TAIL_TOL


@pytest.mark.parametrize("name", ["baseline", "low_curvature"])
@pytest.mark.parametrize("t1_in_tau", [1, 3])
def test_restarted_lambda_converges_at_order_two(name, t1_in_tau):
    gaps = []
    for n in (200, 400, 800):
        path, rest, j1 = restart(name, n, t1_in_tau)
        expected = path.Lambda * math.exp(path.Gamma * path.t[j1])
        gaps.append(abs(rest.Lambda - expected) / expected)
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.5 <= coarse / fine <= 4.5
