"""The oracle's habit window against the solvers' window: two implementations, one quadrature.

``DiscreteProblem.habit`` and ``quadrature.window_integrals`` are written
apart (the oracle keeps its own grid and kernel so that its optimality
check stays independent), but both take the trapezoid of
eps e^(-eta (t - s)) c(s) over [t - tau, t] on the concatenated path,
split at t = 0 between the history's left limit and the control's start.
So eps times the solvers' window must match the oracle's habit to
rounding.  Measured: at most 1.6e-16 of the path maximum (0.73 ulp) over
both scenarios, m in {600, 2000}, the closed loop and uniform random
controls.  The bound is 4 ulp of the path maximum.  An oracle that drops
the half weight of c_0 in the windows straddling t = 0 (``_vC[0]``) is
off by eps dt c_0 / 2 at node 0.
"""

from pathlib import Path

import numpy as np
import pytest

from akhabit.cli import load_scenario
from akhabit.oracle import DiscreteProblem
from akhabit.quadrature import window_integrals
from akhabit.simulate import simulate_integral_form

REPO = Path(__file__).resolve().parent.parent

ULPS = 4


def controls(prob, kind, seed):
    if kind == "closed_loop":
        return simulate_integral_form(prob.params, prob.init, prob.T).c
    return np.random.default_rng(seed).uniform(0.0, 2.0, prob.m + 1)


@pytest.mark.parametrize("name", ["baseline", "low_curvature"])
@pytest.mark.parametrize("m", [600, 2000])
@pytest.mark.parametrize("kind, seed", [("closed_loop", None), ("random", 0), ("random", 1)])
def test_the_oracle_habit_is_the_solvers_window(name, m, kind, seed):
    scn = load_scenario(REPO / "scenarios" / f"{name}.yaml")
    prob = DiscreteProblem(scn.params, scn.initial, scn.oracle_horizon, m)
    c = controls(prob, kind, seed)
    oracle_h = prob.habit(c)
    solver_h = scn.params.eps * window_integrals(prob.init.history.values, c, scn.params.eta, prob.dt)
    scale = np.max(np.abs(oracle_h))
    assert np.max(np.abs(oracle_h - solver_h)) <= ULPS * np.finfo(float).eps * scale
