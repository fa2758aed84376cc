"""States with equal G have equal value: the paper's central claim, checked between states.

The dynamic-programming solution gives the value of a state (k0, past
consumption) through G alone.  So four states with the scenario's own G
but different histories (constant 1, constant 2, 1 + 0.5 sin(2 pi u/tau)
and the ramp 1 + (u + tau)/tau), each with k0 = (G - G|k0=0) / kappa0,
must score the same J when their closed loops are scored on the oracle's
grid (T = 10 tau).  No closed form enters the comparison; it tests G's
coefficients kappa0, 1/(r + eta) and w.

The relative spread of J over the four states is discretization error:
``baseline`` 5.85e-7 / 1.46e-7 / 3.66e-8 and ``low_curvature``
2.92e-7 / 7.30e-8 / 1.82e-8 at m = 1000 / 2000 / 4000, 4.0 per doubling.
Choosing k0 with the window weight w (``hjb.habit_weight``) scaled by
1 + 1e-4 lifts the spread at m = 2000 to 1.87e-6 and 9.32e-7, 12.8 times
the clean value.
"""

from pathlib import Path

import numpy as np
import pytest

from akhabit import hjb
from akhabit.cli import load_scenario
from akhabit.model import HistoryGrid, InitialState, validate
from akhabit.oracle import DiscreteProblem, evaluate_objective
from akhabit.simulate import simulate_integral_form

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SPREAD_AT_2000 = 3e-7


def histories(tau):
    return (
        lambda u: np.full_like(u, 1.0),
        lambda u: np.full_like(u, 2.0),
        lambda u: 1.0 + 0.5 * np.sin(2.0 * np.pi * u / tau),
        lambda u: 1.0 + (u + tau) / tau,
    )


def equal_G_states(scn, n_tau):
    """The four states with the scenario's G, histories sampled n_tau per tau."""
    p = scn.params
    G = hjb.aggregate(scn.initial.k0, scn.initial.history, p)
    states = []
    for f in histories(p.tau):
        history = HistoryGrid.from_callable(f, p.tau, n_tau)
        states.append(InitialState((G - hjb.aggregate(0.0, history, p)) / validate(p).kappa0, history))
    return states


def spread(states, scn, m):
    """Relative spread of the closed-loop J over the states on the oracle grid with m steps."""
    T = 10.0 * scn.params.tau
    J = []
    for state in states:
        prob = DiscreteProblem(scn.params, state, T, m)
        J.append(evaluate_objective(prob, simulate_integral_form(scn.params, prob.init, T).c))
    J = np.array(J)
    return (J.max() - J.min()) / abs(J.mean())


@pytest.mark.parametrize("name", ["baseline", "low_curvature"])
def test_equal_G_states_have_equal_value(name):
    scn = load_scenario(SCENARIOS / f"{name}.yaml")
    spreads = [spread(equal_G_states(scn, m // 10), scn, m) for m in (1000, 2000, 4000)]
    for coarse, fine in zip(spreads, spreads[1:]):
        assert 3.5 <= coarse / fine <= 4.5
    assert spreads[1] <= SPREAD_AT_2000


@pytest.mark.parametrize("name", ["baseline", "low_curvature"])
def test_a_skewed_window_weight_breaks_the_bound(name, monkeypatch):
    scn = load_scenario(SCENARIOS / f"{name}.yaml")
    habit_weight = hjb.habit_weight
    with monkeypatch.context() as patch:
        patch.setattr(hjb, "habit_weight", lambda params: habit_weight(params) * (1.0 + 1e-4))
        states = equal_G_states(scn, 200)
    assert spread(states, scn, 2000) > SPREAD_AT_2000
