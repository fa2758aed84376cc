"""The solvers are causal: a longer horizon begins with the shorter one's path, bit for bit.

A node's value reads only the history and earlier nodes, and every
vectorised step (block windows, prefix scans, one correlation over the
whole path) forms each output from the same values in the same order
whatever comes after it.  So integrating over [0, 10 tau] must begin
with the [0, 8 tau] result in every bit: each column of both
integrators' trajectories, ``external_residual`` included, and the
minimal plan c_m.  A run's default horizon is 8 tau and the oracle's
10 tau, so one integration to the longer horizon, sliced, could serve
both.  A column scaled by a quantity of the whole horizon, such as
``lambda_check`` divided by its path maximum, breaks it.
"""

from pathlib import Path

import numpy as np
import pytest

from akhabit.cli import load_scenario
from akhabit.dde import minimal_consumption
from akhabit.model import HistoryGrid, InitialState
from akhabit.simulate import simulate_integral_form, simulate_lambda_form

REPO = Path(__file__).resolve().parent.parent

COLUMNS = ("t", "k", "c", "h", "G", "c_minus_h", "lambda_check", "external_residual")
SHORT, LONG = 8, 10  # horizons in memory lengths


def random_history(tau, n, seed=5):
    """A positive history of n + 1 samples drawn uniformly from [0.5, 1.5]."""
    return HistoryGrid(tau, np.random.default_rng(seed).uniform(0.5, 1.5, n + 1))


def cases():
    out = []
    for name in ("baseline", "low_curvature"):
        scn = load_scenario(REPO / "scenarios" / f"{name}.yaml")
        for n in (200, 400):
            out.append(pytest.param(scn.params, scn.initial.resample(n), id=f"{name}-{n}"))
    scn = load_scenario(REPO / "scenarios" / "baseline.yaml")
    init = InitialState(scn.initial.k0, random_history(scn.params.tau, 200))
    out.append(pytest.param(scn.params, init, id="baseline-random-200"))
    return out


def begins_with(long, short):
    return long.size > short.size and long[: short.size].tobytes() == short.tobytes()


@pytest.mark.parametrize("simulate", [simulate_integral_form, simulate_lambda_form])
@pytest.mark.parametrize("params, init", cases())
def test_a_longer_path_begins_with_the_shorter_one(simulate, params, init):
    short = simulate(params, init, SHORT * params.tau)
    long = simulate(params, init, LONG * params.tau)
    assert long.Lambda == short.Lambda
    for col in COLUMNS:
        assert begins_with(getattr(long, col), getattr(short, col)), col


@pytest.mark.parametrize("params, init", cases())
def test_a_longer_minimal_plan_begins_with_the_shorter_one(params, init):
    short = minimal_consumption(params, init.history, SHORT * params.tau)
    long = minimal_consumption(params, init.history, LONG * params.tau)
    assert begins_with(long.t, short.t)
    assert begins_with(long.values, short.values)
