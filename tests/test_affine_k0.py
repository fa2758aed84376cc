"""The closed loop is affine in k0: two paths give every other one.

With the history fixed, G(0) is affine in k0 and the policy
c = h + alpha*G is linear in the state, so on a fixed grid each path P
(k, c, h and the excess c - h) is affine in k0 up to rounding:
P(k0) = P(5) + s*(P(10) - P(5)) with s = (k0 - 5)/5.  Measured on both
shipped scenarios at their own n and horizon, relative to the path's
largest value: at most 7.7e-14 for the integral form and 1.1e-14 for
the lambda form at k0 in {1, 20, 40}.

Near the threshold k0* (0.1716 on ``baseline``, 0.1463 on
``low_curvature``) Lambda, and with it the excess, shrinks like
k0 - k0* while the rounding of the combination keeps the scale of P(5)
and P(10).  At k0 = 0.2 the gap reads 9e-13 in k and 2.7e-12 in c - h,
so the bound is TOL / min(1, k0 - k0*).  A G(0), and so a Lambda,
scaled by 1 + 1e-9*k0, which is not affine, breaks it.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from akhabit import simulate
from akhabit.cli import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

FORMS = {"integral": simulate.simulate_integral_form, "lambda": simulate.simulate_lambda_form}
TOL = {"integral": 2e-13, "lambda": 3e-14}
K0S = (0.2, 1.0, 20.0, 40.0)


def affine_gaps(name, form):
    """(k0, k0*, gaps in k, c, h and c - h relative to the path's max) for each k0 in K0S."""
    scn = load_scenario(SCENARIOS / f"{name}.yaml")
    k0_star = simulate.initial_capital_threshold(scn.params, scn.initial.history)

    def columns(k0):
        path = FORMS[form](scn.params, replace(scn.initial, k0=k0), scn.horizon)
        return np.array([path.k, path.c, path.h, path.c - path.h])

    a, b = columns(5.0), columns(10.0)
    out = []
    for k0 in K0S:
        p = columns(k0)
        s = (k0 - 5.0) / 5.0
        gap = np.max(np.abs(p - (a + s * (b - a))), axis=1) / np.max(np.abs(p), axis=1)
        out.append((k0, k0_star, gap))
    return out


def bound(form, k0, k0_star):
    return TOL[form] / min(1.0, k0 - k0_star)


@pytest.mark.parametrize("name", ["baseline", "low_curvature"])
@pytest.mark.parametrize("form", list(FORMS))
def test_paths_are_affine_in_k0(name, form):
    for k0, k0_star, gap in affine_gaps(name, form):
        assert np.all(gap <= bound(form, k0, k0_star)), (k0, gap)


@pytest.mark.parametrize("form", list(FORMS))
def test_a_lambda_not_affine_in_k0_breaks_the_bound(form, monkeypatch):
    # G(0), and with it Lambda = alpha*G(0), scaled by 1 + 1e-9*k0
    aggregate_of = simulate.aggregate_of
    monkeypatch.setattr(
        simulate, "aggregate_of", lambda k, h, W, params: aggregate_of(k, h, W, params) * (1.0 + 1e-9 * k)
    )
    gaps = affine_gaps("baseline", form)
    assert all(np.any(gap > bound(form, k0, k0_star)) for k0, k0_star, gap in gaps)
