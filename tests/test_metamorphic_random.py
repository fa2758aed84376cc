"""Exact 2^j scaling and affinity in k0 of the closed loop, over random in-regime scenarios.

``test_homogeneity.py`` and ``test_affine_k0.py`` pin both properties on
the shipped scenarios; this module draws scenarios from
``test_error_contract.valid_scenarios``.  A draw that the loader
rejects, or on which a solver fails (outside the regime, or c < h on
the path), is assumed away: the properties are about the paths of the
draws that run.

Scaling.  Scaling k0 and the history samples by s = 2^j, j in -3..3,
must scale k, c, h and G of both integrators, Lambda and c_m by s in
every bit.  Two rules of the solvers are not homogeneous: the boundary
test ``lambda_on_boundary`` (|Lambda| <= 1e-10 (1 + k0)) and the
integrators' tolerance ``c_tol`` = 1e-9 (|h0| + |Lambda| + 1) on c >= h.
A draw near either edge may run at one scale and turn degenerate or
fail at the other, so such draws are assumed away too.

Affinity.  With the history fixed, each path P (k, c, h and c - h) is
affine in k0 up to rounding: P(k0) = P(a) + s (P(b) - P(a)) with anchors
a = k0* + 5, b = k0* + 10 and s = (k0 - a)/(b - a), for k0 in
k0* + [0.03, 40].  The gap, relative to the path's largest value, is
bounded by C / min(1, k0 - k0*), as on the shipped scenarios.  The
lambda form integrates capital open loop (k' = r k - c with c set by
Lambda), so a rounding error made at t grows like e^(r (T - t)): its
bound carries a factor e^(max(r, 0) T).  Without it, draws with r T up
to 16 read C = 2.3e-10.  Over about 3,000 draws of this strategy the
largest C read 1.96e-13 for the integral form and 1.28e-14 for the
lambda form; TOL is twice that or more.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from akhabit import simulate
from akhabit.cli import load_scenario
from akhabit.errors import AkHabitError
from akhabit.model import HistoryGrid, InitialState
from test_error_contract import valid_scenarios
from test_homogeneity import outputs

DRAWS = settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
SCALES = st.sampled_from([-3, -2, -1, 1, 2, 3])  # j = 0 is the identity
OFFSETS = st.floats(0.03, 40.0)  # k0 - k0*

FORMS = {"integral": simulate.simulate_integral_form, "lambda": simulate.simulate_lambda_form}
TOL = {"integral": 4e-13, "lambda": 3e-14}


def load(doc, directory):
    """The scenario of ``doc`` on its run grid, or None where the loader rejects it."""
    path = directory / "scn.yaml"
    path.write_text(yaml.safe_dump(doc))
    try:
        scn = load_scenario(path)
    except AkHabitError:
        return None
    return scn, scn.initial.resample(scn.numerics.n)


# -- exact scaling by 2^j ----------------------------------------------------------


def unscaled(doc, j, directory):
    """Names of the outputs that do not scale by 2^j bitwise; None if a scale is rejected or fails."""
    loaded = load(doc, directory)
    if loaded is None:
        return None
    scn, base = loaded
    s = 2.0**j
    scaled = InitialState(s * base.k0, HistoryGrid(base.history.tau, s * base.history.values))
    got = []
    for init in (base, scaled):
        try:
            if simulate.lambda_on_boundary(simulate.lambda_constant(scn.params, init), init.k0):
                return None
            got.append(outputs(scn, init))
        except AkHabitError:
            return None
    reference, result = got
    return [key for key, ref in reference.items() if not np.array_equal(result[key], s * ref)]


@DRAWS
@given(doc=valid_scenarios(), j=SCALES)
def test_random_scenarios_scale_bitwise_by_powers_of_two(tmp_path_factory, doc, j):
    mismatched = unscaled(doc, j, tmp_path_factory.getbasetemp())
    assume(mismatched is not None)
    assert mismatched == []


@DRAWS
@given(doc=valid_scenarios(), j=SCALES)
def test_an_h0_shifted_by_1e_15_breaks_the_scaling(tmp_path_factory, doc, j):
    start = simulate._start

    def shifted(*args):
        parts = start(*args)
        parts[8][0] += 1e-15  # h(0), which both paths start from
        return parts

    with mock.patch.object(simulate, "_start", shifted):
        mismatched = unscaled(doc, j, tmp_path_factory.getbasetemp())
    assume(mismatched is not None)
    assert mismatched


# -- affinity in k0 ----------------------------------------------------------------


def bound(form, params, T, offset):
    growth = math.exp(max(params.r, 0.0) * T) if form == "lambda" else 1.0
    return TOL[form] * growth / min(1.0, offset)


def affine_excess(doc, offset, directory):
    """Per integrator, the largest affine gap over k, c, h and c - h as a multiple of its bound,
    at k0 = k0* + offset; None if the draw is rejected or a path fails."""
    loaded = load(doc, directory)
    if loaded is None:
        return None
    scn, init = loaded
    out = {}
    try:
        k0_star = simulate.initial_capital_threshold(scn.params, init.history)
        k0s = (k0_star + offset, k0_star + 5.0, k0_star + 10.0)
        s = (k0s[0] - k0s[1]) / (k0s[2] - k0s[1])
        for form, integrate in FORMS.items():
            paths = [integrate(scn.params, replace(init, k0=k0), scn.horizon) for k0 in k0s]
            p, a, b = (np.array([x.k, x.c, x.h, x.c - x.h]) for x in paths)
            gap = np.max(np.abs(p - (a + s * (b - a))), axis=1) / np.max(np.abs(p), axis=1)
            out[form] = gap.max() / bound(form, scn.params, scn.horizon, offset)
    except AkHabitError:
        return None
    return out


@DRAWS
@given(doc=valid_scenarios(), offset=OFFSETS)
def test_random_scenarios_are_affine_in_k0(tmp_path_factory, doc, offset):
    excess = affine_excess(doc, offset, tmp_path_factory.getbasetemp())
    assume(excess is not None)
    assert max(excess.values()) <= 1.0, excess


def test_a_lambda_not_affine_in_k0_breaks_the_bound(tmp_path_factory):
    # Lambda scaled by 1 + 1e-9*k0; only the lambda form reads Lambda along its path
    lambda_of = simulate._lambda_of
    excess = []

    def skewed(params, G0, k0):
        return lambda_of(params, G0, k0) * (1.0 + 1e-9 * k0)

    @DRAWS
    @given(doc=valid_scenarios(), offset=OFFSETS)
    def draw(doc, offset):
        with mock.patch.object(simulate, "_lambda_of", skewed):
            got = affine_excess(doc, offset, tmp_path_factory.getbasetemp())
        assume(got is not None)
        excess.append(got["lambda"])

    draw()
    broken = sum(e > 1.0 for e in excess)
    assert broken > len(excess) // 2, (broken, len(excess))
