"""Time consistency of both integrators, over random in-regime scenarios.

``test_time_consistency.py`` and ``test_lambda_restart.py`` pin the
restarts on the shipped scenarios; this module draws scenarios from
``test_error_contract.valid_scenarios``.  A draw that the loader
rejects, on which a solver fails, or whose Lambda sits on
``lambda_on_boundary`` is assumed away, and so is a t1 at or past the
horizon.  Each integrator is restarted at t1 in {tau, 3 tau} from its
own state (k(t1), c on [t1 - tau, t1]) on the run grid, and the
restart's tail is compared with the path's in k, c and h, relative to
the tail's maximum.

The integral form's policy reads only that state, so its tail is
reproduced to rounding: over about 500 draws the largest gap read
6.6e-15 (the shipped scenarios read 1.1e-14 at n = 800), and a W(0)
scaled by 1 + 1e-6 in ``simulate._start`` moved it by 1.2e-13 at
least.  INTEGRAL_TOL lies between.

The lambda form's state carries the scheme's O(dt^2) error, and the
restart computes its own Lambda from it.  Its capital runs open loop
(k' = r k - c with c set by Lambda), so an error in k at t1 grows like
e^(r (T - t1)) against a path growing like e^(Gamma (T - t1)): the gap
is bounded by LAMBDA_TOL (tau/n)^2 e^(alpha (T - t1)), alpha = r - Gamma.
The same growth makes long horizons a resolution limit
(``test_long_horizon.py``).  Over those draws the gap read up to 0.77
in these units, and up to 190 without the e^(alpha (T - t1)) factor.
A restart that keeps the original Lambda drops the growth e^(Gamma t1)
from the excess.  It breaks the bound on most draws (415 of those 498,
36 of this module's 50), all but those where Gamma t1 is small or the
grid coarse (n = 2).
"""

import math
from unittest import mock

import numpy as np
import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from akhabit import simulate
from akhabit.cli import load_scenario
from akhabit.errors import AkHabitError
from akhabit.model import HistoryGrid, InitialState, validate
from test_error_contract import valid_scenarios

DRAWS = settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
RESTARTS = st.sampled_from([1, 3])  # t1 in memory lengths

INTEGRAL_TOL = 3e-14
LAMBDA_TOL = 1.5


def tail_gaps(doc, t1_in_tau, directory):
    """Per integrator, the restart's tail gap over its bound; None where the draw is assumed away."""
    path = directory / "scn.yaml"
    path.write_text(yaml.safe_dump(doc))
    try:
        scn = load_scenario(path)
        p = scn.params
        init = scn.initial.resample(scn.numerics.n)
        n, T = init.history.n, scn.horizon
        j1 = t1_in_tau * n
        if simulate.lambda_on_boundary(simulate.lambda_constant(p, init), init.k0):
            return None
        out = {}
        for form, integrate in (("integral", simulate.simulate_integral_form), ("lambda", simulate.simulate_lambda_form)):
            full = integrate(p, init, T)
            if j1 >= len(full.t) - 1:
                return None
            state = InitialState(float(full.k[j1]), HistoryGrid(p.tau, full.c[j1 - n : j1 + 1]))
            rest = integrate(p, state, T - full.t[j1])
            assert len(rest.t) == len(full.t) - j1
            out[form] = max(
                np.max(np.abs(a[j1:] - b)) / np.max(np.abs(a[j1:]))
                for a, b in ((full.k, rest.k), (full.c, rest.c), (full.h, rest.h))
            )
    except AkHabitError:
        return None
    growth = math.exp(validate(p).alpha * (T - full.t[j1]))
    return {"integral": out["integral"] / INTEGRAL_TOL, "lambda": out["lambda"] / (LAMBDA_TOL * (p.tau / n) ** 2 * growth)}


@DRAWS
@given(doc=valid_scenarios(), t1_in_tau=RESTARTS)
def test_random_restarts_reproduce_the_tail(tmp_path_factory, doc, t1_in_tau):
    excess = tail_gaps(doc, t1_in_tau, tmp_path_factory.getbasetemp())
    assume(excess is not None)
    assert max(excess.values()) <= 1.0, excess


def planted(patch, form, tmp_path_factory):
    """The restart tail gaps of ``form`` over their bound, each draw that runs under a fresh ``patch()``."""
    excess = []

    @DRAWS
    @given(doc=valid_scenarios(), t1_in_tau=RESTARTS)
    def draw(doc, t1_in_tau):
        with patch():
            got = tail_gaps(doc, t1_in_tau, tmp_path_factory.getbasetemp())
        assume(got is not None)
        excess.append(got[form])

    draw()
    return np.array(excess)


def test_a_w0_scaled_by_1e_6_breaks_the_integral_bound(tmp_path_factory):
    functionals = simulate._window_functionals

    def scaled(history, params):
        h0, W0 = functionals(history, params)
        return h0, W0 * (1.0 + 1e-6)

    excess = planted(lambda: mock.patch.object(simulate, "_window_functionals", scaled), "integral", tmp_path_factory)
    assert np.all(excess > 1.0), excess


def keep_lambda():
    """A patch under which every Lambda is the first one computed: the path's, for its restart too."""
    lambda_of, first = simulate._lambda_of, []

    def kept(params, G0, k0):
        if not first:
            first.append(lambda_of(params, G0, k0))
        return first[0]

    return mock.patch.object(simulate, "_lambda_of", kept)


def test_a_restart_that_keeps_lambda_breaks_the_lambda_bound(tmp_path_factory):
    excess = planted(keep_lambda, "lambda", tmp_path_factory)
    broken = int(np.sum(excess > 1.0))
    assert broken > len(excess) // 2, (broken, len(excess))
