"""The oracle's perturbation trials splice habits from an anchor; nothing moves.

``perturbation_test`` anchors the problem at the clipped base control, and
``DiscreteProblem._correlate`` then recomputes only the habit outputs a
candidate's change reaches.  These tests pin that the spliced habit is
bitwise the full correlation, that the trial loop's reports and raised
exceptions are bitwise those of the loop before the splice
(``tests/reference.py``), that the lean ``_score`` agrees with the old one
on its edge cases, and how much correlation work the trials do.
"""

import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest

from akhabit import dde, oracle, simulate
from akhabit.cli import load_scenario
from akhabit.errors import OptimalityViolation
from akhabit.oracle import FEAS_TOL, DiscreteProblem, perturbation_test
from akhabit.quadrature import cumulative_trapezoid

from reference import (
    habit_reference,
    perturbation_test_reference,
    project_feasible_reference,
    score_reference,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ("baseline", "low_curvature")


@functools.cache
def shipped(name, m, gamma=None):
    """A shipped scenario's oracle problem on m steps and its closed loop.

    ``gamma`` overrides the curvature; rho is raised where needed to keep
    the finite-value condition rho > r (1 - gamma).
    """
    scn = load_scenario(ROOT / "scenarios" / f"{name}.yaml")
    params = scn.params
    if gamma is not None:
        params = dataclasses.replace(params, gamma=gamma, rho=max(params.rho, params.r * (1.0 - gamma) + 0.05))
    T = scn.oracle_horizon
    prob = DiscreteProblem(params, scn.initial, T, m)
    return prob, simulate.simulate_integral_form(params, prob.init, T).c


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def spliced(prob, anchor, controls):
    """``_correlate(controls)`` with ``anchor`` and its full habit as the anchor."""
    prob._anchor = (anchor, habit_reference(prob, anchor))
    try:
        return prob._correlate(controls)
    finally:
        prob._anchor = None


@pytest.fixture
def correlated(monkeypatch):
    """The sizes of the outputs each ``np.correlate`` call produces."""
    sizes = []
    real = np.correlate

    def counting(a, v, mode="valid"):
        out = real(a, v, mode=mode)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(np, "correlate", counting)
    return sizes


# -- the spliced habit -----------------------------------------------------------


def changed_ranges(n_tau, m, rng):
    """(lo, hi) pairs of first and last changed node, every lo >= 1."""
    ranges = []
    for lo in (1, n_tau - 1, n_tau, n_tau + 1):
        ranges += [(lo, int(rng.integers(lo, m + 1))), (lo, m), (lo, lo)]
    ranges += [(j, j) for j in rng.integers(1, m + 1, size=6)]
    # outputs lo .. min(hi + n_tau, m) cover the whole grid after node 0
    ranges += [(1, m - n_tau), (1, m - n_tau + 1), (1, m)]
    return ranges


@pytest.mark.parametrize("m", [600, 2000])
@pytest.mark.parametrize("name", SCENARIOS)
def test_spliced_habit_is_the_full_correlation(name, m):
    prob, anchor = shipped(name, m)
    rng = np.random.default_rng(m)
    for lo, hi in changed_ranges(prob.n_tau, m, rng):
        c = anchor.copy()
        c[lo : hi + 1] *= rng.uniform(0.9, 1.1, size=hi + 1 - lo)
        c[lo] = anchor[lo] + 0.01  # the changed range is exactly lo..hi
        c[hi] = anchor[hi] - 0.01
        assert same_bits(spliced(prob, anchor, c), habit_reference(prob, c)), (lo, hi)


@pytest.mark.parametrize("name", SCENARIOS)
def test_splice_recomputes_only_the_reached_outputs(name, correlated):
    prob, anchor = shipped(name, 600)
    n_tau = prob.n_tau
    for lo, hi in [(1, 1), (n_tau, n_tau + 5), (300, 310), (590, 600)]:
        c = anchor.copy()
        c[lo : hi + 1] += 0.01
        correlated.clear()
        h = spliced(prob, anchor, c)
        # the anchor's own full correlation, then outputs lo .. min(hi + n_tau, m)
        assert correlated == [prob.m + 1, min(hi + n_tau, prob.m) + 1 - lo]
        assert same_bits(h, habit_reference(prob, c))


@pytest.mark.parametrize("name", SCENARIOS)
def test_a_change_at_node_0_or_none_correlates_in_full(name, correlated):
    prob, anchor = shipped(name, 600)
    anchor_h = habit_reference(prob, anchor)
    for tail in (None, 0, 1, prob.n_tau, prob.m):
        c = anchor.copy()
        if tail is not None:
            c[0] += 0.01
            c[tail] += 0.01
        prob._anchor = (anchor, anchor_h)
        try:
            correlated.clear()
            h = prob._correlate(c)
        finally:
            prob._anchor = None
        assert correlated == [prob.m + 1]
        assert same_bits(h, habit_reference(prob, c))


@pytest.mark.parametrize(
    "before, after",
    [(0.0, -0.0), (-0.0, 0.0), (math.nan, np.frombuffer(np.int64(0x7FF8000000000001).tobytes())[0])],
    ids=["zero to minus zero", "minus zero to zero", "NaN payload"],
)
def test_bits_not_values_decide_a_change(before, after, correlated):
    prob, anchor = shipped("baseline", 600)
    anchor = anchor.copy()
    anchor[300] = before
    c = anchor.copy()
    c[300] = after
    correlated.clear()
    h = spliced(prob, anchor, c)
    assert correlated[1:] == [prob.n_tau + 1]  # after the anchor's own full correlation
    assert same_bits(h, habit_reference(prob, c))


def test_capital_is_the_old_expression():
    for name in SCENARIOS:
        prob, c = shipped(name, 2000)
        for controls in (c, 1.5 * c, np.where(np.arange(c.size) % 7 == 0, np.nan, c)):
            old = prob.grow_r * (prob.init.k0 - cumulative_trapezoid(prob.disc_r * controls, prob.dt))
            assert same_bits(prob.capital(controls), old)


# -- the trial loop against the loop before the splice ------------------------------


def outcome(fn, *args, **kwargs):
    """A report's fields as bits, or a raised exception's type and message."""
    try:
        report = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return tuple(float(v).hex() if isinstance(v, float) else v for v in dataclasses.astuple(report))


def bases(c):
    """The closed loop, 0.3% above it, and a sinusoid-perturbed copy."""
    return {
        "closed loop": c,
        "1.003 closed loop": 1.003 * c,
        "sinusoid": c * (1.0 + 0.01 * np.sin(np.linspace(0.0, 20.0, c.size))),
    }


@pytest.mark.parametrize("gamma", [0.3, 1.5, 3.0])
@pytest.mark.parametrize("name", SCENARIOS)
def test_reports_match_the_reference(name, gamma):
    prob, c = shipped(name, 600, gamma)
    reports = 0
    for label, base in bases(c).items():
        for seed in range(6):
            got = outcome(perturbation_test, prob, base, trials=40, seed=seed)
            assert got == outcome(perturbation_test_reference, prob, base, trials=40, seed=seed), (label, seed)
            assert prob._anchor is None
            reports += not isinstance(got[0], type)
    assert reports > 0


def test_some_reference_cases_raise():
    prob, c = shipped("baseline", 600, 3.0)
    got = outcome(perturbation_test, prob, 1.003 * c, trials=40, seed=4)
    assert got[0] is OptimalityViolation
    assert got == outcome(perturbation_test_reference, prob, 1.003 * c, trials=40, seed=4)


def spy(monkeypatch):
    """Count projections that change the clipped candidate, and non-finite scores."""
    seen = {"projections": 0, "raised": 0, "non_finite": 0}
    project, evaluate = oracle.project_feasible, oracle.evaluate_objective

    def projecting(problem, controls):
        out = project(problem, controls)
        seen["projections"] += 1
        seen["raised"] += out.tobytes() != np.maximum(controls, 0.0).tobytes()
        return out

    def evaluating(problem, controls):
        J = evaluate(problem, controls)
        seen["non_finite"] += not math.isfinite(J)
        return J

    monkeypatch.setattr(oracle, "project_feasible", projecting)
    monkeypatch.setattr(oracle, "evaluate_objective", evaluating)
    return seen


@pytest.mark.parametrize("name", SCENARIOS)
def test_every_projection_on_the_habit_floor(name, monkeypatch):
    """Zero excess everywhere (gamma < 1): each trial's projection raises nodes."""
    prob, _ = shipped(name, 600, 0.3)
    floor = project_feasible_reference(prob, dde.minimal_consumption(prob.params, prob.init.history, prob.T).values)
    seen = spy(monkeypatch)
    for seed in range(3):
        got = outcome(perturbation_test, prob, floor, trials=20, seed=seed)
        assert got == outcome(perturbation_test_reference, prob, floor, trials=20, seed=seed)
        assert prob._anchor is None
    assert seen["raised"] == seen["projections"] >= 60


@pytest.mark.parametrize("gamma", [0.3, 1.5, 3.0])
@pytest.mark.parametrize("name", SCENARIOS)
def test_halvings_at_the_salvage_edge(name, gamma, monkeypatch):
    """The closed loop scaled up to where J stops being finite, so trials halve their amplitude."""
    prob, c = shipped(name, 600, gamma)
    lo, hi = 1.0, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if math.isfinite(oracle.evaluate_objective(prob, mid * c)) else (lo, mid)
    seen = spy(monkeypatch)
    for seed in range(3):
        got = outcome(perturbation_test, prob, lo * c, trials=20, seed=seed)
        assert got == outcome(perturbation_test_reference, prob, lo * c, trials=20, seed=seed)
    assert seen["non_finite"] > 20


class TestAnchorLifetime:
    def test_cleared_after_a_report(self):
        prob, c = shipped("baseline", 600)
        perturbation_test(prob, c, trials=5, seed=1)
        assert prob._anchor is None

    def test_cleared_after_a_violation(self):
        prob, c = shipped("baseline", 600, 3.0)
        with pytest.raises(OptimalityViolation):
            perturbation_test(prob, 1.003 * c, trials=40, seed=4)
        assert prob._anchor is None

    def test_cleared_when_a_trial_raises(self, monkeypatch):
        prob, c = shipped("baseline", 600)

        def broken(problem, controls):
            raise RuntimeError("planted")

        monkeypatch.setattr(oracle, "project_feasible", broken)
        with pytest.raises(RuntimeError, match="planted"):
            perturbation_test(prob, c, trials=5, seed=1)
        assert prob._anchor is None

    def test_the_ascent_sets_none(self, monkeypatch):
        prob, c = shipped("low_curvature", 600)
        anchors = []
        correlate = prob._correlate
        monkeypatch.setattr(prob, "_correlate", lambda controls: anchors.append(prob._anchor) or correlate(controls))
        start = dde.minimal_consumption(prob.params, prob.init.history, prob.T).values + 0.5
        oracle.projected_ascent(prob, start, iters=5)
        assert anchors and all(a is None for a in anchors)


# -- the lean score on its edge cases ------------------------------------------------


def assert_same_parts(got, want):
    assert got.feasible is want.feasible
    for field in ("J", "running", "salvage", "excess", "habit", "capital"):
        assert same_bits(getattr(got, field), getattr(want, field)), field


def both_scores(prob, controls, h):
    return oracle._score(prob, controls, h), score_reference(prob, controls, h)


class TestLeanScore:
    def test_nan_in_the_controls(self):
        prob, c = shipped("baseline", 600)
        for j in (0, 300, prob.m):
            bad = c.copy()
            bad[j] = math.nan
            got, want = both_scores(prob, bad, habit_reference(prob, bad))
            assert not got.feasible
            assert_same_parts(got, want)

    @pytest.mark.parametrize("gamma, finite", [(3.0, False), (0.3, True)])
    def test_an_exact_zero_excess(self, gamma, finite):
        prob, c = shipped("baseline", 600, gamma)
        h = habit_reference(prob, c).copy()
        for j in (0, 250, prob.m):
            at_zero = h.copy()
            at_zero[j] = c[j]
            got, want = both_scores(prob, c, at_zero)
            assert math.isfinite(got.J) is finite
            assert_same_parts(got, want)

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_a_control_at_minus_tol(self, ulps):
        prob, c = shipped("low_curvature", 600)
        c = c.copy()
        c[200] = 0.0
        tol = FEAS_TOL * max(1.0, float(np.max(np.abs(c))))
        c[200] = np.nextafter(-tol, ulps * math.inf) if ulps else -tol
        h = habit_reference(prob, c).copy()
        h[200] = c[200] - 0.5  # excess stays feasible; only the control sits at the edge
        got, want = both_scores(prob, c, h)
        assert got.feasible is (ulps >= 0)
        assert_same_parts(got, want)

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_capital_at_minus_tol_k0(self, ulps, monkeypatch):
        prob, c = shipped("baseline", 600)
        h = habit_reference(prob, c)
        tol = FEAS_TOL * max(1.0, float(np.max(np.abs(c))))
        edge = -tol * prob.init.k0
        k = prob.capital(c)
        k[300] = np.nextafter(edge, ulps * math.inf) if ulps else edge
        monkeypatch.setattr(prob, "capital", lambda controls: k.copy())
        got, want = both_scores(prob, c, h)
        assert got.feasible is (ulps >= 0)
        assert_same_parts(got, want)


# -- how much correlation the trials do ---------------------------------------------


@pytest.mark.parametrize("name", SCENARIOS)
def test_trials_correlate_under_a_quarter_of_the_grid(name, correlated):
    """100 trials at m = 2000 after the base is scored, as the oracle section runs them.

    Measured: 39,233 outputs on both scenarios, 19.6% of the 100 full
    correlations (200,100 outputs) the trials made before the splice.
    """
    prob, c = shipped(name, 2000)
    prob = DiscreteProblem(prob.params, prob.init, prob.T, prob.m)
    oracle.evaluate_objective(prob, c)
    correlated.clear()
    perturbation_test(prob, c, trials=100, seed=42)
    assert sum(correlated) <= 0.25 * 100 * (prob.m + 1)
