import dataclasses
import math

import numpy as np
import pytest

from akhabit import (
    DomainError,
    G_value,
    HistoryGrid,
    MismatchError,
    ModelParams,
    StateSample,
    current_value_hamiltonian,
    feedback,
    hjb_residual,
    validate,
    value_bound_coefficient,
    value_function,
)
from akhabit.hjb import inner_component, state_values
from akhabit.quadrature import exp_weights, trap_dot
from conftest import random_valid_params


def smooth_state(params, rng, n=400, k_lo=4.0, k_hi=20.0):
    """Random smooth positive consumption window with healthy capital."""
    a = rng.uniform(0.3, 1.5)
    b = rng.uniform(-0.5, 0.5)
    w = rng.uniform(1.0, 6.0)
    phase = rng.uniform(0.0, 2 * math.pi)
    amp = rng.uniform(0.0, 0.4) * a
    grid = -params.tau + np.arange(n + 1) * (params.tau / n)
    vals = a + b * grid + amp * np.sin(w * grid + phase)
    vals = np.maximum(vals, 0.05)
    return StateSample(rng.uniform(k_lo, k_hi), HistoryGrid(params.tau, vals))


class TestGValue:
    def test_zero_history_is_kappa0_times_k(self, params):
        der = validate(params)
        state = StateSample(1.0, HistoryGrid.zero(1.0, 200))
        assert G_value(state, params) == pytest.approx(der.kappa0, rel=1e-14)

    def test_no_capital_positive_history_negative(self, params):
        # zero capital removes the dominant term, so the dual-form check
        # needs a finer window to stay inside its 1e-6 band
        state = StateSample(0.0, HistoryGrid.constant(1.0, 1.0, 2000))
        assert G_value(state, params) < 0.0

    def test_constant_history_closed_form(self, params):
        # for a constant window everything integrates in closed form:
        # x1(s) = (eps/eta)(e^{eta s} - e^{-eta tau}),
        # integral of e^{rs} x1 = (eps/eta)[(1-e^{-b tau})/b - e^{-eta tau}(1-e^{-r tau})/r]
        der = validate(params)
        eps, eta, r, tau = params.eps, params.eta, params.r, params.tau
        b = r + eta
        second = (eps / eta) * (
            (1 - math.exp(-b * tau)) / b - math.exp(-eta * tau) * (1 - math.exp(-r * tau)) / r
        )
        expected = der.kappa0 * 10.0 - second
        state = StateSample(10.0, HistoryGrid.constant(1.0, 1.0, 10_000))
        # the dual-form cross-check runs at 1e-8 here: both quadrature routes
        # must sit within 1e-8 relative of each other on this smooth state
        got = G_value(state, params, mismatch_tol=1e-8)
        assert got == pytest.approx(expected, rel=1e-8)

    def test_coarse_grid_mismatch_raises(self, params):
        state = StateSample(10.0, HistoryGrid.constant(1.0, 1.0, 20))
        with pytest.raises(MismatchError):
            G_value(state, params)

    @pytest.mark.parametrize("n", [3, 200, 1000])
    @pytest.mark.parametrize("eta", [1.0, 12.0])
    def test_inner_component_matches_per_node_loop(self, params, n, eta):
        # eta*tau = 12 spreads the weights over five decades
        p = dataclasses.replace(params, eta=eta)
        rng = np.random.default_rng(n)
        past = HistoryGrid(p.tau, 0.5 + rng.random(n + 1))
        dt = past.dt
        w_eta = exp_weights(p.eta, dt, n)
        want = np.empty(n + 1)
        want[0] = 0.0
        for q in range(1, n + 1):
            want[q] = p.eps * trap_dot(w_eta[: q + 1], past.values[n - q :], dt)
        got = inner_component(past, p)
        assert got[0] == 0.0
        np.testing.assert_allclose(got[1:], want[1:], rtol=1e-13, atol=0.0)

    def test_scales_linearly(self, params):
        rng = np.random.default_rng(0)
        state = smooth_state(params, rng)
        G1 = G_value(state, params)
        scaled = StateSample(3.0 * state.k, HistoryGrid(params.tau, 3.0 * state.past_c.values))
        assert G_value(scaled, params) == pytest.approx(3.0 * G1, rel=1e-12)


class TestValueFunction:
    def test_unit_aggregate_gives_nu(self, params):
        der = validate(params)
        state = StateSample(1.0 / der.kappa0, HistoryGrid.zero(1.0, 200))
        assert value_function(state, params) == pytest.approx(der.nu, rel=1e-12)

    def test_nu_negative_for_high_curvature(self, params):
        # gamma = 2: nu = -alpha^{-2}, so the value is negative everywhere
        der = validate(params)
        assert der.nu == pytest.approx(-0.145 ** (-2.0), rel=1e-12)
        rng = np.random.default_rng(1)
        assert value_function(smooth_state(params, rng), params) < 0.0

    def test_outside_region_rejected(self, params):
        state = StateSample(0.0, HistoryGrid.constant(1.0, 1.0, 2000))
        with pytest.raises(DomainError):
            value_function(state, params)

    def test_homogeneity(self, params):
        rng = np.random.default_rng(2)
        for _ in range(20):
            state = smooth_state(params, rng)
            s = rng.uniform(0.5, 3.0)
            scaled = StateSample(s * state.k, HistoryGrid(params.tau, s * state.past_c.values))
            v1 = value_function(state, params)
            assert value_function(scaled, params) == pytest.approx(
                s ** (1.0 - params.gamma) * v1, rel=1e-10
            )
            c1 = feedback(state, params)
            assert feedback(scaled, params) == pytest.approx(s * c1, rel=1e-10)

    def test_bounds_high_curvature(self, params):
        # gamma > 1: M- k^{1-gamma} <= v <= 0 on states with healthy capital
        M = value_bound_coefficient(params)
        assert M < 0.0
        rng = np.random.default_rng(3)
        for _ in range(50):
            state = smooth_state(params, rng, k_lo=6.0, k_hi=30.0)
            v = value_function(state, params)
            assert M * state.k ** (1.0 - params.gamma) <= v <= 0.0

    def test_bounds_low_curvature(self):
        p = ModelParams(eps=0.5, eta=1.0, tau=1.0, A=0.3, delta=0.05, rho=0.2, gamma=0.5)
        M = value_bound_coefficient(p)
        assert M > 0.0
        rng = np.random.default_rng(4)
        for _ in range(50):
            state = smooth_state(p, rng, k_lo=0.5, k_hi=30.0)
            v = value_function(state, p)
            assert 0.0 <= v <= M * state.k ** (1.0 - p.gamma)


class TestFeedback:
    def test_zero_history(self, params):
        der = validate(params)
        state = StateSample(1.0, HistoryGrid.zero(1.0, 200))
        assert feedback(state, params) == pytest.approx(der.alpha * der.kappa0, rel=1e-13)

    def test_consumption_strictly_above_habit(self, params):
        from akhabit import habit_of_history

        rng = np.random.default_rng(5)
        der = validate(params)
        for _ in range(30):
            state = smooth_state(params, rng)
            c = feedback(state, params)
            h = habit_of_history(state.past_c, params)
            G = G_value(state, params)
            assert c - h == pytest.approx(der.alpha * G, rel=1e-12)
            assert c > h

    def test_maximizes_hamiltonian(self, params):
        der = validate(params)
        rng = np.random.default_rng(6)
        for _ in range(20):
            state = smooth_state(params, rng)
            c_star = feedback(state, params)
            delta = 1e-3 * der.alpha * G_value(state, params)
            h_star = current_value_hamiltonian(state, params, c_star)
            assert h_star > current_value_hamiltonian(state, params, c_star + delta)
            assert h_star > current_value_hamiltonian(state, params, c_star - delta)

    def test_hamiltonian_minus_infinity_below_habit(self, params):
        from akhabit import habit_of_history

        state = StateSample(10.0, HistoryGrid.constant(1.0, 1.0, 200))
        h = habit_of_history(state.past_c, params)
        assert current_value_hamiltonian(state, params, 0.5 * h) == -math.inf


class TestHJBResidual:
    def test_defining_identity_of_nu(self, params):
        # rho*nu - nu*[r(1-gamma) + gamma*((1-gamma) nu)^{-1/gamma}] = 0
        der = validate(params)
        gamma = params.gamma
        lhs = params.rho * der.nu
        rhs = der.nu * (
            params.r * (1.0 - gamma) + gamma * ((1.0 - gamma) * der.nu) ** (-1.0 / gamma)
        )
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_residual_small_on_states(self, params):
        rng = np.random.default_rng(7)
        for _ in range(30):
            state = smooth_state(params, rng)
            v = value_function(state, params)
            assert abs(hjb_residual(state, params)) < 1e-8 * abs(params.rho * v)

    def test_residual_small_across_parameter_sets(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            p = random_valid_params(rng)
            state = smooth_state(p, rng, n=800, k_lo=max(4.0, 2.0 / validate(p).kappa0), k_hi=30.0)
            v = value_function(state, p)
            assert abs(hjb_residual(state, p)) < 1e-6 * abs(p.rho * v)

    def test_outside_region_rejected(self, params):
        state = StateSample(0.0, HistoryGrid.constant(1.0, 1.0, 2000))
        with pytest.raises(DomainError):
            hjb_residual(state, params)


class TestStateValues:
    def test_bitwise_the_four_single_evaluations(self, params):
        rng = np.random.default_rng(11)
        for _ in range(6):
            state = smooth_state(params, rng)
            assert state_values(state, params) == {
                "G": G_value(state, params),
                "v": value_function(state, params),
                "c_feedback": feedback(state, params),
                "hjb_residual": hjb_residual(state, params),
            }

    def test_one_G_evaluation(self, params, monkeypatch):
        from akhabit import hjb

        calls = []
        original = hjb.G_value

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(hjb, "G_value", counting)
        state_values(smooth_state(params, np.random.default_rng(12)), params)
        assert len(calls) == 1

    def test_outside_the_value_region_raises_like_value_function(self, params):
        state = StateSample(0.0, HistoryGrid.constant(1.0, params.tau, 1000))
        with pytest.raises(DomainError) as want:
            value_function(state, params)
        with pytest.raises(DomainError) as got:
            state_values(state, params)
        assert str(got.value) == str(want.value)
