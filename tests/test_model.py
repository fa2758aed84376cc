import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akhabit import (
    DomainError,
    HistoryGrid,
    ModelParams,
    RegimeError,
    habit_of_history,
    validate,
)
from conftest import random_valid_params


class TestValidate:
    def test_baseline_constants(self, params):
        der = validate(params)
        # alpha = (0.04 - 0.25*(-1))/2, Gamma = (0.25 - 0.04)/2
        assert der.alpha == pytest.approx(0.145, abs=1e-15)
        assert der.Gamma == pytest.approx(0.105, abs=1e-15)
        assert der.lambda0 is None

    def test_r_minus_alpha_is_Gamma(self, params):
        der = validate(params)
        assert params.r - der.alpha == pytest.approx(der.Gamma, abs=1e-16)

    def test_finite_value_condition_rejected(self):
        # gamma = 0.5, rho = 0.1, r = 0.25: rho <= r*(1-gamma) = 0.125
        p = ModelParams(eps=0.5, eta=1.0, tau=1.0, A=0.3, delta=0.05, rho=0.1, gamma=0.5)
        with pytest.raises(RegimeError) as err:
            validate(p)
        assert err.value.code == "regime:finite-value"

    def test_growth_regime_rejected_eps_above_eta(self):
        p = ModelParams(eps=1.2, eta=1.0, tau=1.0, A=0.3, delta=0.05, rho=0.04, gamma=2.0)
        with pytest.raises(RegimeError) as err:
            validate(p)
        assert err.value.code == "regime:growth"

    def test_growth_regime_rejected_nonpositive_r(self):
        p = ModelParams(eps=0.5, eta=1.0, tau=1.0, A=0.05, delta=0.05, rho=0.04, gamma=2.0)
        with pytest.raises(RegimeError) as err:
            validate(p)
        assert err.value.code == "regime:growth"

    def test_gamma_one_rejected(self):
        with pytest.raises(DomainError):
            ModelParams(eps=0.5, eta=1.0, tau=1.0, A=0.3, delta=0.05, rho=0.04, gamma=1.0)

    def test_positivity_rejected(self):
        with pytest.raises(DomainError):
            ModelParams(eps=-0.5, eta=1.0, tau=1.0, A=0.3, delta=0.05, rho=0.04, gamma=2.0)
        with pytest.raises(DomainError):
            ModelParams(eps=0.5, eta=1.0, tau=1.0, A=math.nan, delta=0.05, rho=0.04, gamma=2.0)

    @given(
        eps=st.floats(0.01, 5.0),
        eta=st.floats(0.01, 5.0),
        tau=st.floats(0.05, 10.0),
        A=st.floats(-1.0, 1.0),
        delta=st.floats(0.001, 1.0),
        rho=st.floats(0.001, 2.0),
        gamma=st.floats(0.05, 8.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_total_on_finite_inputs(self, eps, eta, tau, A, delta, rho, gamma):
        """Every finite input yields either constants or a named rejection."""
        try:
            p = ModelParams(eps=eps, eta=eta, tau=tau, A=A, delta=delta, rho=rho, gamma=gamma)
        except DomainError:
            return
        try:
            der = validate(p)
        except (RegimeError, DomainError) as exc:
            assert exc.code.startswith(("regime:", "domain:"))
            return
        assert der.alpha > 0.0
        assert der.kappa0 > 0.0
        assert p.r - der.alpha == pytest.approx(der.Gamma, rel=1e-12, abs=1e-15)

    def test_kappa0_positive_in_regime(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            der = validate(random_valid_params(rng))
            assert 0.0 < der.kappa0 < 1.0

    def test_root_slot_filled_later(self, params):
        from akhabit import real_root

        der = validate(params)
        assert der.lambda0 is None
        full = der.with_lambda0(real_root(params))
        assert full.lambda0 == pytest.approx(-2.2564312, rel=1e-6)
        assert full.alpha == der.alpha  # everything else untouched


class TestHistoryGrid:
    def test_grid_and_interp(self):
        hist = HistoryGrid(1.0, np.linspace(0.0, 2.0, 11))
        assert hist.n == 10
        assert hist.dt == pytest.approx(0.1)
        assert hist.interp(-1.0) == pytest.approx(0.0)
        assert hist.interp(-0.55) == pytest.approx(0.9)

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(DomainError):
            HistoryGrid(1.0, np.array([1.0, -0.1, 1.0]))
        with pytest.raises(DomainError):
            HistoryGrid(1.0, np.array([1.0, math.inf, 1.0]))
        with pytest.raises(DomainError):
            HistoryGrid(-1.0, np.ones(5))

    def test_immutability(self):
        hist = HistoryGrid.constant(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            hist.values[0] = 2.0

    def test_resample_preserves_shape(self):
        hist = HistoryGrid.from_callable(lambda u: 1.0 + 0.5 * np.sin(3.0 * u), 1.0, 50)
        fine = hist.resample(200)
        assert fine.n == 200
        assert fine.interp(-0.5) == pytest.approx(hist.interp(-0.5), abs=1e-12)


class TestHabitOfHistory:
    def test_constant_history_closed_form(self):
        # eps = eta = 1, c0 = 1: h0 = integral of e^u over [-1, 0] = 1 - 1/e
        p = ModelParams(eps=1.0, eta=1.0, tau=1.0, A=0.3, delta=0.05, rho=0.04, gamma=2.0)
        hist = HistoryGrid.constant(1.0, tau=1.0, n=1000)
        assert habit_of_history(hist, p) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)

    def test_zero_history(self, params):
        assert habit_of_history(HistoryGrid.zero(1.0, 100), params) == 0.0

    def test_constant_integrand_exact(self):
        # c0(u) = e^{-eta u} makes the integrand identically eps, so h0 = tau
        p = ModelParams(eps=1.0, eta=0.7, tau=1.3, A=0.3, delta=0.05, rho=0.04, gamma=2.0)
        hist = HistoryGrid.from_callable(lambda u: np.exp(-p.eta * u), p.tau, 157)
        assert habit_of_history(hist, p) == pytest.approx(p.tau, rel=1e-13)

    def test_second_order_convergence(self, params):
        exact = params.eps * (1.0 - math.exp(-1.0))  # constant history, eta = 1
        errors = []
        for n in (100, 200, 400):
            hist = HistoryGrid.constant(1.0, tau=1.0, n=n)
            errors.append(abs(habit_of_history(hist, params) - exact))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.15)

    def test_tau_mismatch_rejected(self, params):
        with pytest.raises(DomainError):
            habit_of_history(HistoryGrid.constant(1.0, tau=2.0, n=50), params)


def test_resample_is_computed_once_per_grid():
    hist = HistoryGrid.from_callable(lambda u: 1.0 + 0.5 * np.sin(3.0 * u), 1.0, 50)
    fine = hist.resample(200)
    assert hist.resample(200) is fine
    assert hist.resample(50) is hist
    grid = -1.0 + np.arange(201) * (1.0 / 200)
    assert np.array_equal(fine.values, np.interp(grid, hist.grid, hist.values))
    assert hist.resample(400).n == 400


def test_history_and_initial_state_equality():
    from akhabit import InitialState

    hist = HistoryGrid.from_callable(lambda u: 1.0 + 0.5 * np.sin(u), 1.0, 50)
    same = HistoryGrid(hist.tau, hist.values)
    assert hist == same and not hist != same
    assert hash(hist) == hash(same)
    assert hist != HistoryGrid(2.0, hist.values)
    assert hist != HistoryGrid(hist.tau, hist.values * 2.0)
    assert hist != HistoryGrid(hist.tau, hist.values[:-1])
    assert hist != "not a history"
    assert len({hist, same, hist.resample(50), hist.resample(100)}) == 2
    init = InitialState(10.0, hist)
    assert init == InitialState(10.0, same)
    assert hash(init) == hash(InitialState(10.0, same))
    assert init != InitialState(11.0, same)
    assert init != InitialState(10.0, hist.resample(100))
