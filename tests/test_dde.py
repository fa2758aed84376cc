import dataclasses
import math
import warnings

import numpy as np
import pytest

from akhabit import (
    HistoryGrid,
    InitialState,
    ModelParams,
    StepError,
    check_feasibility,
    dominated_capital,
    initial_capital_threshold,
    minimal_consumption,
    real_root,
    simulate_integral_form,
)
from akhabit.quadrature import trap_dot


class TestMinimalConsumption:
    def test_zero_history_stays_zero(self, params):
        cm = minimal_consumption(params, HistoryGrid.zero(1.0, 100), T=4.0)
        assert np.all(cm.values == 0.0)

    def test_starts_at_initial_habit(self, params, history):
        from akhabit import habit_of_history

        cm = minimal_consumption(params, history, T=2.0)
        assert cm.values[0] == pytest.approx(habit_of_history(history, params), rel=1e-14)

    def test_zero_root_constant_history_is_fixed_point(self, zero_root_params):
        # eps * integral of e^{eta u} du = 1 makes c = 1 an exact solution
        hist = HistoryGrid.constant(1.0, tau=zero_root_params.tau, n=200)
        cm = minimal_consumption(zero_root_params, hist, T=8 * zero_root_params.tau)
        assert np.max(np.abs(cm.values - 1.0)) < 1e-4
        late = cm.values[cm.t > 4 * zero_root_params.tau]
        assert np.max(late) - np.min(late) < 2e-5  # flat up to quadrature bias

    def test_growth_rate_matches_real_root(self, params, history):
        lam0 = real_root(params)
        cm = minimal_consumption(params, history, T=6.0)
        sel = (cm.t >= 3.0) & (cm.t <= 5.0)
        slope = np.polyfit(cm.t[sel], np.log(cm.values[sel]), 1)[0]
        assert abs(slope - lam0) < 1e-3

    def test_second_order_convergence(self, params):
        # sup-norm against a fine reference shrinks ~4x per doubling
        ref = minimal_consumption(params, HistoryGrid.constant(1.0, 1.0, 1600), T=4.0)
        errs = []
        for n in (100, 200, 400):
            cm = minimal_consumption(params, HistoryGrid.constant(1.0, 1.0, n), T=4.0)
            stride = 1600 // n
            errs.append(np.max(np.abs(cm.values - ref.values[::stride])))
        assert 3.0 < errs[0] / errs[1] < 5.5
        assert 3.0 < errs[1] / errs[2] < 5.5

    def test_coarse_grid_rejected(self):
        p = ModelParams(eps=500.0, eta=500.0, tau=1.0, A=0.3, delta=0.05, rho=0.04, gamma=2.0)
        with pytest.raises(StepError):
            minimal_consumption(p, HistoryGrid.constant(1.0, 1.0, 2), T=2.0)

    def test_horizon_below_tau_rejected(self, params, history):
        with pytest.raises(ValueError):
            minimal_consumption(params, history, T=0.5)

    def test_nonnegative(self, params):
        rng = np.random.default_rng(2)
        hist = HistoryGrid(1.0, rng.uniform(0.0, 2.0, 201))
        cm = minimal_consumption(params, hist, T=5.0)
        assert np.all(cm.values >= 0.0)


class TestDominatedCapital:
    def test_zero_consumption_pure_exponential(self, params):
        cm = minimal_consumption(params, HistoryGrid.zero(1.0, 100), T=4.0)
        kM = dominated_capital(params, 2.0, cm)
        assert np.allclose(kM.values, 2.0 * np.exp(params.r * kM.t), rtol=1e-14)

    def test_low_capital_crosses_zero(self, params, history):
        cm = minimal_consumption(params, history, T=8.0)
        kM = dominated_capital(params, 0.05, cm)
        assert np.min(kM.values) < 0.0

    def test_differential_consistency(self, params, history):
        # central difference of k^M matches r k^M - c^m at order 2
        errs = []
        for n in (200, 400):
            cm = minimal_consumption(params, history.resample(n), T=4.0)
            kM = dominated_capital(params, 10.0, cm)
            dt = cm.dt
            dk = (kM.values[2:] - kM.values[:-2]) / (2 * dt)
            rhs = params.r * kM.values[1:-1] - cm.values[1:-1]
            # skip the window nodes around the kink at t = tau
            interior = np.abs(cm.t[1:-1] - params.tau) > 2 * dt
            errs.append(np.max(np.abs(dk - rhs)[interior]))
        assert errs[1] < errs[0] / 2.5


class TestFeasibility:
    def test_zero_history_always_feasible(self, params):
        init = InitialState(0.5, HistoryGrid.zero(1.0, 100))
        rep = check_feasibility(params, init)
        assert rep.feasible
        assert rep.slack == pytest.approx(0.5)
        assert rep.discounted_cost == pytest.approx(0.0)

    def test_unstable_kernel_infeasible_for_any_capital(self, unstable_params, history):
        # lambda0 >= r: the minimal plan outgrows capital accumulation
        assert real_root(unstable_params) >= unstable_params.r
        hist = HistoryGrid.constant(1.0, tau=unstable_params.tau, n=100)
        for k0 in (1.0, 1e2, 1e4, 1e6):
            rep = check_feasibility(unstable_params, InitialState(k0, hist))
            assert not rep.feasible
            assert rep.slack == -math.inf

    def test_threshold_matches_cost_quadrature(self, params, history):
        # bisect the verdict flip and compare against the same-grid cost
        # integral over a doubled horizon; their gap is covered by the
        # reported tail bound
        lo, hi = 0.01, 1.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            rep = check_feasibility(params, InitialState(mid, history), T=8.0)
            lo, hi = (mid, hi) if not rep.feasible else (lo, mid)
        threshold = 0.5 * (lo + hi)
        cm = minimal_consumption(params, history, T=16.0)
        cost = trap_dot(np.exp(-params.r * cm.t), cm.values, cm.dt)
        rep = check_feasibility(params, InitialState(10.0, history), T=8.0)
        assert abs(threshold - cost) <= 1.01 * rep.tail_bound + 1e-12

    def test_threshold_equals_lambda_boundary(self, params, history):
        # the excess-consumption boundary path is exactly the minimal plan,
        # whose capital decays to zero iff k0 equals its discounted cost:
        # two very different computations of the same number
        rep = check_feasibility(params, InitialState(10.0, history), T=12.0)
        k_star = initial_capital_threshold(params, history)
        assert rep.discounted_cost == pytest.approx(k_star, rel=1e-5)

    def test_tail_bound_soundness(self, params, history):
        init = InitialState(10.0, history)
        rep1 = check_feasibility(params, init, T=8.0)
        rep2 = check_feasibility(params, init, T=10.0)
        assert abs(rep2.discounted_cost - rep1.discounted_cost) <= rep1.tail_bound * 1.01

    def test_simulated_consumption_dominates_minimal(self, params, init):
        traj = simulate_integral_form(params, init, T=6.0)
        cm = minimal_consumption(params, init.history, T=6.0)
        assert np.all(traj.c - cm.values >= -1e-9)

    def test_short_memory_tail_bound_does_not_overflow(self, params):
        # tau = 1e-3 puts lambda0 near -9900: exp(-lambda0 * t) overflows by
        # t = 0.1 while c_m underflows to 0, and their product used to be
        # nan, which read as infeasible
        short = dataclasses.replace(params, tau=1e-3)
        init = InitialState(10.0, HistoryGrid.constant(1.0, tau=1e-3, n=200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_feasibility(short, init, T=0.1)
        assert rep.lambda0 < -9000.0
        assert math.isfinite(rep.tail_bound) and rep.tail_bound >= 0.0
        assert math.isfinite(rep.slack)
        assert rep.feasible
