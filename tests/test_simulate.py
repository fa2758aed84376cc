import numpy as np
import pytest

from akhabit import (
    CoarseGridError,
    ConstraintError,
    HistoryGrid,
    InitialState,
    ModelParams,
    check_feasibility,
    external_policy_residual,
    external_residual_profile,
    initial_capital_threshold,
    invariant_monitor,
    lambda_constant,
    simulate_integral_form,
    simulate_lambda_form,
    validate,
)
from akhabit.simulate import CSV_CHUNK, write_csv


def rel_sup(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(a))


class TestLambdaConstant:
    def test_zero_history(self, params):
        der = validate(params)
        init = InitialState(3.0, HistoryGrid.zero(1.0, 200))
        assert lambda_constant(params, init) == pytest.approx(
            der.alpha * der.kappa0 * 3.0, rel=1e-13
        )

    def test_vanishes_at_threshold(self, params, history):
        k_star = initial_capital_threshold(params, history)
        lam = lambda_constant(params, InitialState(k_star, history))
        assert abs(lam) < 1e-14 * (1.0 + k_star)

    def test_long_memory_equal_rates_threshold(self):
        # eps = eta and tau >> 1/eta: the capital threshold collapses to h0/r
        p = ModelParams(eps=1.0, eta=1.0, tau=50.0, A=0.3, delta=0.05, rho=0.04, gamma=2.0)
        hist = HistoryGrid.constant(1.0, tau=50.0, n=2000)
        from akhabit import habit_of_history

        h0 = habit_of_history(hist, p)
        assert initial_capital_threshold(p, hist) == pytest.approx(h0 / p.r, rel=1e-12)

    def test_baseline_value(self, params, init):
        # alpha * G(0) with G(0) ~ 7.0234 for the baseline data
        assert lambda_constant(params, init) == pytest.approx(1.0183886, rel=1e-6)


class TestIntegralForm:
    def test_initial_conditions(self, params, init):
        from akhabit import habit_of_history

        traj = simulate_integral_form(params, init, T=2.0)
        assert traj.k[0] == init.k0
        assert traj.h[0] == pytest.approx(habit_of_history(init.history, params), rel=1e-14)
        assert traj.c[0] - traj.h[0] == pytest.approx(traj.Lambda, rel=1e-12)

    def test_zero_history_start(self, params):
        der = validate(params)
        init = InitialState(1.0, HistoryGrid.zero(1.0, 200))
        traj = simulate_integral_form(params, init, T=4.0)
        assert traj.c[0] == pytest.approx(der.alpha * der.kappa0, rel=1e-12)
        mon = invariant_monitor(traj, params, init)
        assert mon.g_drift_max < 1e-5
        assert np.all(traj.c > traj.h)
        assert np.all(traj.h >= 0.0)

    def test_positivity_persistence(self, params, init):
        traj = simulate_integral_form(params, init, T=8.0)
        assert np.all(traj.c > traj.h)
        assert np.all(traj.h > 0.0)
        assert np.all(traj.k > 0.0)

    def test_constraint_error_below_threshold(self, params, history):
        k_star = initial_capital_threshold(params, history)
        with pytest.raises(ConstraintError):
            simulate_integral_form(params, InitialState(0.9 * k_star, history), T=2.0)

    def test_coarse_grid_error(self):
        p = ModelParams(eps=400.0, eta=400.0, tau=1.0, A=0.3, delta=0.05, rho=0.04, gamma=2.0)
        hist = HistoryGrid.constant(1.0, tau=1.0, n=3)
        with pytest.raises((CoarseGridError, ConstraintError)):
            simulate_integral_form(p, InitialState(10.0, hist), T=2.0)

    def test_degenerate_boundary_flagged(self, params, history):
        k_star = initial_capital_threshold(params, history)
        with pytest.warns(UserWarning, match="pinned to the habit"):
            traj = simulate_integral_form(params, InitialState(k_star, history), T=3.0)
        assert traj.degenerate
        # consumption rides the habit up to the drift of the zero aggregate
        assert np.max(np.abs(traj.c - traj.h)) < 1e-6


class TestCrossMethod:
    def test_trajectories_agree(self, params, init):
        t1 = simulate_integral_form(params, init, T=8.0, n=200)
        t2 = simulate_lambda_form(params, init, T=8.0, n=200)
        assert rel_sup(t1.k, t2.k) < 1e-4
        assert rel_sup(t1.c, t2.c) < 1e-4
        assert rel_sup(t1.h, t2.h) < 1e-4

    def test_lambda_form_habit_matches_quadrature_start(self, params, init):
        from akhabit import habit_of_history

        traj = simulate_lambda_form(params, init, T=2.0)
        assert traj.h[0] == pytest.approx(habit_of_history(init.history, params), rel=1e-14)

    def test_agreement_tightens_with_resolution(self, params, init):
        gaps = []
        for n in (100, 200):
            t1 = simulate_integral_form(params, init, T=4.0, n=n)
            t2 = simulate_lambda_form(params, init, T=4.0, n=n)
            gaps.append(rel_sup(t1.c, t2.c))
        assert gaps[1] < gaps[0] / 2.5


class TestInvariants:
    def test_g_drift_shrinks_fourfold(self, params, init):
        drifts = []
        for n in (400, 800):
            traj = simulate_integral_form(params, init, T=8.0, n=n)
            drifts.append(invariant_monitor(traj, params, init).g_drift_max)
        assert drifts[0] < 2.5e-5
        assert 2.5 < drifts[0] / drifts[1] < 6.0

    def test_lambda_law(self, params, init):
        traj = simulate_integral_form(params, init, T=8.0, n=200)
        assert np.max(traj.lambda_check) < 1e-4

    def test_balanced_growth_rates(self, params, init):
        der = validate(params)
        traj = simulate_integral_form(params, init, T=8.0)
        sel = traj.t >= traj.t[-1] - 2.0
        for series in (traj.c, traj.h, traj.k):
            slope = np.polyfit(traj.t[sel], np.log(series[sel]), 1)[0]
            assert abs(slope - der.Gamma) < 1e-3

    def test_stationary_aggregate_when_rho_equals_r(self, history):
        p = ModelParams(eps=0.5, eta=1.0, tau=1.0, A=0.3, delta=0.05, rho=0.25, gamma=2.0)
        assert validate(p).Gamma == 0.0
        init = InitialState(10.0, history)
        traj = simulate_integral_form(p, init, T=8.0)
        assert (np.max(traj.G) - np.min(traj.G)) / traj.G[0] < 1e-5

    def test_stable_next_to_excluded_curvature(self, history):
        # gamma = 1 is rejected, but the formulas stay well-behaved on
        # both sides of it even as the value scale blows up
        from akhabit import StateSample, hjb_residual, value_function

        init = InitialState(10.0, history)
        for gamma in (0.99, 1.01):
            p = ModelParams(eps=0.5, eta=1.0, tau=1.0, A=0.3, delta=0.05, rho=0.3, gamma=gamma)
            traj = simulate_integral_form(p, init, T=8.0)
            mon = invariant_monitor(traj, p, init)
            assert mon.g_drift_max < 1e-4
            assert mon.budget_residual < 1e-6
            state = StateSample(10.0, history)
            v = value_function(state, p)
            assert abs(hjb_residual(state, p)) < 1e-10 * abs(p.rho * v)

    def test_budget_identity(self, params, init):
        for sim in (simulate_integral_form, simulate_lambda_form):
            traj = sim(params, init, T=8.0, n=200)
            mon = invariant_monitor(traj, params, init)
            assert mon.budget_residual < 1e-6

    def test_consumption_dominates_minimal_plan(self, params, init):
        traj = simulate_integral_form(params, init, T=8.0)
        mon = invariant_monitor(traj, params, init)
        assert mon.cm_margin_min > -1e-9


class TestExternalEquivalence:
    def test_residual_at_quadrature_floor(self, params, init):
        traj = simulate_integral_form(params, init, T=8.0, n=400)
        assert external_policy_residual(traj, params) < 1e-6

    def test_zero_history_residual(self, params):
        init = InitialState(1.0, HistoryGrid.zero(1.0, 200))
        traj = simulate_integral_form(params, init, T=4.0)
        assert external_policy_residual(traj, params) < 1e-9

    def test_lambda_form_residual_small(self, params, init):
        traj = simulate_lambda_form(params, init, T=8.0, n=400)
        assert external_policy_residual(traj, params) < 1e-4

    def test_bump_detector(self, params, init):
        from dataclasses import replace

        traj = simulate_integral_form(params, init, T=8.0, n=400)
        bumped_c = traj.c.copy()
        j = len(bumped_c) // 2
        bumped_c[j] *= 1.01
        bumped = replace(traj, c=bumped_c)
        profile = external_residual_profile(bumped, params)
        assert profile[j] >= 1e-3


class TestExternalResidualOnRead:
    def test_lambda_form_computes_it_when_first_read(self, params, init):
        traj = simulate_lambda_form(params, init, T=8.0, n=400)
        assert "external_residual" not in vars(traj)
        assert np.array_equal(traj.external_residual, external_residual_profile(traj, params))
        assert traj.external_residual is traj.external_residual

    def test_integral_form_computes_it_with_the_path(self, params, init):
        traj = simulate_integral_form(params, init, T=8.0, n=400)
        assert "external_residual" in vars(traj)
        assert np.array_equal(traj.external_residual, external_residual_profile(traj, params))


class TestTrajectoryOutput:
    def test_csv_format(self, params, init, tmp_path):
        traj = simulate_integral_form(params, init, T=2.0)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,k,c,h,G,c_minus_h,lambda_check,external_residual"
        assert len(lines) == len(traj.t) + 1
        row = lines[1].split(",")
        assert float(row[1]) == traj.k[0]
        # 17 significant digits survive the round trip
        back = np.array([float(x) for x in lines[5].split(",")])
        assert back[2] == traj.c[4]

    def test_write_csv_matches_per_row_format(self, tmp_path):
        # the chunked row template must write exactly what formatting each
        # value with f"{x:.17g}" did, including signed zeros, infinities,
        # nan, subnormals and extreme magnitudes, across a partial chunk
        rows = 2 * CSV_CHUNK + 37
        rng = np.random.default_rng(3)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1e300, -1e-300, 1.0 / 3.0]
        columns = []
        for i in range(3):
            col = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
            col[i : i + len(special)] = special
            columns.append(col)
        columns.append(np.arange(rows) * 0.1)
        header = "a,b,c,t"
        new = tmp_path / "new.csv"
        write_csv(new, header, tuple(columns))
        old = tmp_path / "old.csv"
        with open(old, "w", newline="") as fh:
            fh.write(header + "\n")
            for row in zip(*columns):
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
        assert new.read_bytes() == old.read_bytes()


class TestSharedMinimalPlan:
    def test_monitor_with_shared_cm_is_identical(self, params, init):
        traj = simulate_integral_form(params, init, T=8.0)
        cm = check_feasibility(params, init, T=8.0).cm
        shared = invariant_monitor(traj, params, init, cm=cm)
        own = invariant_monitor(traj, params, init)
        assert shared.cm_margin_min == own.cm_margin_min
        assert shared.budget_residual == own.budget_residual
        assert np.array_equal(shared.g_drift, own.g_drift)
