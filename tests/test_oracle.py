import math

import numpy as np
import pytest
from scipy.integrate import quad

from akhabit import (
    DiscreteProblem,
    HistoryGrid,
    InitialState,
    ModelParams,
    NonConvergence,
    OptimalityViolation,
    StateSample,
    evaluate_objective,
    minimal_consumption,
    objective_breakdown,
    perturbation_test,
    projected_ascent,
    simulate_integral_form,
    value_function,
)
from akhabit import oracle
from akhabit.oracle import (
    ObjectiveParts,
    fd_gradient,
    gradient,
    project_feasible,
)
from reference import fd_gradient_naive


@pytest.fixture(scope="module")
def problem(params, init):
    return DiscreteProblem(params, init, T=10.0, m=2000)


@pytest.fixture(scope="module")
def closed_loop(params, init):
    return simulate_integral_form(params, init, T=10.0, n=200).c


@pytest.fixture(scope="module")
def small_problem(params):
    hist = HistoryGrid.constant(1.0, tau=1.0, n=25)
    return DiscreteProblem(params, InitialState(10.0, hist), T=3.0, m=75)


class TestObjective:
    def test_closed_loop_is_finite_and_feasible(self, problem, closed_loop):
        parts = objective_breakdown(problem, closed_loop)
        assert parts.feasible
        assert math.isfinite(parts.J)
        assert parts.J == parts.running + parts.salvage

    def test_habit_matches_simulator(self, problem, params, init, closed_loop):
        traj = simulate_integral_form(params, init, T=10.0, n=200)
        assert np.max(np.abs(problem.habit(closed_loop) - traj.h)) < 1e-12

    def test_value_match(self, problem, params, init, closed_loop):
        J = evaluate_objective(problem, closed_loop)
        v0 = value_function(StateSample(init.k0, init.history), params)
        assert abs(J - v0) / abs(v0) < 1e-3

    def test_constraint_sentinel(self, problem, closed_loop):
        bad = closed_loop.copy()
        bad[100] = problem.habit(closed_loop)[100] - 0.1
        assert evaluate_objective(problem, bad) == -math.inf
        bad = closed_loop.copy()
        bad[0] = -0.5
        assert evaluate_objective(problem, bad) == -math.inf

    def test_capital_exhaustion_sentinel(self, problem, closed_loop):
        assert evaluate_objective(problem, closed_loop + 50.0) == -math.inf

    def test_deterministic(self, problem, closed_loop):
        assert evaluate_objective(problem, closed_loop) == evaluate_objective(
            problem, closed_loop
        )

    def test_minimal_plus_constant_running_utility(self, params, init, problem):
        # c = c_m + a has excess a * sigma(t) with
        # sigma(t) = 1 - eps*(1 - e^{-eta*min(t,tau)})/eta, independently of c_m
        a = 0.5
        cm = minimal_consumption(params, init.history, T=10.0)
        parts = objective_breakdown(problem, cm.values + a)
        gamma, eps, eta, rho = params.gamma, params.eps, params.eta, params.rho

        def sigma(t):
            return 1.0 - eps * (1.0 - math.exp(-eta * min(t, params.tau))) / eta

        expected, _ = quad(
            lambda t: math.exp(-rho * t) * (a * sigma(t)) ** (1 - gamma) / (1 - gamma),
            0.0,
            10.0,
            points=[params.tau],
            limit=200,
        )
        assert parts.running == pytest.approx(expected, rel=2e-3)
        assert parts.J < evaluate_objective(problem, simulate_integral_form(
            params, init, T=10.0, n=200).c)

    def test_concavity_along_segments(self, problem, closed_loop):
        rng = np.random.default_rng(9)
        t = problem.t
        for _ in range(10):
            b1 = 0.2 * np.sin(rng.uniform(1, 4) * t + rng.uniform(0, 6.28))
            b2 = 0.2 * np.sin(rng.uniform(1, 4) * t + rng.uniform(0, 6.28))
            u1 = project_feasible(problem, closed_loop + b1)
            u2 = project_feasible(problem, closed_loop + b2)
            theta = rng.uniform(0.2, 0.8)
            mix = theta * u1 + (1 - theta) * u2
            J_mix = evaluate_objective(problem, mix)
            bound = theta * evaluate_objective(problem, u1) + (1 - theta) * evaluate_objective(
                problem, u2
            )
            assert J_mix >= bound - 1e-9 * abs(bound)

    def test_salvage_resolution_trend(self, params, init):
        # truncation bias shrinks as the grid refines
        values = []
        for m in (500, 1000, 2000):
            prob = DiscreteProblem(params, init, T=10.0, m=m)
            c = simulate_integral_form(params, init, T=10.0, n=m // 10).c
            values.append(evaluate_objective(prob, c))
        assert abs(values[2] - values[1]) < abs(values[1] - values[0])


class TestGradient:
    def test_incremental_matches_naive(self, small_problem, params):
        traj = simulate_integral_form(
            params, InitialState(10.0, HistoryGrid.constant(1.0, 1.0, 25)), T=3.0, n=25
        )
        J = abs(evaluate_objective(small_problem, traj.c))
        for fdh in (1e-6, 1e-7):
            fast = fd_gradient(small_problem, traj.c, fdh=fdh)
            naive = fd_gradient_naive(small_problem, traj.c, fdh=fdh)
            # the naive route differences two O(J) numbers, so its own
            # rounding floor grows like eps*J/fdh
            floor = 100 * np.finfo(float).eps * J / fdh
            assert np.max(np.abs(fast - naive)) < max(1e-9, floor)

    def test_incremental_matches_naive_off_optimum(self, small_problem):
        rng = np.random.default_rng(1)
        c = project_feasible(small_problem, 0.8 + 0.3 * rng.uniform(size=76))
        fast = fd_gradient(small_problem, c, fdh=1e-6)
        naive = fd_gradient_naive(small_problem, c, fdh=1e-6)
        assert np.max(np.abs(fast - naive)) < 1e-7 * max(1.0, np.max(np.abs(naive)))

    def test_near_stationary_at_closed_loop(self, problem, closed_loop):
        g = fd_gradient(problem, closed_loop)
        assert np.max(np.abs(g)) < 1e-4


class TestProjection:
    def test_closed_loop_unchanged(self, problem, closed_loop):
        assert np.array_equal(project_feasible(problem, closed_loop), closed_loop)

    def test_restores_habit_floor(self, problem):
        c = np.zeros(problem.m + 1)
        proj = project_feasible(problem, c)
        h = problem.habit(proj)
        assert np.all(proj - h >= -1e-12)
        # with a positive history the floor is strictly positive early on
        assert proj[0] > 0.0


class TestPerturbations:
    def test_no_improvement_at_optimum(self, problem, closed_loop):
        report = perturbation_test(problem, closed_loop, trials=100, seed=42)
        assert report.improving == 0
        assert report.max_gain <= report.tolerance

    def test_seed_reproducibility(self, problem, closed_loop):
        r1 = perturbation_test(problem, closed_loop, trials=20, seed=7)
        r2 = perturbation_test(problem, closed_loop, trials=20, seed=7)
        assert r1.max_gain == r2.max_gain

    def test_suboptimal_base_caught(self, problem, closed_loop):
        with pytest.raises(OptimalityViolation):
            perturbation_test(problem, 1.01 * closed_loop, trials=100, seed=42)

    def test_infeasible_base_rejected(self, problem, closed_loop):
        with pytest.raises(ValueError):
            perturbation_test(problem, 0.0 * closed_loop, trials=3)


class TestAscent:
    def test_converges_from_minimal_plan(self, params, init):
        prob = DiscreteProblem(params, init, T=6.0, m=600)
        traj = simulate_integral_form(params, init, T=6.0, n=100)
        J_cl = evaluate_objective(prob, traj.c)
        cm = minimal_consumption(params, init.history, T=6.0, n=100)
        res = projected_ascent(prob, cm.values + 0.5, iters=600)
        assert abs(res.J - J_cl) / abs(J_cl) < 1e-4
        # recovered controls track the closed loop away from the horizon end
        cut = len(traj.c) - 100
        assert np.max(np.abs(res.controls[:cut] - traj.c[:cut])) < 1e-2

    def test_stationary_start_stays_put(self, params, init):
        prob = DiscreteProblem(params, init, T=6.0, m=600)
        traj = simulate_integral_form(params, init, T=6.0, n=100)
        J_cl = evaluate_objective(prob, traj.c)
        res = projected_ascent(prob, traj.c, iters=50)
        assert res.J >= J_cl - 1e-12 * abs(J_cl)
        assert abs(res.J - J_cl) < 1e-6 * abs(J_cl)

    def test_high_curvature_case(self, history):
        p = ModelParams(eps=0.5, eta=1.0, tau=1.0, A=0.3, delta=0.05, rho=0.04, gamma=4.0)
        init4 = InitialState(10.0, history)
        prob = DiscreteProblem(p, init4, T=6.0, m=600)
        traj = simulate_integral_form(p, init4, T=6.0, n=100)
        J_cl = evaluate_objective(prob, traj.c)
        cm = minimal_consumption(p, init4.history, T=6.0, n=100)
        res = projected_ascent(prob, cm.values + 0.5, iters=800)
        assert abs(res.J - J_cl) / abs(J_cl) < 1e-4

    def test_unreachable_target_raises(self, params, init):
        prob = DiscreteProblem(params, init, T=6.0, m=600)
        cm = minimal_consumption(params, init.history, T=6.0, n=100)
        with pytest.raises(NonConvergence):
            projected_ascent(prob, cm.values + 0.5, iters=3, target_value=0.0)


class TestDiscreteProblemValidation:
    def test_step_must_divide_tau(self, params, init):
        with pytest.raises(Exception):
            DiscreteProblem(params, init, T=10.0, m=1999)

    def test_horizon_must_exceed_memory(self, params, init):
        with pytest.raises(Exception):
            DiscreteProblem(params, init, T=1.0, m=200)


def central_difference(problem, controls, h):
    out = np.empty_like(controls)
    for i in range(len(controls)):
        bump = np.zeros_like(controls)
        bump[i] = h
        out[i] = (
            evaluate_objective(problem, controls + bump)
            - evaluate_objective(problem, controls - bump)
        ) / (2 * h)
    return out


class TestAdjointGradient:
    def test_matches_central_difference_at_optimum(self, small_problem, params):
        traj = simulate_integral_form(
            params, InitialState(10.0, HistoryGrid.constant(1.0, 1.0, 25)), T=3.0, n=25
        )
        g = gradient(small_problem, traj.c)
        cd = central_difference(small_problem, traj.c, 1e-5)
        # near the optimum the gradient is a near-cancelling sum, so measure
        # the error against its gross terms, the weighted marginal utilities
        excess = objective_breakdown(small_problem, traj.c).excess
        scale = np.max(
            small_problem.dt * small_problem.wt * small_problem.disc_rho
            * excess ** -params.gamma
        )
        assert np.max(np.abs(g - cd)) <= 1e-7 * scale

    def test_matches_central_difference_off_optimum(self, small_problem):
        rng = np.random.default_rng(1)
        c = project_feasible(small_problem, 0.8 + 0.3 * rng.uniform(size=76))
        g = gradient(small_problem, c)
        cd = central_difference(small_problem, c, 1e-5)
        assert np.max(np.abs(g - cd)) <= 1e-7 * np.max(np.abs(cd))

    def test_zero_excess_node_is_finite(self, history):
        p = ModelParams(eps=0.5, eta=1.0, tau=1.0, A=0.3, delta=0.05, rho=0.2, gamma=0.5)
        init05 = InitialState(10.0, history)
        prob = DiscreteProblem(p, init05, T=3.0, m=300)
        c = simulate_integral_form(p, init05, T=3.0, n=100).c
        # lower one node to a hair below its habit, inside the feasibility
        # slack; the later habits fall, so every other excess stays positive
        excess = objective_breakdown(prob, c).excess
        c[150] -= excess[150] / (1.0 - prob.kerw[-1]) + 1e-11
        parts = objective_breakdown(prob, c)
        assert math.isfinite(parts.J)
        exc = np.maximum(parts.excess, 0.0)
        assert exc[150] == 0.0 and np.all(np.delete(exc, 150) > 0.0)
        g = gradient(prob, c)
        assert np.all(np.isfinite(g))
        # the secant slope u(fdh)/fdh is about what the forward difference
        # sees; its bump moves the excess by fdh*(1 - self weight), not fdh
        with np.errstate(invalid="ignore"):  # bumps of node 150's neighbours
            fd = fd_gradient(prob, c)
        assert g[150] == pytest.approx(fd[150], rel=2 * prob.kerw[-1])


def project_sequential(problem, controls):
    """Literal left-to-right projection sweep over every node (reference)."""
    c = np.maximum(np.asarray(controls, dtype=float).copy(), 0.0)
    hv = problem.init.history.values
    n_tau = problem.n_tau
    kerw = problem.kerw
    self_w = kerw[-1]
    cc = np.concatenate([hv[:-1], [problem.hist_end], np.zeros(problem.m)])
    c0_floor = float(kerw @ hv)
    c[0] = max(c[0], c0_floor)
    cc[n_tau] += c[0]
    for i in range(1, problem.m + 1):
        known = float(kerw @ cc[i : i + n_tau + 1])
        known -= problem._vH[i] * problem.hist_end + problem._vC[i] * c[0]
        floor = known / (1.0 - self_w)
        if c[i] < floor:
            c[i] = floor
        cc[n_tau + i] = c[i]
    return c


class TestProjectionFastPath:
    @pytest.mark.parametrize("first", [0, 1000, 2000, None])
    def test_bitwise_equal_to_full_sweep(self, problem, closed_loop, first):
        c = closed_loop.copy()
        if first is not None:
            c[first] = problem.habit(closed_loop)[first] - 0.1
            if first < problem.m:
                c[first + 1 :: 7] -= 0.3  # further violations downstream
        slack = c - problem.habit(c)
        tight = np.flatnonzero(slack < 1e-9)
        assert (tight[0] if tight.size else None) == first
        proj = project_feasible(problem, c)
        assert np.array_equal(proj, project_sequential(problem, c))
        assert np.array_equal(proj, c) == (first is None)

    def test_bitwise_equal_on_random_controls(self, problem, closed_loop):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = closed_loop + rng.uniform(0.0, 0.3) * rng.normal(size=problem.m + 1)
            proj = project_feasible(problem, c)
            assert np.array_equal(proj, project_sequential(problem, c))
            # a projected control sits on its floors; one ulp either way
            # puts every raised node on the knife edge of the sweep's test
            down = rng.uniform(size=problem.m + 1) < 0.5
            edge = np.nextafter(proj, np.where(down, -np.inf, np.inf))
            assert np.array_equal(project_feasible(problem, edge), project_sequential(problem, edge))


class TestAscentCounters:
    def test_projections_per_iteration(self, params, init):
        prob = DiscreteProblem(params, init, T=6.0, m=600)
        cm = minimal_consumption(params, init.history, T=6.0, n=100)
        res = projected_ascent(prob, cm.values + 0.5, iters=600)
        assert res.projections <= 1.5 * res.iterations


def habit_uncached(problem, controls):
    """Literal copy of the habit correlation without the last-control cache (reference)."""
    hv = problem.init.history.values
    cc = np.concatenate([hv[:-1], [problem.hist_end + controls[0]], controls[1:]])
    h = np.correlate(cc, problem.kerw, mode="valid")
    return h - problem._vH * problem.hist_end - problem._vC * controls[0]


def objective_uncached(problem, controls):
    """Literal copy of objective_breakdown without the last-control cache (reference)."""
    controls = np.asarray(controls, dtype=float)
    gamma = problem.params.gamma
    h = habit_uncached(problem, controls)
    k = problem.capital(controls)
    excess = controls - h
    scale = max(1.0, float(np.max(np.abs(controls))))
    tol = 1e-9 * scale
    feasible = bool(
        np.all(controls >= -tol) and np.all(excess >= -tol) and np.all(k >= -tol * problem.init.k0)
    )
    if not feasible:
        return ObjectiveParts(-math.inf, -math.inf, 0.0, False, excess, h, k)
    exc = np.maximum(excess, 0.0)
    if gamma > 1.0 and np.any(exc == 0.0):
        return ObjectiveParts(-math.inf, -math.inf, 0.0, False, excess, h, k)
    u = problem.disc_rho * exc ** (1.0 - gamma) / (1.0 - gamma)
    running = problem.dt * float(u @ problem.wt)
    G_T = problem.terminal_aggregate(controls, float(k[-1]), float(h[-1]))
    salv = problem.salvage(G_T)
    return ObjectiveParts(running + salv, running, salv, math.isfinite(salv), excess, h, k)


def gradient_uncached(problem, controls):
    """Literal copy of gradient with its constant pieces rebuilt per call (reference)."""
    controls = np.asarray(controls, dtype=float)
    gamma = problem.params.gamma
    base = objective_uncached(problem, controls)
    G_T = problem.terminal_aggregate(controls, float(base.capital[-1]), float(base.habit[-1]))
    exc = np.maximum(base.excess, 0.0)
    du = exc**-gamma
    a = problem.dt * problem.wt * problem.disc_rho * du
    p_generic = -problem.kerw[::-1]
    p_generic[0] += 1.0
    sens0 = 0.5 * problem.kbase[::-1]
    sens0[0] = 0.0
    p0 = -sens0
    p0[0] += 1.0
    L = problem.n_tau + 1
    g = np.correlate(np.concatenate([a, np.zeros(L - 1)]), p_generic, mode="valid")
    g[0] = float(a[:L] @ p0)
    m = problem.m
    dk_T = -problem.dt * problem.wt * np.exp(problem.params.r * (problem.T - problem.t))
    tail = np.arange(m - problem.n_tau, m + 1)
    dh_T = np.zeros(m + 1)
    dh_T[tail] = problem.kerw[tail - (m - problem.n_tau)]
    dW_T = np.zeros(m + 1)
    dW_T[tail] = problem.wker
    dG = problem.derived.kappa0 * dk_T - dh_T / problem.b + problem.q * dW_T
    d_salvage = problem.disc_rho[-1] * problem.derived.nu * (1.0 - gamma) * G_T**-gamma
    return g + d_salvage * dG


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestLastControlCache:
    @pytest.fixture
    def setup600(self, params, init):
        prob = DiscreteProblem(params, init, T=6.0, m=600)
        c = simulate_integral_form(params, init, T=6.0, n=100).c
        start = minimal_consumption(params, init.history, T=6.0, n=100).values + 0.5
        return prob, c, start

    def test_in_place_mutation_is_rescored(self, params, init, setup600):
        prob, c, _ = setup600
        c = c.copy()
        first = objective_breakdown(prob, c)
        c[300] += 0.01
        again = objective_breakdown(prob, c)
        fresh = objective_breakdown(DiscreteProblem(params, init, T=6.0, m=600), c)
        assert again is not first
        assert same_bits(again.J, fresh.J) and same_bits(again.running, fresh.running)
        for name in ("excess", "habit", "capital"):
            assert same_bits(getattr(again, name), getattr(fresh, name))
        assert same_bits(prob.habit(c), habit_uncached(prob, c))
        # 0.0 and -0.0 are different keys
        z = np.zeros(prob.m + 1)
        prob.habit(z)
        assert prob.habit(-z) is not prob.habit(z)

    def test_returned_arrays_are_read_only(self, setup600):
        prob, c, _ = setup600
        parts = objective_breakdown(prob, c)
        for arr in (prob.habit(c), parts.excess, parts.habit, parts.capital,
                    prob.terminal_sensitivity, *prob.excess_patterns):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert objective_breakdown(prob, c) is parts

    def test_each_control_is_correlated_once(self, setup600, monkeypatch):
        prob, c, start = setup600
        correlated = []
        correlate = prob._correlate

        def recording(controls):
            correlated.append(controls.tobytes())
            return correlate(controls)

        monkeypatch.setattr(prob, "_correlate", recording)
        perturbation_test(prob, c, trials=20, seed=5)
        res = projected_ascent(prob, start, iters=100)
        assert res.iterations > 10
        assert len(correlated) > 20 + res.iterations
        assert len(set(correlated)) == len(correlated)

    def test_bitwise_equal_to_uncached_copy(self, setup600, monkeypatch):
        prob, c, start = setup600
        scored = []
        evaluate = oracle.evaluate_objective

        def recording(problem, controls):
            J = evaluate(problem, controls)
            scored.append((np.array(controls, dtype=float), J))
            return J

        monkeypatch.setattr(oracle, "evaluate_objective", recording)
        perturbation_test(prob, c, trials=20, seed=5)
        n_perturbation = len(scored)
        res = projected_ascent(prob, start, iters=100)
        assert n_perturbation >= 20 and len(scored) - n_perturbation > res.iterations
        for controls, J in scored:
            assert J.hex() == objective_uncached(prob, controls).J.hex()
        for controls in (c, res.controls, scored[n_perturbation][0]):
            assert same_bits(gradient(prob, controls), gradient_uncached(prob, controls))
