"""The O(1) sliding-window recurrences against the per-node loops they replace.

Each reference below is a literal copy of the loop that re-quadratured
every window from scratch (or, for the lambda form, stepped the RK4
stages through a closure one node at a time).  The fast paths differ
from them only by rounding.
"""

import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from akhabit import (
    ConstraintError,
    HistoryGrid,
    InitialState,
    ModelParams,
    initial_capital_threshold,
    minimal_consumption,
)
from akhabit import quadrature
from akhabit.cli import load_scenario
from akhabit.hjb import aggregate, habit_weight
from akhabit.quadrature import exp_weights, steps_for, trap_dot, window_integral
from akhabit.simulate import (
    _rk4_linear_coeffs,
    _rk4_maps,
    simulate_integral_form,
    simulate_lambda_form,
)
from reference import _prepare

BASELINE = ModelParams(eps=0.5, eta=1.0, tau=1.0, A=0.3, delta=0.05, rho=0.04, gamma=2.0)
# eta*tau = 40: the window weights span 17 decades and c_m decays like e^(-38 t)
FAST_DECAY = ModelParams(eps=2.0, eta=40.0, tau=1.0, A=0.3, delta=0.05, rho=0.04, gamma=2.0)
# 5.3 memory lengths: several re-anchor blocks and a partial last one
HORIZON = 5.3


def jump_history(params, n):
    """A varying history whose left limit 1.6 at t = 0 is far from c(0)."""
    u = -params.tau + np.arange(n + 1) * (params.tau / n)
    values = 1.0 + 0.3 * np.sin(4.0 * u)
    values[-1] = 1.6
    return HistoryGrid(params.tau, values)


def reference_minimal_consumption(params, history, T):
    hist = history
    n = hist.n
    dt = hist.dt
    self_weight = params.eps * dt / 2.0
    steps = steps_for(T, dt)
    weights = exp_weights(params.eta, dt, n)
    comp = np.zeros(steps + 1)
    hv = hist.values
    comp[0] = params.eps * trap_dot(weights, hv, dt)
    for j in range(1, steps + 1):
        known = params.eps * window_integral(hv, comp, j, params.eta, dt, weights)
        comp[j] = known / (1.0 - self_weight)
    return comp


def reference_rk4_linear_coeffs(r, dt):
    def step(k, c0, c1):
        cm = 0.5 * (c0 + c1)
        s1 = r * k - c0
        s2 = r * (k + 0.5 * dt * s1) - cm
        s3 = r * (k + 0.5 * dt * s2) - cm
        s4 = r * (k + dt * s3) - c1
        return k + dt * (s1 + 2 * s2 + 2 * s3 + s4) / 6.0

    return step(1.0, 0.0, 0.0), step(0.0, 1.0, 0.0), step(0.0, 0.0, 1.0)


def reference_integral_form(params, init, T):
    der, init, hist, Lam, degenerate = _prepare(params, init, None)
    n = hist.n
    dt = hist.dt
    r = params.r
    b = r + params.eta
    q = habit_weight(params)
    alpha, kappa0 = der.alpha, der.kappa0
    steps = steps_for(T, dt)
    w_eta = exp_weights(params.eta, dt, n)
    w_mr = exp_weights(-r, dt, n)
    a_rk, b_rk, d_rk = reference_rk4_linear_coeffs(r, dt)
    self_weight = (params.eps * dt / 2.0) * (1.0 - alpha / b) + alpha * kappa0 * d_rk + alpha * q * (dt / 2.0)

    hv = hist.values
    k = np.empty(steps + 1)
    c = np.zeros(steps + 1)
    h = np.empty(steps + 1)
    G = np.empty(steps + 1)
    k[0] = init.k0
    h[0] = params.eps * trap_dot(w_eta, hv, dt)
    G[0] = aggregate(init.k0, hist, params)
    c[0] = h[0] + alpha * G[0]

    c_tol = 1e-9 * (abs(h[0]) + abs(Lam) + 1.0)
    k_tol = 1e-9 * init.k0
    for j in range(1, steps + 1):
        h_known = params.eps * window_integral(hv, c, j, params.eta, dt, w_eta)
        W_known = window_integral(hv, c, j, -r, dt, w_mr)
        rhs = (
            h_known * (1.0 - alpha / b)
            + alpha * kappa0 * (a_rk * k[j - 1] + b_rk * c[j - 1])
            + alpha * q * W_known
        )
        cj = rhs / (1.0 - self_weight)
        kj = a_rk * k[j - 1] + b_rk * c[j - 1] + d_rk * cj
        c[j] = cj
        k[j] = kj
        h[j] = h_known + (params.eps * dt / 2.0) * cj
        G[j] = kappa0 * kj - h[j] / b + q * (W_known + (dt / 2.0) * cj)
        if cj < h[j] - c_tol or kj < -k_tol:
            raise ConstraintError(
                f"constraint violated at t={j * dt:.6g}: c={cj:.6g}, h={h[j]:.6g}, k={kj:.6g}",
                t=j * dt,
            )
    return k, c, h, G


def reference_lambda_form(params, init, T):
    der, init, hist, Lam, degenerate = _prepare(params, init, None)
    n = hist.n
    dt = hist.dt
    r = params.r
    eps, eta = params.eps, params.eta
    Gamma = der.Gamma
    decay = math.exp(-eta * params.tau)
    steps = steps_for(T, dt)
    hv = hist.values
    k = np.empty(steps + 1)
    c = np.zeros(steps + 1)
    h = np.empty(steps + 1)
    k[0] = init.k0
    h[0] = eps * trap_dot(exp_weights(eta, dt, n), hv, dt)
    c[0] = h[0] + Lam

    c_tol = 1e-9 * (abs(h[0]) + abs(Lam) + 1.0)
    k_tol = 1e-9 * init.k0
    for j in range(steps):
        if j < n:
            v0, v1 = hv[j], hv[j + 1]
        else:
            v0, v1 = c[j - n], c[j - n + 1]
        t0 = j * dt

        def rate(sigma, kj, hj):
            excess = Lam * math.exp(Gamma * (t0 + sigma * dt))
            c_del = v0 + sigma * (v1 - v0)
            dk = r * kj - (hj + excess)
            dh = (eps - eta) * hj + eps * excess - eps * decay * c_del
            return dk, dh

        dk1, dh1 = rate(0.0, k[j], h[j])
        dk2, dh2 = rate(0.5, k[j] + 0.5 * dt * dk1, h[j] + 0.5 * dt * dh1)
        dk3, dh3 = rate(0.5, k[j] + 0.5 * dt * dk2, h[j] + 0.5 * dt * dh2)
        dk4, dh4 = rate(1.0, k[j] + dt * dk3, h[j] + dt * dh3)
        k[j + 1] = k[j] + dt * (dk1 + 2 * dk2 + 2 * dk3 + dk4) / 6.0
        h[j + 1] = h[j] + dt * (dh1 + 2 * dh2 + 2 * dh3 + dh4) / 6.0
        c[j + 1] = h[j + 1] + Lam * math.exp(Gamma * (j + 1) * dt)
        if c[j + 1] < h[j + 1] - c_tol or k[j + 1] < -k_tol:
            raise ConstraintError(
                f"constraint violated at t={(j + 1) * dt:.6g}", t=(j + 1) * dt
            )
    return k, c, h


def gap(ref, got):
    """Largest deviation relative to the path's own max."""
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


CASES = [(p, n) for p in (BASELINE, FAST_DECAY) for n in (2, 7, 200)]
IDS = [f"{name}-n{n}" for name in ("baseline", "fast_decay") for n in (2, 7, 200)]


@pytest.mark.parametrize("params,n", CASES, ids=IDS)
def test_minimal_consumption_matches_per_node_loop(params, n):
    hist = jump_history(params, n)
    want = reference_minimal_consumption(params, hist, HORIZON)
    got = minimal_consumption(params, hist, HORIZON).values
    assert got.shape == want.shape
    assert gap(want, got) <= 1e-12


@pytest.mark.parametrize("params,n", CASES, ids=IDS)
def test_integral_form_matches_per_node_loop(params, n):
    init = InitialState(10.0, jump_history(params, n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = reference_integral_form(params, init, HORIZON)
        traj = simulate_integral_form(params, init, HORIZON)
    for ref, got in zip(want, (traj.k, traj.c, traj.h, traj.G)):
        assert got.shape == ref.shape
        assert gap(ref, got) <= 1e-12


@pytest.mark.parametrize("params,n", CASES, ids=IDS)
def test_lambda_form_matches_closure_rk4_loop(params, n):
    init = InitialState(10.0, jump_history(params, n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = reference_lambda_form(params, init, HORIZON)
        traj = simulate_lambda_form(params, init, HORIZON)
    for ref, got in zip(want, (traj.k, traj.c, traj.h)):
        assert got.shape == ref.shape
        assert gap(ref, got) <= 1e-11


@pytest.mark.parametrize("n", [7, 200])
def test_lambda_form_constraint_error_at_the_same_node(n):
    # capital 3e-9 below the threshold is inside the degenerate band, so
    # the run starts; capital then turns negative after about 30 time units,
    # inside a memory block, and the block-wise check must stop at the
    # node the per-node check stopped at
    hist = jump_history(BASELINE, n)
    init = InitialState(initial_capital_threshold(BASELINE, hist) * (1.0 - 3e-9), hist)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ConstraintError) as want:
            reference_lambda_form(BASELINE, init, 40.0)
        with pytest.raises(ConstraintError) as got:
            simulate_lambda_form(BASELINE, init, 40.0)
    assert 10.0 < want.value.t < 40.0
    assert round(want.value.t / BASELINE.tau * n) % n != 0  # not on a block edge
    assert got.value.t == want.value.t
    assert str(got.value) == str(want.value)


def test_solvers_never_call_the_per_node_window(monkeypatch):
    calls = []
    per_node = quadrature.window_integral

    def counted(*args, **kwargs):
        calls.append(args[2])
        return per_node(*args, **kwargs)

    monkeypatch.setattr(quadrature, "window_integral", counted)
    hist = jump_history(BASELINE, 7)
    minimal_consumption(BASELINE, hist, HORIZON)
    simulate_integral_form(BASELINE, InitialState(10.0, hist), HORIZON)
    assert calls == []


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("name", ["baseline.yaml", "low_curvature.yaml"])
def test_fine_grid_over_eight_memory_lengths_matches_per_node_loops(name):
    # n = 800 over 8 tau: 8 blocks of 800 nodes, where a drifting window
    # sum would have the most steps to drift over
    scn = load_scenario(SCENARIOS / name)
    params, init = scn.params, scn.initial.resample(800)
    T = 8.0 * params.tau
    want = reference_minimal_consumption(params, init.history, T)
    got = minimal_consumption(params, init.history, T).values
    assert got.shape == want.shape
    assert gap(want, got) <= 1e-13
    want = reference_integral_form(params, init, T)
    traj = simulate_integral_form(params, init, T)
    for ref, got in zip(want, (traj.k, traj.c, traj.h, traj.G)):
        assert got.shape == ref.shape
        assert gap(ref, got) <= 1e-13


# -- block scans and the fused integral-form loop -------------------------------

# eta*tau = 800: c_m falls by e^-4 per node at n = 200, so a block scanned
# without sub-blocks would form e^(+-800); eps*dt/2 < 1 down to n = 2 needs eps < 4
ETA_800 = ModelParams(eps=2.0, eta=800.0, tau=1.0, A=0.3, delta=0.05, rho=0.04, gamma=2.0)
# eps next to eta keeps the lambda form's explicit habit step stable from
# n = 7 on, where |log p| * n is 10 at n = 200 and 7 at n = 7
ETA_800_STRONG = ModelParams(eps=790.0, eta=800.0, tau=1.0, A=0.3, delta=0.05, rho=0.04, gamma=2.0)
SCAN_IDS = [f"eta{eta}-n{n}" for eta in (40, 800) for n in (2, 7, 200)]


@pytest.mark.parametrize("params,n", [(p, n) for p in (FAST_DECAY, ETA_800) for n in (2, 7, 200)], ids=SCAN_IDS)
def test_minimal_consumption_scan_holds_1e13_of_the_path_max(params, n):
    hist = jump_history(params, n)
    assert steps_for(HORIZON, hist.dt) % n != 0  # the last block is partial
    want = reference_minimal_consumption(params, hist, HORIZON)
    got = minimal_consumption(params, hist, HORIZON).values
    assert np.all(np.isfinite(got))
    assert gap(want, got) <= 1e-13


@pytest.mark.parametrize(
    "params,k0,n",
    [(FAST_DECAY, 10.0, n) for n in (2, 7, 200)] + [(ETA_800_STRONG, 100.0, n) for n in (2, 7, 200)],
    ids=SCAN_IDS,
)
def test_lambda_form_scans_hold_1e13_of_the_path_max(params, k0, n):
    init = InitialState(k0, jump_history(params, n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = reference_lambda_form(params, init, HORIZON)
        traj = simulate_lambda_form(params, init, HORIZON)
    for ref, got in zip(want, (traj.k, traj.c, traj.h)):
        assert got.shape == ref.shape
        assert gap(ref, got) <= 1e-13


def generator_sliding_window_integrals(hist, comp, beta, dt):
    n = len(hist) - 1
    steps = len(comp) - 1
    decay = math.exp(-beta * dt)
    item = comp.item
    for lo in range(0, steps, n):
        path = np.zeros(min(n, steps - lo) + 1)
        path[0] = comp[lo]
        known = quadrature.window_integrals(hist if lo == 0 else comp[lo - n : lo + 1], path, beta, dt)
        inner = 0.0
        for j, value in enumerate(known.tolist()[1:], start=lo + 1):
            yield value + inner
            inner = decay * (inner + dt * item(j))


def generator_integral_form(params, init, T):
    """The integral form driven by two window generators, one node at a time."""
    der, init, hist, Lam, degenerate = _prepare(params, init, None)
    n = hist.n
    dt = hist.dt
    r = params.r
    b = r + params.eta
    q = habit_weight(params)
    alpha, kappa0 = der.alpha, der.kappa0
    steps = steps_for(T, dt)
    w_eta = exp_weights(params.eta, dt, n)
    a_rk, b_rk, d_rk = _rk4_linear_coeffs(r, dt)
    self_weight = (params.eps * dt / 2.0) * (1.0 - alpha / b) + alpha * kappa0 * d_rk + alpha * q * (dt / 2.0)

    hv = hist.values
    k = np.empty(steps + 1)
    c = np.zeros(steps + 1)
    h = np.empty(steps + 1)
    G = np.empty(steps + 1)
    k[0] = init.k0
    h[0] = params.eps * trap_dot(w_eta, hv, dt)
    G[0] = aggregate(init.k0, hist, params)
    c[0] = h[0] + alpha * G[0]

    c_tol = 1e-9 * (abs(h[0]) + abs(Lam) + 1.0)
    k_tol = 1e-9 * init.k0
    eps = params.eps
    h_gain, k_gain, W_gain = 1.0 - alpha / b, alpha * kappa0, alpha * q
    k_prev, c_prev = float(k[0]), float(c[0])
    h_windows = generator_sliding_window_integrals(hv, c, params.eta, dt)
    W_windows = generator_sliding_window_integrals(hv, c, -r, dt)
    W_known = np.empty(steps + 1)
    for j, h_window, W_j in zip(range(1, steps + 1), h_windows, W_windows):
        h_known = eps * h_window
        carry = a_rk * k_prev + b_rk * c_prev
        cj = (h_known * h_gain + k_gain * carry + W_gain * W_j) / (1.0 - self_weight)
        kj = carry + d_rk * cj
        hj = h_known + (eps * dt / 2.0) * cj
        c[j], k[j], h[j], W_known[j] = cj, kj, hj, W_j
        if cj < hj - c_tol or kj < -k_tol:
            raise ConstraintError(
                f"constraint violated at t={j * dt:.6g}: c={cj:.6g}, h={hj:.6g}, k={kj:.6g}",
                t=j * dt,
            )
        k_prev, c_prev = kj, cj
    G[1:] = kappa0 * k[1:] - h[1:] / b + q * (W_known[1:] + (dt / 2.0) * c[1:])
    return k, c, h, G


@pytest.mark.parametrize("params,n", CASES, ids=IDS)
def test_fused_integral_loop_is_bitwise_the_generator_loop(params, n):
    init = InitialState(10.0, jump_history(params, n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = generator_integral_form(params, init, HORIZON)
        traj = simulate_integral_form(params, init, HORIZON)
    for ref, got in zip(want, (traj.k, traj.c, traj.h, traj.G)):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n,excess", [(50, 3e-5), (200, 3e-6)])
def test_integral_form_constraint_error_at_the_same_node(n, excess):
    # capital a little above the threshold: the quadrature error of the
    # first windows pulls c below h - c_tol at node 12 (n = 50) or 71
    # (n = 200), inside the first block, and the block-wise check must
    # report the node and values the per-node check reported
    hist = jump_history(BASELINE, n)
    init = InitialState(initial_capital_threshold(BASELINE, hist) * (1.0 + excess), hist)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ConstraintError) as want:
            reference_integral_form(BASELINE, init, HORIZON)
        with pytest.raises(ConstraintError) as got:
            simulate_integral_form(BASELINE, init, HORIZON)
    node = round(want.value.t / BASELINE.tau * n)
    assert 1 < node < n  # mid-block
    assert got.value.t == want.value.t
    assert str(got.value) == str(want.value)


def vector_rk4_maps(r, a, dt):
    def step(y, f0, fm, f1):
        def rate(y, f):
            return np.array([r * y[0] - y[1] + f[0], a * y[1] + f[1]])

        s1 = rate(y, f0)
        s2 = rate(y + 0.5 * dt * s1, fm)
        s3 = rate(y + 0.5 * dt * s2, fm)
        s4 = rate(y + dt * s3, f1)
        return y + dt * (s1 + 2 * s2 + 2 * s3 + s4) / 6.0

    zero = np.zeros(2)
    units = np.eye(2)
    return (
        np.column_stack([step(e, zero, zero, zero) for e in units]),
        np.column_stack([step(zero, e, zero, zero) for e in units]),
        np.column_stack([step(zero, zero, e, zero) for e in units]),
        np.column_stack([step(zero, zero, zero, e) for e in units]),
    )


def test_rk4_maps_are_bitwise_the_vector_step():
    rng = np.random.default_rng(3)
    cases = [(0.25, -0.5, 0.005), (0.25, 0.0, 0.005), (0.25, -38.0, 0.5), (0.25, -10.0, 1 / 7)]
    cases += [(float(x), float(y), float(z)) for x, y, z in rng.normal(size=(50, 3)) * [1.0, 50.0, 0.1]]
    for r, a, dt in cases:
        for want, got in zip(vector_rk4_maps(r, a, dt), _rk4_maps(r, a, dt)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (r, a, dt)
    P = _rk4_maps(0.25, -38.0, 0.5)[0]
    assert P[1, 0] == 0.0  # h never sees k, so the lambda form scans h first


def count_calls(monkeypatch, fn):
    """Count the calls of ``fn`` through every binding of it in the package."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "akhabit" or name.startswith("akhabit."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize(
    "solver,windows",
    [(minimal_consumption, 1), (simulate_integral_form, 2), (simulate_lambda_form, 0)],
    ids=["minimal_consumption", "integral_form", "lambda_form"],
)
def test_kernels_are_built_once_per_solver_call(monkeypatch, solver, windows):
    # the counts are the same at 8 and 16 memory lengths, and the 8 extra
    # blocks add exactly one window_integrals call per block and window
    n = 50
    hist = jump_history(BASELINE, n)
    data = hist if solver is minimal_consumption else InitialState(10.0, hist)
    counters = {
        fn.__name__: count_calls(monkeypatch, fn)
        for fn in (quadrature.exp_weights, quadrature.window_integrals, _rk4_maps)
    }
    seen = []
    for T in (8.0, 16.0):
        for calls in counters.values():
            calls.clear()
        solver(BASELINE, data, T)
        seen.append({name: len(calls) for name, calls in counters.items()})
    short, long = seen
    assert long["exp_weights"] == short["exp_weights"] > 0
    assert long["_rk4_maps"] == short["_rk4_maps"]
    assert long["window_integrals"] - short["window_integrals"] == 8 * windows
    if solver is minimal_consumption:
        assert short["window_integrals"] == 8
