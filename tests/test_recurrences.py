"""The O(1) sliding-window recurrences against the per-node loops they replace.

Each reference below is a literal copy of the loop that re-quadratured
every window from scratch (or, for the lambda form, stepped the RK4
stages through a closure one node at a time).  The fast paths differ
from them only by rounding.
"""

import math
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
from akhabit.simulate import _prepare, simulate_integral_form, simulate_lambda_form

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
