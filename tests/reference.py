"""References that only the tests call, kept out of the package a run imports.

pytest does not collect this module (its name does not start with
``test_``); the test modules import from it, as they do from
``conftest`` and ``record_golden``.  Each reference below is stated one
node or one tuple at a time, so a test can compare the package's
vectorized path against it.
"""

import math

import numpy as np

from akhabit.hjb import habit_weight
from akhabit.model import InitialState
from akhabit.quadrature import block_windows, window_kernel
from akhabit.simulate import _start


def _trapezoid(f, lo: int, hi: int, dt: float) -> float:
    """Trapezoid of f over the grid nodes lo..hi, ends halved; 0 when lo == hi."""
    if hi == lo:
        return 0.0
    return dt * (0.5 * f(lo) + sum(f(j) for j in range(lo + 1, hi)) + 0.5 * f(hi))


def objective_naive(problem, controls) -> float:
    """The oracle's discrete J(c) for a feasible control, one node at a time.

    Node j sits at t_j = j dt; the history holds nodes -n_tau..0 and the
    controls nodes 0..m.  The habit at node i is the history's window on
    [t_i - tau, 0] plus the controls' on [max(0, t_i - tau), t_i], each a
    trapezoid with halved ends; the capital is the trapezoid of the
    discounted controls; the salvage is taken at
    G_T = kappa0 k_T - h_T / (r + eta) + q W_T.
    """
    p, der = problem.params, problem.derived
    m, n_tau, dt = problem.m, problem.n_tau, problem.dt
    r, gamma = p.r, p.gamma
    hist = problem.init.history.values.tolist()
    c = [float(x) for x in controls]

    def habit(i):
        def weight(j):
            return p.eps * math.exp(-p.eta * (i - j) * dt)

        past = _trapezoid(lambda j: weight(j) * hist[j + n_tau], min(i - n_tau, 0), 0, dt)
        return past + _trapezoid(lambda j: weight(j) * c[j], max(0, i - n_tau), i, dt)

    h = [habit(i) for i in range(m + 1)]
    running = _trapezoid(
        lambda j: math.exp(-p.rho * j * dt) * (c[j] - h[j]) ** (1.0 - gamma) / (1.0 - gamma), 0, m, dt
    )
    T = m * dt
    k_T = math.exp(r * T) * (problem.init.k0 - _trapezoid(lambda j: math.exp(-r * j * dt) * c[j], 0, m, dt))
    W_T = _trapezoid(lambda j: math.exp(r * (T - j * dt)) * c[j], m - n_tau, m, dt)
    G_T = der.kappa0 * k_T - h[m] / (r + p.eta) + habit_weight(p) * W_T
    return running + math.exp(-p.rho * T) * der.nu * G_T ** (1.0 - gamma)


def fd_gradient_naive(problem, controls, fdh: float) -> np.ndarray:
    """Forward differences of ``objective_naive``, one coordinate at a time.

    The reference for ``oracle.fd_gradient``: the same differences, of an
    objective that shares no array or kernel with ``DiscreteProblem``.
    """
    controls = np.asarray(controls, dtype=float)
    J0 = objective_naive(problem, controls)
    out = np.empty(problem.m + 1)
    for i in range(problem.m + 1):
        bumped = controls.copy()
        bumped[i] += fdh
        out[i] = (objective_naive(problem, bumped) - J0) / fdh
    return out


def sliding_window_integrals(hist: np.ndarray, comp: np.ndarray, beta: float, dt: float):
    """Yield ``window_integral(hist, comp, j, beta, dt)`` for j = 1..len(comp)-1
    with comp[j] read as 0, while the caller fills comp in between.

    Each value is taken after comp[:j] is final and before comp[j] is
    written (the caller's unknown at node j enters through the endpoint
    weight dt/2, which it adds itself); nothing at or past node j is read.
    The solvers run the same ``block_windows`` and in-block running sum
    inline; this generator states the contract one node at a time.
    """
    n = len(hist) - 1
    steps = len(comp) - 1
    decay = math.exp(-beta * dt)
    kernel = window_kernel(beta, dt, n)
    for lo in range(0, steps, n):
        known = block_windows(hist, comp, lo, min(n, steps - lo), kernel).tolist()
        inner = 0.0
        for j, value in enumerate(known, lo + 1):
            yield value + inner
            inner = decay * (inner + dt * comp.item(j))


def _prepare(params, init, n):
    """(der, resampled init, history, Lambda, degenerate) of ``_start``."""
    der, hist, _, Lam, degenerate, *_ = _start(params, init, n, init.history.tau)
    return der, InitialState(init.k0, hist), hist, Lam, degenerate
