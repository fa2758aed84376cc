"""References that only the tests call, kept out of the package a run imports.

pytest does not collect this module (its name does not start with
``test_``); the test modules import from it, as they do from
``conftest`` and ``record_golden``.  Each reference below is stated one
node or one tuple at a time, so a test can compare the package's
vectorized path against it; the oracle's perturbation sweep is kept as
it was before its trials spliced habits, to compare bit for bit.
"""

import math
import operator
import random

import numpy as np

from akhabit.errors import InfeasibleControlError, OptimalityViolation
from akhabit.hjb import habit_weight
from akhabit.model import InitialState
from akhabit.oracle import FEAS_TOL, ObjectiveParts, PerturbationReport, _read_only, _u
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


# -- the oracle's perturbation sweep as it was before the anchored splice ------
#
# Literal copies of ``DiscreteProblem._correlate`` (always the full
# correlation), ``_score``, ``project_feasible`` and ``perturbation_test``
# from before ``perturbation_test`` set an anchor.  They call one another
# instead of the package's versions and never read or set the anchor or
# the last-control cache, so ``tests/test_oracle_splice.py`` can compare
# the package's trial loop against them bit for bit.


def habit_reference(problem, controls):
    """The habit from one full sliding correlation, as ``_correlate`` did."""
    hv = problem.init.history.values
    cc = np.concatenate([hv[:-1], [problem.hist_end + controls[0]], controls[1:]])
    h = np.correlate(cc, problem.kerw, mode="valid")
    return h - problem._vH * problem.hist_end - problem._vC * controls[0]


def score_reference(problem, controls, h):
    """``_score`` as it was: abs + max, three ``np.all`` tests, the zero-excess scan."""
    gamma = problem.params.gamma
    k = problem.capital(controls)
    excess = controls - h
    _read_only(k, excess)
    scale = max(1.0, float(np.max(np.abs(controls))))
    tol = FEAS_TOL * scale
    feasible = bool(
        np.all(controls >= -tol) and np.all(excess >= -tol) and np.all(k >= -tol * problem.init.k0)
    )
    exc = np.maximum(excess, 0.0)
    if not feasible or (gamma > 1.0 and np.any(exc == 0.0)):
        return ObjectiveParts(-math.inf, -math.inf, 0.0, False, excess, h, k)
    u = problem.disc_rho * _u(exc, gamma)
    running = problem.dt * float(u @ problem.wt)
    G_T = problem.terminal_aggregate(controls, float(k[-1]), float(h[-1]))
    salv = problem.salvage(G_T)
    return ObjectiveParts(running + salv, running, salv, math.isfinite(salv), excess, h, k)


def objective_reference(problem, controls):
    controls = np.asarray(controls, dtype=float)
    return score_reference(problem, controls, habit_reference(problem, controls))


def project_feasible_reference(problem, controls):
    """``project_feasible`` as it was: the history's scale per call, ``flatnonzero`` first."""
    c = np.maximum(np.asarray(controls, dtype=float), 0.0)
    hv = problem.init.history.values
    n_tau = problem.n_tau
    scale = max(1.0, float(np.max(c)), float(np.max(np.abs(hv))))
    margin = max(1e-12, 16 * (n_tau + 3) * np.finfo(float).eps) * scale
    tight = np.flatnonzero(c - habit_reference(problem, c) <= margin)
    if tight.size == 0:
        return c
    start = int(tight[0])

    kerw = problem.kerw
    self_w = kerw[-1]
    if start == 0:
        c0_floor = float(kerw @ hv)
        c[0] = max(c[0], c0_floor)
        start = 1
    cc = np.concatenate(
        [hv[:-1], [problem.hist_end + c[0]], c[1:start], np.zeros(problem.m + 1 - start)]
    )
    for i in range(start, problem.m + 1):
        known = float(kerw @ cc[i : i + n_tau + 1])
        known -= problem._vH[i] * problem.hist_end + problem._vC[i] * c[0]
        floor = known / (1.0 - self_w)
        if c[i] < floor:
            c[i] = floor
        cc[n_tau + i] = c[i]
    return c


def perturbation_test_reference(problem, base_controls, trials=100, seed=42, tol=1e-6):
    """``perturbation_test`` as it was: a full-length mask per bump, every habit correlated in full."""
    if seed is not None:
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    base_controls = np.asarray(base_controls, dtype=float)
    base = objective_reference(problem, base_controls)
    if not math.isfinite(base.J):
        raise InfeasibleControlError("perturbation_test needs a feasible base control")
    margin = float(np.min(np.maximum(base.excess, 0.0)))
    scale = margin if margin > 0 else 0.1 * float(np.mean(base_controls) + 1.0)
    t = problem.t
    T = problem.T
    tau = problem.params.tau

    max_gain = -math.inf
    improving = 0
    for _ in range(trials):
        amp = rng.uniform(0.05, 0.4) * scale * (-1.0 if rng.random() < 0.5 else 1.0)
        bump = np.zeros_like(t)
        if rng.random() < 0.7:
            width = rng.uniform(0.5, 2.0) * tau
            start = rng.uniform(0.0, max(T - width, 1e-9))
            inside = (t >= start) & (t <= start + width)
            bump[inside] = np.sin(math.pi * (t[inside] - start) / width) ** 2
        else:
            bump[int(rng.random() * (problem.m + 1))] = 1.0
        for _try in range(21):
            J = objective_reference(problem, project_feasible_reference(problem, base_controls + amp * bump)).J
            if math.isfinite(J):
                break
            amp *= 0.5
        gain = J - base.J
        if gain > max_gain:
            max_gain = gain
        if gain > tol * abs(base.J):
            improving += 1

    report = PerturbationReport(
        trials=trials,
        J_base=base.J,
        max_gain=max_gain,
        improving=improving,
        tolerance=tol * abs(base.J),
    )
    if improving:
        raise OptimalityViolation(
            f"{improving}/{trials} perturbations improved J by up to {max_gain:.3e} "
            f"(tolerance {report.tolerance:.3e})"
        )
    return report
