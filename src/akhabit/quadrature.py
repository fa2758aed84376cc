"""Trapezoid quadrature helpers shared by the habit integrals.

All windows in this package are uniform grids with step ``dt`` and the
memory length ``tau = n * dt``.  The recurring integral is

    I_beta(t) = integral over [t - tau, t] of f(u) * exp(beta * (u - t)) du

evaluated from samples of f at the window nodes.  Concatenated paths
(history on [-tau, 0) followed by a computed control on [0, T]) jump at
u = 0, so windows that straddle zero are integrated as two trapezoid
sums, one per smooth piece, with both one-sided values at the breakpoint.
Skipping that split costs an O(dt) error on every early window and ruins
the order-2 convergence of everything built on top.

Sequential recurrences (the renewal equation for the minimal plan, the
implicit step of the integral-form simulation) need the window at node
j before c(t_j) is known.  ``sliding_window_integrals`` serves them by
the method of steps, one memory block of n nodes at a time: the part of
every window j in (lo, lo + n] on nodes <= lo comes from one correlation
(``window_integrals``, with the previous memory length as history), and
the block's own nodes lo+1..j-1 from a running sum

    U <- exp(-beta*dt) * (U + dt*c_{j-1}),     U = 0 at j = lo + 1,

that only adds: the oldest node of each window lies in the correlated
part, so no old term is subtracted and no cancellation amplifies rounding.
"""

from __future__ import annotations

import math

import numpy as np


def exp_weights(beta: float, dt: float, m: int) -> np.ndarray:
    """Node factors exp(beta * (i*dt - m*dt)) for i = 0..m (no trapezoid halving)."""
    i = np.arange(m + 1)
    return np.exp(beta * (i * dt - m * dt))


def trap_dot(weights: np.ndarray, values: np.ndarray, dt: float) -> float:
    """Trapezoid rule sum(dt * w_i * v_i) with half weight at both ends.

    ``weights`` carries the integrand factor at the nodes (e.g. the
    exponential); ``values`` the sampled function.  A single-node window
    is an empty interval and integrates to zero.
    """
    if len(values) < 2:
        return 0.0
    prod = weights * values
    return dt * (prod.sum() - 0.5 * (prod[0] + prod[-1]))


def exp_integral(values: np.ndarray, beta: float, dt: float) -> float:
    """integral over [-m*dt, 0] of f(u) exp(beta*u) du from samples of f."""
    values = np.asarray(values, dtype=float)
    return trap_dot(exp_weights(beta, dt, len(values) - 1), values, dt)


def window_integral(
    hist: np.ndarray,
    comp: np.ndarray,
    j: int,
    beta: float,
    dt: float,
    weights: np.ndarray | None = None,
) -> float:
    """I_beta at node t_j = j*dt for the concatenated path (hist, comp).

    The per-node reference that ``window_integrals`` and
    ``sliding_window_integrals`` are tested against; no solver calls it.
    ``hist`` holds n+1 samples on [-tau, 0] whose last entry is the left
    limit at 0; ``comp`` holds the computed samples on [0, T] starting with
    the right value at 0.  For j >= n the window lies inside [0, T] and is
    a single trapezoid sum; for j < n it is split at u = 0.  ``weights``
    may pass a precomputed ``exp_weights(beta, dt, n)``.
    """
    n = len(hist) - 1
    if weights is None:
        weights = exp_weights(beta, dt, n)
    if j >= n:
        return trap_dot(weights, comp[j - n : j + 1], dt)
    split = n - j
    left = trap_dot(weights[: split + 1], hist[j:], dt)
    right = trap_dot(weights[split:], comp[: j + 1], dt)
    return left + right


def window_integrals(hist: np.ndarray, comp: np.ndarray, beta: float, dt: float) -> np.ndarray:
    """``window_integral`` at every node j = 0..len(comp)-1, in one correlation.

    The history's left limit and the computed start share the t = 0 slot
    of the concatenated path, which is correlated against the
    trapezoid-halved kernel.  Window j <= n holds that slot at kernel
    index n - j, where each one-sided value should carry only the half
    weight of its own piece (none when its piece is the empty interval),
    so the excess is subtracted afterwards.
    """
    n = len(hist) - 1
    w = dt * exp_weights(beta, dt, n)
    kern = w.copy()
    kern[[0, -1]] *= 0.5
    path = np.concatenate([hist[:-1], [hist[-1] + comp[0]], comp[1:]])
    out = np.correlate(path, kern, mode="valid")
    j = np.arange(min(n, len(comp) - 1) + 1)
    out[j] -= 0.5 * w[n - j] * (np.where(j > 0, hist[-1], 0.0) + np.where(j < n, comp[0], 0.0))
    return out


def sliding_window_integrals(hist: np.ndarray, comp: np.ndarray, beta: float, dt: float):
    """Yield ``window_integral(hist, comp, j, beta, dt)`` for j = 1..len(comp)-1
    with comp[j] read as 0, while the caller fills comp in between.

    Each value is taken after comp[:j] is final and before comp[j] is
    written (the caller's unknown at node j enters through the endpoint
    weight dt/2, which it adds itself); nothing at or past node j is read.
    """
    n = len(hist) - 1
    steps = len(comp) - 1
    decay = math.exp(-beta * dt)
    item = comp.item  # Python floats keep the per-node arithmetic cheap
    for lo in range(0, steps, n):
        # the window part on nodes <= lo; the path is continuous at lo past
        # the first block, so node lo gets its full weight there
        path = np.zeros(min(n, steps - lo) + 1)
        path[0] = comp[lo]
        known = window_integrals(hist if lo == 0 else comp[lo - n : lo + 1], path, beta, dt)
        inner = 0.0
        for j, value in enumerate(known.tolist()[1:], start=lo + 1):
            yield value + inner
            inner = decay * (inner + dt * item(j))


def cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoid integral of sampled values, starting at 0."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    out[0] = 0.0
    np.cumsum(dt * 0.5 * (values[1:] + values[:-1]), out=out[1:])
    return out


def steps_for(T: float, dt: float) -> int:
    """Number of grid steps covering [0, T] (rounded up, at least one)."""
    return max(int(math.ceil(T / dt - 1e-9)), 1)
