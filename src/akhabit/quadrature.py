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
j before c(t_j) is known.  They are solved by the method of steps, one
memory block of n nodes at a time: the part of every window j in
(lo, lo + n] on nodes <= lo is known once the previous block is, and
``block_windows`` returns all of them from one correlation (the previous
memory length as history) against a kernel the solver builds once per
call (``window_kernel``).  The block's own nodes lo+1..j-1 enter through
a running sum

    U <- exp(-beta*dt) * (U + dt*c_{j-1}),     U = 0 at j = lo + 1,

that only adds: the oldest node of each window lies in the correlated
part, so no old term is subtracted and no cancellation amplifies rounding.

Where the in-block recurrence is linear with a constant positive factor,
y <- p*y + b, ``linear_scan`` solves a whole block at once as a prefix
scan (Blelloch, "Prefix sums and their applications", CMU-CS-90-190,
1990): y_i = p^i y_0 + p^(i-1) * (sum over l < i of b_l p^-l), with the
powers exp(i log p) from one exponential and the sum from one cumsum.  The
block is cut into sub-blocks of L steps with |log p| * L <= SCAN_SPAN,
so no power leaves e^(+-SCAN_SPAN): an uncut block at eta*tau = 800
would form e^800, which overflows.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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

    The per-node reference for ``window_integrals``; no solver calls it.
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


class WindowKernel(NamedTuple):
    """One window's weights on the grid, built once per solver call."""

    beta: float
    dt: float
    w: np.ndarray  # dt * exp_weights(beta, dt, n)
    kern: np.ndarray  # w with the trapezoid halving at both ends


def window_kernel(beta: float, dt: float, n: int) -> WindowKernel:
    """The ``WindowKernel`` of I_beta on a memory length of n steps."""
    w = dt * exp_weights(beta, dt, n)
    kern = w.copy()
    kern[[0, -1]] *= 0.5
    return WindowKernel(beta, dt, w, kern)


def window_integrals(
    hist: np.ndarray,
    comp: np.ndarray,
    beta: float,
    dt: float,
    kernel: WindowKernel | None = None,
) -> np.ndarray:
    """``window_integral`` at every node j = 0..len(comp)-1, in one correlation.

    The history's left limit and the computed start share the t = 0 slot
    of the concatenated path, which is correlated against the
    trapezoid-halved kernel.  Window j <= n holds that slot at kernel
    index n - j, where each one-sided value should carry only the half
    weight of its own piece (none when its piece is the empty interval),
    so the excess is subtracted afterwards.  ``kernel`` may pass a
    precomputed ``window_kernel(beta, dt, n)``.
    """
    n = len(hist) - 1
    kernel = kernel or window_kernel(beta, dt, n)
    path = np.concatenate([hist[:-1], [hist[-1] + comp[0]], comp[1:]])
    out = np.correlate(path, kernel.kern, mode="valid")
    j = np.arange(min(n, len(comp) - 1) + 1)
    out[j] -= 0.5 * kernel.w[n - j] * (np.where(j > 0, hist[-1], 0.0) + np.where(j < n, comp[0], 0.0))
    return out


def block_windows(
    hist: np.ndarray,
    comp: np.ndarray,
    lo: int,
    m: int,
    kernel: WindowKernel,
) -> np.ndarray:
    """The part on nodes <= lo of the windows at j = lo+1..lo+m, m <= n.

    One ``window_integrals`` call with the memory length before lo as
    history (``hist`` for the first block, ``comp[lo-n:lo+1]`` later) and
    the path ``[comp[lo], 0, ..., 0]``.  Past the first block the path is
    continuous at lo, so node lo gets its full weight.  Reads nothing of
    comp past lo.
    """
    n = len(kernel.w) - 1
    path = np.zeros(m + 1)
    path[0] = comp[lo]
    prev = hist if lo == 0 else comp[lo - n : lo + 1]
    return window_integrals(prev, path, kernel.beta, kernel.dt, kernel)[1:]


#: largest |log p| * L of one ``linear_scan`` sub-block of L steps, so every
#: power it forms lies in [e^-SCAN_SPAN, e^SCAN_SPAN]
SCAN_SPAN = 8.0


def linear_scan(log_p: float, b: np.ndarray, y0: float) -> np.ndarray:
    """y_1..y_m of y_i = p*y_(i-1) + b_(i-1) from y_0 = y0, with p = exp(log_p).

    A prefix scan, one sub-block of L <= max(1, SCAN_SPAN / |log p|) steps
    at a time: y_(s+i) = p^i y_s + p^(i-1) * (sum over l < i of
    b_(s+l) p^-l), with p^i = exp(i log p).  The exponents stay within
    +-SCAN_SPAN, and a single step (L = 1) is y = p*y_s + b_s exactly.
    """
    m = len(b)
    span = SCAN_SPAN / abs(log_p) if log_p else m
    size = max(1, int(min(m, span)))
    powers = np.exp(log_p * np.arange(size + 1))
    out = np.empty(m)
    y = y0
    for s in range(0, m, size):
        L = min(size, m - s)
        sums = np.cumsum(b[s : s + L] / powers[:L])
        out[s : s + L] = powers[1 : L + 1] * y + powers[:L] * sums
        y = out[s + L - 1]
    return out


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
