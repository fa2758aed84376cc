"""Minimal consumption path, dominated capital, and feasibility of initial data.

Any admissible consumption plan is bounded below by the solution c_m of
the pure renewal equation

    c_m(t) = eps * integral over [t-tau, t] of c_m~(u) exp(eta*(u-t)) du

(the habit of its own concatenation with the history), and the capital
path it induces dominates every admissible capital path.  Initial data
admit an admissible plan exactly when that dominated capital path stays
nonnegative, which reduces to the initial capital exceeding the
discounted cost of c_m:

    k0 > integral over [0, inf) of exp(-r s) c_m(s) ds.

The integrator works on the renewal form, not the differentiated delay
equation: the integral form is self-starting from a merely integrable
history and is indifferent to the jump of the concatenation at t = 0.
The renewal equation is solved by the method of steps: once a memory
block of n nodes is known, every window of the next block is known up
to that block's own nodes (one correlation, ``quadrature.block_windows``).
Those nodes enter through the running sum U of ``quadrature``, and with
c_m = g*(known + U), g = eps/(1 - eps*dt/2), the sum obeys the linear
recurrence

    U <- p*U + exp(-eta*dt)*g*dt*known,     p = exp(-eta*dt)*(1 + g*dt) > 0,

so a whole block is one prefix scan (``quadrature.linear_scan``, cut into
sub-blocks whose powers of p stay within e^(+-SCAN_SPAN)).  A run computes
c_m once, here, and shares it with the path monitors; a sweep shares it
across rows that keep the habit kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepError
from .model import HistoryGrid, InitialState, ModelParams, habit_of_history
from .quadrature import (
    block_windows,
    cumulative_trapezoid,
    linear_scan,
    steps_for,
    trap_dot,
    window_kernel,
)
from .spectral import real_root

#: default feasibility horizon, in units of tau
DEFAULT_HORIZON = 8.0


@dataclass(frozen=True)
class SampledPath:
    """A function sampled on the uniform grid t = 0, dt, ..., steps*dt."""

    t: np.ndarray
    values: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])


@dataclass(frozen=True)
class FeasibilityReport:
    """Verdict on whether the initial data admit any admissible plan.

    ``discounted_cost`` is the finite-horizon integral of exp(-r t) c_m(t)
    plus the exponential tail bound; it upper-estimates the true infinite
    integral whenever the dominant mode controls the tail.  ``slack`` is
    k0 minus that cost; the verdict is feasible iff slack > 0.
    """

    cm: SampledPath
    kM: SampledPath
    discounted_cost: float
    tail_bound: float
    slack: float
    feasible: bool
    lambda0: float


def implicit_weight(params: ModelParams, dt: float, T: float) -> float:
    """Self-weight eps*dt/2 of a renewal step on [0, T]: ValueError if T < tau, StepError if >= 1."""
    if T < params.tau:
        raise ValueError(f"horizon T={T} must be at least one memory length tau={params.tau}")
    weight = params.eps * dt / 2.0
    if weight >= 1.0:
        raise StepError(f"eps*dt/2 = {weight:.3g} >= 1; raise n above {params.eps * params.tau / 2:.0f}")
    return weight


def minimal_consumption(
    params: ModelParams,
    history: HistoryGrid,
    T: float,
    n: int | None = None,
) -> SampledPath:
    """Integrate the renewal equation for c_m on [0, T] by the method of steps.

    At each node the trapezoid window makes c_m(t_j) appear on both sides
    with self-weight eps*dt/2; the scalar linear equation is solved
    exactly.  The window split at t = 0 keeps the history's left limit and
    c_m(0) (which generally differ) on their own segments.  Block by
    block, the part of each window on earlier blocks comes from one
    correlation over the previous memory length, and the block's own
    nodes from one prefix scan of the running sum (module docstring).
    """
    hist = history if n is None else history.resample(n)
    n = hist.n
    dt = hist.dt
    self_weight = implicit_weight(params, dt, T)
    steps = steps_for(T, dt)
    kernel = window_kernel(params.eta, dt, n)
    comp = np.zeros(steps + 1)
    hv = hist.values
    comp[0] = habit_of_history(hist, params)
    g = params.eps / (1.0 - self_weight)
    log_p = -params.eta * dt + math.log1p(g * dt)
    gain = math.exp(-params.eta * dt) * g * dt
    for lo in range(0, steps, n):
        hi = min(lo + n, steps)
        known = block_windows(hv, comp, lo, hi - lo, kernel)
        # U = 0 at lo + 1; the scan gives U at lo+2..hi
        comp[lo + 1] = g * known[0]
        comp[lo + 2 : hi + 1] = g * (known[1:] + linear_scan(log_p, gain * known[:-1], 0.0))
    return SampledPath(t=np.arange(steps + 1) * dt, values=comp)


def dominated_capital(params: ModelParams, k0: float, cm: SampledPath) -> SampledPath:
    """Capital path k_M(t) = exp(rt) * [k0 - integral of exp(-ru) c_m(u) du].

    Exact for the zero path (pure exponential growth); cumulative
    trapezoid otherwise.
    """
    r = params.r
    disc = cumulative_trapezoid(np.exp(-r * cm.t) * cm.values, cm.dt)
    return SampledPath(t=cm.t, values=np.exp(r * cm.t) * (k0 - disc))


def check_feasibility(
    params: ModelParams,
    init: InitialState,
    T: float | None = None,
    n: int | None = None,
    lambda0: float | None = None,
    cm: SampledPath | None = None,
) -> FeasibilityReport:
    """Decide whether k0 covers the discounted cost of the minimal plan.

    When the real root lambda0 of the habit kernel is at least r and the
    history is positive somewhere, the minimal plan grows too fast for any
    capital stock and the data are infeasible outright.  Otherwise the
    cost integral is truncated at T (default 8*tau) and closed with the
    tail bound C * exp((lambda0 - r) T) / (r - lambda0), where C is the
    max of c_m(t) exp(-lambda0 t) over the last memory length.  The bound
    is evaluated as max(c_m(t) exp(lambda0 (T - t))) * exp(-r T) / (r - lambda0),
    which never forms exp(-lambda0 t): that factor overflows when lambda0
    is very negative, while c_m has underflowed to zero.

    ``lambda0`` is the real root and ``cm`` the minimal plan on [0, T] at
    n nodes per tau, if the caller has them already: neither depends on
    k0 or on the preferences, so runs that share the habit kernel and the
    history can share them.
    """
    if T is None:
        T = DEFAULT_HORIZON * params.tau
    lam0 = real_root(params) if lambda0 is None else lambda0
    if cm is None:
        cm = minimal_consumption(params, init.history, T, n=n)
    kM = dominated_capital(params, init.k0, cm)
    r = params.r

    if lam0 >= r and init.history.is_positive_somewhere():
        cost = tail = math.inf
    else:
        window = cm.t >= cm.t[-1] - params.tau
        t_end = cm.t[-1]
        envelope = float(np.max(cm.values[window] * np.exp(lam0 * (t_end - cm.t[window]))))
        tail = envelope * math.exp(-r * t_end) / (r - lam0)
        cost = trap_dot(np.exp(-r * cm.t), cm.values, cm.dt) + tail
    slack = init.k0 - cost
    return FeasibilityReport(
        cm=cm,
        kM=kM,
        discounted_cost=cost,
        tail_bound=tail,
        slack=slack,
        feasible=slack > 0.0,
        lambda0=lam0,
    )
