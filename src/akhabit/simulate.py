"""Closed-loop optimal trajectories by two independent integrators.

Along the optimum the aggregate G grows exactly at the balanced rate
Gamma, so the excess of consumption over habit is the pure exponential

    c(t) - h(t) = Lambda * exp(Gamma t),      Lambda = alpha * G(0).

Two integrators produce the path:

* the integral form closes the loop through the policy c = h + alpha*G,
  evaluating the habit and the discounted consumption window by
  trapezoid at every node (the current consumption enters both windows
  linearly through the endpoint weight, and capital enters the policy
  through the one-step update, so each node is one scalar linear solve).
  The windows come one memory block at a time by the method of steps:
  one correlation over the previous block, plus a running sum of the
  current block's nodes, which stays a scalar loop on Python floats;

* the lambda form takes the exponential excess law as given and evolves
  the habit by its differentiated delay law
  dh/dt = eps*(c(t) - c(t-tau) exp(-eta tau)) - eta*h
  alongside capital, with a 4-stage explicit step.  The law is linear
  and its delayed input is known one memory block ahead (the method of
  steps), so the step is a precomputed 2x2 map y <- P y + b.  P is upper
  triangular, so a block of n steps is two prefix scans, h then k
  (``quadrature.linear_scan``, cut into sub-blocks whose powers of the
  step factor stay within e^(+-SCAN_SPAN)).

The two routes share only their start (``_start``, once per call: h(0),
G(0), Lambda, the slacks) and G's formula (``hjb.aggregate_of``).  The
lambda form's G column is its own window quadrature of its path, not
its ODE state.  So their agreement (``invariant_monitor``'s
``cross_method``) and the vanishing residual of the external-habit policy
formula along either path are the verification target, not an assumption.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import dde
from .decimal17 import encode_rows
from .errors import CoarseGridError, ConstraintError, InconsistencyError
from .hjb import _window_functionals, aggregate, aggregate_of, habit_weight
from .model import HistoryGrid, InitialState, ModelParams, validate
from .quadrature import (
    block_windows,
    cumulative_trapezoid,
    linear_scan,
    steps_for,
    window_integrals,
    window_kernel,
)

#: floor multiplier (times Lambda) for relative residual denominators
RESIDUAL_FLOOR = 1e-3


@dataclass(frozen=True)
class Trajectory:
    """One simulated closed-loop path on the uniform grid.

    ``lambda_check`` is the relative gap |c - h - Lambda e^(Gamma t)|
    against the predicted excess; ``external_residual`` the symmetric
    relative residual of the external-habit policy formula at each node,
    computed when first read.
    ``history`` is the consumption history at the simulation resolution,
    kept so that window quadratures can be re-run on the trajectory.
    """

    t: np.ndarray
    k: np.ndarray
    c: np.ndarray
    h: np.ndarray
    G: np.ndarray
    c_minus_h: np.ndarray
    lambda_check: np.ndarray
    Lambda: float
    Gamma: float
    history: HistoryGrid
    degenerate: bool = False
    # the parameters the path was simulated under, for external_residual
    _params: ModelParams = field(kw_only=True, repr=False, compare=False)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @functools.cached_property
    def external_residual(self) -> np.ndarray:
        # a window quadrature over the whole path, computed on first read
        return external_residual_profile(self, self._params)

    def write_csv(self, path) -> None:
        """CSV with one row per node, 17-significant-digit decimals."""
        write_csv(
            path,
            "t,k,c,h,G,c_minus_h,lambda_check,external_residual",
            (self.t, self.k, self.c, self.h, self.G, self.c_minus_h,
             self.lambda_check, self.external_residual),
        )


#: values formatted per chunk by write_csv (CSV_CHUNK // columns rows, at least
#: one); the chunk bounds the formatter's transient memory at about 90 bytes
#: per value (0.39 MB traced for a 100,000-row file), and a larger one saves
#: only the numpy calls' fixed cost of about 0.1 ms per chunk
CSV_CHUNK = 4096


def write_csv(path, header: str, columns) -> None:
    """CSV of equal-length columns under ``header``, 17-significant-digit decimals.

    The text is exactly that of ``'%.17g' % v`` for every value.  A chunk
    of rows is formatted at once by ``decimal17.encode_rows``, all columns
    in one vectorised pass with a per-value ``'%.17g'`` fallback, so
    memory stays bounded by the chunk.
    """
    step = max(1, CSV_CHUNK // len(columns))
    rows = len(columns[0])
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, rows, step):
            block = np.column_stack([col[lo : lo + step] for col in columns])
            fh.write(encode_rows(block))


@dataclass(frozen=True)
class MonitorReport:
    """Path-level invariant diagnostics for one trajectory."""

    g_drift: np.ndarray  # per-node |G - G0 e^(Gamma t)| / (G0 e^(Gamma t))
    g_drift_max: float
    lambda_gap_max: float  # max of the trajectory's lambda_check column
    cm_margin_min: float  # min over nodes of c - c_m (should be >= -quadrature noise)
    budget_residual: float  # |disc. consumption + disc. terminal capital - k0| / k0
    cross_method: float | None = None  # max over k, c, h of |ref - path|_max / |ref|_max


def lambda_constant(params: ModelParams, init: InitialState) -> float:
    """Level Lambda of the detrended excess consumption, from the initial data.

    Lambda = (r - Gamma) * G(0) with G(0) = kappa0*k0 - h0/(r+eta) + w*V0;
    equivalently alpha * G(0).  Both products are computed and must agree
    to rounding (the prefactors r - Gamma and alpha are the same number
    through different arithmetic).
    """
    return _lambda_of(params, aggregate(init.k0, init.history, params), init.k0)


def _lambda_of(params: ModelParams, G0: float, k0: float) -> float:
    der = validate(params)
    direct = (params.r - der.Gamma) * G0
    via_alpha = der.alpha * G0
    scale = abs(direct) + abs(via_alpha) + der.alpha * der.kappa0 * k0 + 1e-300
    if abs(direct - via_alpha) > 1e-8 * scale:
        raise InconsistencyError(
            f"Lambda forms disagree: (r - Gamma)*G={float(direct)!r} alpha*G={float(via_alpha)!r}"
        )
    return direct


def initial_capital_threshold(params: ModelParams, history: HistoryGrid) -> float:
    """Smallest k0 with Lambda > 0: k0* = (h0/(r+eta) - w*V0) / kappa0 = -G(k0=0) / kappa0."""
    return -aggregate(0.0, history, params) / validate(params).kappa0


def lambda_on_boundary(Lam: float, k0: float) -> bool:
    """The one rule for boundary data, |Lambda| <= 1e-10 * (1 + k0): a ``degenerate`` path, a rejected run."""
    return abs(Lam) <= 1e-10 * (1.0 + k0)


def _rk4_maps(r: float, a: float, dt: float) -> tuple[np.ndarray, ...]:
    """One 4-stage step of (k, h)' = (r k - h, a h) + f as linear maps.

    y(t+dt) = P y(t) + F0 f(t) + Fm f(t + dt/2) + F1 f(t + dt), found by
    applying the step to unit states and unit forcings (the step is linear
    in both, so these four 2x2 matrices are the whole step).
    """

    def rate(y, f):
        return r * y[0] - y[1] + f[0], a * y[1] + f[1]

    def step(y, f0, fm, f1):
        # Python floats in the order of the vector form: 2-vectors as
        # numpy arrays cost more to build than the step's arithmetic
        s1 = rate(y, f0)
        s2 = rate([u + 0.5 * dt * s for u, s in zip(y, s1)], fm)
        s3 = rate([u + 0.5 * dt * s for u, s in zip(y, s2)], fm)
        s4 = rate([u + dt * s for u, s in zip(y, s3)], f1)
        return [
            u + dt * (d1 + 2 * d2 + 2 * d3 + d4) / 6.0
            for u, d1, d2, d3, d4 in zip(y, s1, s2, s3, s4)
        ]

    zero = (0.0, 0.0)
    units = ((1.0, 0.0), (0.0, 1.0))
    return (
        np.column_stack([step(e, zero, zero, zero) for e in units]),
        np.column_stack([step(zero, e, zero, zero) for e in units]),
        np.column_stack([step(zero, zero, e, zero) for e in units]),
        np.column_stack([step(zero, zero, zero, e) for e in units]),
    )


def _rk4_log_growth(z: float) -> float:
    """log of the 4-stage step's factor 1 + z + z^2/2 + z^3/6 + z^4/24 for y' = a y, z = a dt.

    The diagonal of ``_rk4_maps``'s P, but from log1p of the increment: a
    factor rounded next to 1 loses the increment's low digits, a relative
    error in the growth rate of up to ulp(1)/|z| that the scan's powers
    would compound over every step.  The factor is positive for every real
    z (an even Taylor polynomial of exp), so the log exists.
    """
    return math.log1p(z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))))


def _rk4_linear_coeffs(r: float, dt: float) -> tuple[float, float, float]:
    """k(t+dt) = a*k(t) + b*c(t) + d*c(t+dt) for dk/dt = r k - c, c linear in t."""
    P, F0, Fm, F1 = _rk4_maps(r, 0.0, dt)
    half = 0.5 * Fm[0, 0]  # c(t + dt/2) = (c(t) + c(t+dt)) / 2
    return float(P[0, 0]), -float(F0[0, 0] + half), -float(F1[0, 0] + half)


def _start(params, init, n, T):
    """A path's start, each part computed once: der, the history on the grid, G(0), Lambda under the
    boundary rule, node times, k, c, h with k(0) and h(0) set, and the slacks of c >= h and k >= 0."""
    der = validate(params)
    hist = init.history if n is None else init.history.resample(n)
    h0, W0 = _window_functionals(hist, params)
    G0 = aggregate_of(init.k0, h0, W0, params)
    Lam = _lambda_of(params, G0, init.k0)
    degenerate = lambda_on_boundary(Lam, init.k0)
    if Lam < 0.0 and not degenerate:
        raise ConstraintError(
            f"consumption would start below the habit: Lambda = {Lam:.6g} < 0 "
            f"(k0 below the threshold {initial_capital_threshold(params, hist):.6g})",
            t=0.0,
        )
    if degenerate:
        warnings.warn(
            "Lambda = 0: consumption is pinned to the habit along the whole path "
            "(degenerate boundary initial data)",
            stacklevel=3,
        )
    steps = steps_for(T, hist.dt)
    t = np.arange(steps + 1) * hist.dt
    k, c, h = np.empty(steps + 1), np.zeros(steps + 1), np.empty(steps + 1)
    k[0] = init.k0
    h[0] = h0
    c_tol = 1e-9 * (abs(h0) + abs(Lam) + 1.0)
    k_tol = 1e-9 * init.k0
    return der, hist, G0, Lam, degenerate, t, k, c, h, c_tol, k_tol


def _finalize(params, der, hist, Lam, degenerate, t, k, c, h, G):
    c_minus_h = c - h
    if Lam > 0.0:
        growth = np.exp(der.Gamma * t)
        lam_check = np.abs(c_minus_h - Lam * growth) / (Lam * (growth + RESIDUAL_FLOOR))
    else:
        lam_check = np.abs(c_minus_h)
    return Trajectory(
        t=t,
        k=k,
        c=c,
        h=h,
        G=G,
        c_minus_h=c_minus_h,
        lambda_check=lam_check,
        Lambda=Lam,
        Gamma=der.Gamma,
        history=hist,
        degenerate=degenerate,
        _params=params,
    )


def simulate_integral_form(
    params: ModelParams,
    init: InitialState,
    T: float,
    n: int | None = None,
) -> Trajectory:
    """Close the loop through the policy c = h + alpha*G, one window sum per node.

    At each node the habit and the discounted window are trapezoid sums
    over the stored concatenated path (split at t = 0 for the first n
    nodes), taken block by block: one correlation over the previous
    memory length per block (``quadrature.block_windows``, against
    kernels built once per call), plus running sums of the block's own
    nodes kept inline on Python floats.  The unknown c(t_j) enters both
    through the endpoint weight and enters capital through the one-step
    update, so it solves a scalar linear equation.  Capital advances with
    a 4-stage explicit step treating c as linear over the step.  The loop
    stays scalar: a 4x4 block map of this step excites the e^(rt) saddle
    mode with its rounding.  The constraints are checked once per block,
    and the first violating node is reported.
    """
    der, hist, G0, Lam, degenerate, t, k, c, h, c_tol, k_tol = _start(params, init, n, T)
    n, dt = hist.n, hist.dt
    r = params.r
    b = r + params.eta
    q = habit_weight(params)
    alpha, kappa0 = der.alpha, der.kappa0
    h_kernel = window_kernel(params.eta, dt, n)
    W_kernel = window_kernel(-r, dt, n)
    a_rk, b_rk, d_rk = _rk4_linear_coeffs(r, dt)

    h_gain, k_gain, W_gain = 1.0 - alpha / b, alpha * kappa0, alpha * q
    half_eps_dt = params.eps * dt / 2.0
    self_weight = half_eps_dt * h_gain + k_gain * d_rk + W_gain * (dt / 2.0)
    if self_weight >= 1.0:
        raise CoarseGridError(f"implicit weight {self_weight:.3g} >= 1 at n={n}; raise n")

    hv = hist.values
    steps = len(t) - 1
    W_known = np.empty_like(k)
    c[0] = h[0] + alpha * G0
    eps = params.eps
    implicit = 1.0 - self_weight
    h_decay, W_decay = math.exp(-params.eta * dt), math.exp(r * dt)
    k_prev, c_prev = float(k[0]), float(c[0])
    for lo in range(0, steps, n):
        hi = min(lo + n, steps)
        h_windows = block_windows(hv, c, lo, hi - lo, h_kernel).tolist()
        W_windows = block_windows(hv, c, lo, hi - lo, W_kernel).tolist()
        cs, ks, hs, Ws = [], [], [], []
        add_c, add_k, add_h, add_W = cs.append, ks.append, hs.append, Ws.append
        h_inner = W_inner = 0.0
        for h_window, W_window in zip(h_windows, W_windows):
            h_known = eps * (h_window + h_inner)
            W_j = W_window + W_inner
            carry = a_rk * k_prev + b_rk * c_prev
            c_prev = (h_known * h_gain + k_gain * carry + W_gain * W_j) / implicit
            k_prev = carry + d_rk * c_prev
            add_c(c_prev)
            add_k(k_prev)
            add_h(h_known + half_eps_dt * c_prev)
            add_W(W_j)
            h_inner = h_decay * (h_inner + dt * c_prev)
            W_inner = W_decay * (W_inner + dt * c_prev)
        new = slice(lo + 1, hi + 1)
        c[new], k[new], h[new], W_known[new] = cs, ks, hs, Ws
        bad = (c[new] < h[new] - c_tol) | (k[new] < -k_tol)
        if bad.any():
            j = lo + 1 + int(np.argmax(bad))
            raise ConstraintError(
                f"constraint violated at t={j * dt:.6g}: c={c[j]:.6g}, h={h[j]:.6g}, k={k[j]:.6g}",
                t=j * dt,
            )
    G = np.append(G0, aggregate_of(k[1:], h[1:], W_known[1:] + (dt / 2.0) * c[1:], params))
    traj = _finalize(params, der, hist, Lam, degenerate, t, k, c, h, G)
    # every run judges this path by its external-policy residual, so the
    # residual is computed with the path; the lambda form's stays unread
    traj.external_residual
    return traj


def simulate_lambda_form(
    params: ModelParams,
    init: InitialState,
    T: float,
    n: int | None = None,
) -> Trajectory:
    """Integrate c = h + Lambda e^(Gamma t) with the differentiated habit law.

    The pair (k, h) evolves by a 4-stage explicit step; the delayed
    consumption c(t - tau) is read from the stored path, one linear
    segment per step (the segment switches from the history to the
    computed path exactly at t = tau, which keeps the jump of the
    concatenation at zero on the correct side of each step).

    The law is linear in (k, h), and by the method of steps its forcing
    (the excess and the delayed consumption) is known one memory block of
    n steps ahead.  The step is the linear map y <- P y + b of
    ``_rk4_maps``, and P is upper triangular (h never sees k), so each
    block is two prefix scans (``quadrature.linear_scan``): one for h,
    then one for k driven by that h.  The forcing maps and the excess
    exponentials over one block are built once per call; a block scales
    them by Lambda e^(Gamma t_lo).  The constraints are checked once per
    block, and the first violating node is reported.
    """
    der, hist, _, Lam, degenerate, t, k, c, h, c_tol, k_tol = _start(params, init, n, T)
    n, dt = hist.n, hist.dt
    r = params.r
    eps, eta = params.eps, params.eta
    Gamma = der.Gamma
    decay = math.exp(-eta * params.tau)
    P, F0, Fm, F1 = _rk4_maps(r, eps - eta, dt)
    log_pk, log_ph = _rk4_log_growth(r * dt), _rk4_log_growth((eps - eta) * dt)
    p_kh = float(P[0, 1])
    # per unit of Lambda e^(Gamma t_lo): the excess forcing of steps lo..lo+n-1
    # (k rate -excess, h rate +eps*excess at both ends and the midpoint)
    # and the excess at nodes lo..lo+n
    grow = np.exp(Gamma * dt * np.arange(n + 1))
    grow_mid = np.exp(Gamma * dt * (np.arange(n) + 0.5))
    excess_forcing = (
        np.outer(eps * F0[:, 1] - F0[:, 0], grow[:-1])
        + np.outer(eps * Fm[:, 1] - Fm[:, 0], grow_mid)
        + np.outer(eps * F1[:, 1] - F1[:, 0], grow[1:])
    )
    # the delayed consumption enters the h rate as -eps*decay*c(t - tau)
    delayed = -eps * decay * np.stack([F0[:, 1], Fm[:, 1], F1[:, 1]], axis=1)

    hv = hist.values
    c[0] = h[0] + Lam
    steps = len(t) - 1
    for lo in range(0, steps, n):
        hi = min(lo + n, steps)
        m = hi - lo
        # delayed consumption at both ends of steps lo..hi-1: the history in
        # the first block, the computed path one block back afterwards
        if lo == 0:
            v0, v1 = hv[:hi], hv[1 : hi + 1]
        else:
            v0, v1 = c[lo - n : hi - n], c[lo - n + 1 : hi - n + 1]
        forcing = delayed @ np.stack([v0, 0.5 * (v0 + v1), v1])
        level = Lam * math.exp(Gamma * t[lo])
        forcing += level * excess_forcing[:, :m]
        new = slice(lo + 1, hi + 1)
        h[new] = linear_scan(log_ph, forcing[1], h[lo])
        k[new] = linear_scan(log_pk, forcing[0] + p_kh * h[lo:hi], k[lo])
        c[new] = h[new] + level * grow[1 : m + 1]
        bad = (c[new] < h[new] - c_tol) | (k[new] < -k_tol)
        if bad.any():
            j = lo + 1 + int(np.argmax(bad))
            raise ConstraintError(f"constraint violated at t={j * dt:.6g}", t=j * dt)

    # G is a window quadrature of the path, not the ODE state: its drift is a genuine diagnostic
    G = aggregate_of(k, eps * window_integrals(hv, c, eta, dt), window_integrals(hv, c, -r, dt), params)
    return _finalize(params, der, hist, Lam, degenerate, t, k, c, h, G)


def external_residual_profile(traj: Trajectory, params: ModelParams) -> np.ndarray:
    """Node-wise residual of the external-habit closed-loop policy formula.

    The formula determines (c - h)/(r - Gamma) from k, h, and the
    r-discounted window of past consumption; along the optimal internal
    path it must hold identically, so the symmetric relative residual
    |lhs - rhs| / (|lhs| + |rhs| + floor) is zero up to quadrature noise.
    """
    r = params.r
    b = r + params.eta
    k, c, h = traj.k, traj.c, traj.h
    coef = params.eps * math.exp(-params.eta * params.tau) * math.exp(-r * params.tau)
    floor = RESIDUAL_FLOOR * max(traj.Lambda, 0.0) + 1e-300
    W = window_integrals(traj.history.values, c, -r, traj.dt)
    lhs = (c - h) / (r - traj.Gamma)
    rhs = k - (h + params.eps * (1.0 - math.exp(-b * params.tau)) * k - coef * W) / b
    return np.abs(lhs - rhs) / (np.abs(lhs) + np.abs(rhs) + floor)


def external_policy_residual(traj: Trajectory, params: ModelParams) -> float:
    """Max node-wise external-policy residual along the trajectory."""
    return float(np.max(external_residual_profile(traj, params)))


def invariant_monitor(
    traj: Trajectory,
    params: ModelParams,
    init: InitialState,
    cm: dde.SampledPath | None = None,
    reference: Trajectory | None = None,
) -> MonitorReport:
    """Check the exponential G law, the excess law, the lower consumption
    bound, and the discounted budget identity along one trajectory, and
    its agreement with the other integrator's path.

    ``cm`` is the minimal plan on the trajectory's grid, at least as long
    as the path; a run passes the one its feasibility check computed
    (``FeasibilityReport.cm``), so c_m is integrated once per run.
    Without it the monitor integrates c_m itself.  ``reference`` is the
    other integrator's path on the same grid, for ``cross_method`` (a run
    passes the integral form when it monitors the lambda form).
    """
    G_ref = traj.G[0] * np.exp(traj.Gamma * traj.t)
    g_drift = np.abs(traj.G - G_ref)
    if traj.G[0] > 0.0:
        g_drift /= G_ref
    if cm is None:
        cm = dde.minimal_consumption(params, traj.history, float(traj.t[-1]))
    margin = traj.c - cm.values[: len(traj.c)]
    r = params.r
    disc = cumulative_trapezoid(np.exp(-r * traj.t) * traj.c, traj.dt)
    budget = abs(disc[-1] + math.exp(-r * traj.t[-1]) * traj.k[-1] - init.k0) / init.k0
    cross = None if reference is None else max(
        (abs(a - b).max() / abs(a).max()).item()
        for a, b in ((reference.k, traj.k), (reference.c, traj.c), (reference.h, traj.h))
    )
    return MonitorReport(
        g_drift=g_drift,
        g_drift_max=float(np.max(g_drift)),
        lambda_gap_max=float(np.max(traj.lambda_check)),
        cm_margin_min=float(np.min(margin)),
        budget_residual=budget,
        cross_method=cross,
    )
