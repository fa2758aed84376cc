"""Brute-force finite-horizon check that the closed-loop path is optimal.

The continuous problem is truncated to [0, T] on a uniform grid whose
step divides tau.  A control vector (consumption at the nodes) is scored
by the discrete functional

    J(c) = trapezoid of exp(-rho t) (c - h)^(1-gamma)/(1-gamma)
           + exp(-rho T) * v(terminal state),

where the habit h is the trapezoid window of the concatenated path, the
capital path is the exact exponential formula with a cumulative-trapezoid
discounted-consumption integral, and the salvage term is the closed-form
value at the terminal state (along the optimum the discounted value is a
martingale, so salvage makes the truncation exact up to quadrature).

Everything here is deliberately independent of the closed-loop machinery:
utilities are summed directly from the control vector, and the maximizer
is a spectral projected gradient ascent driven by the exact discrete
adjoint gradient of J.  The excess and the terminal aggregate are affine
in the controls, so that gradient is one correlation of the weighted
marginal utilities against the habit kernel plus the salvage's terminal
sensitivity; it is derived from J alone, never from the closed-form
policy.  Its reference, ``fd_gradient``, re-evaluates J once per node
and shares nothing with it beyond ``evaluate_objective``.  Agreement
of max J with the closed-form value is then evidence, not circularity.

Each control goes through the forward pass once.  A ``DiscreteProblem``
keeps a one-entry cache: the last control it forward-simulated, keyed by
the exact bytes of the float64 vector, with its read-only habit and
``ObjectiveParts``.  So the candidate ``project_feasible`` returns
unchanged is scored, and its gradient taken, without correlating its
habit again.  A hit means the very same float64 values (0.0 and -0.0
differ, and a control mutated in place no longer matches), so it is
bitwise what a fresh evaluation gives.  The entry lives on the problem
instance; nothing is cached at module level.

A perturbation trial's bump spans at most 2 tau of the grid, so
for the length of its trial loop ``perturbation_test`` sets an anchor on
the problem: the clipped base control and its habit.  A control that
differs from the anchor only from node 1 on copies the anchor's habit and
correlates again, on the one path of a full habit, just the outputs its
change reaches (``DiscreteProblem._correlate``).  Each is the same dot
product over the same values, so the habit, and every score built on it,
is bitwise what it would be without the anchor.  The ascent sets no anchor.
"""

from __future__ import annotations

import math
import operator
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, InfeasibleControlError, NonConvergence, OptimalityViolation
from .hjb import habit_weight
from .model import InitialState, ModelParams, validate
from .quadrature import cumulative_trapezoid

#: relative slack used when checking constraints of candidate controls
FEAS_TOL = 1e-9


def _u(excess, gamma):
    """CES utility of the excess, elementwise; excess must be >= 0."""
    with np.errstate(divide="ignore"):
        return excess ** (1.0 - gamma) / (1.0 - gamma)


def grid_cells(tau: float, T: float, m: int) -> int:
    """Grid cells per memory length on ``m`` steps over [0, T].

    Raises DomainError unless the step T/m divides tau and T exceeds tau.
    """
    if not T > tau:
        raise DomainError(
            f"horizon T = {T:.6g} must exceed one memory length tau = {tau:.6g}",
            code="domain:grid",
        )
    dt = T / m
    n_tau = tau / dt
    if abs(n_tau - round(n_tau)) > 1e-9:
        raise DomainError(
            f"grid step T/m = {dt:.6g} must divide tau = {tau:.6g}", code="domain:grid"
        )
    n_tau = int(round(n_tau))
    if m <= n_tau:
        raise DomainError("horizon must exceed one memory length", code="domain:grid")
    return n_tau


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(slots=True)
class _Forward:
    """The forward pass of one control: its exact bytes, habit and score."""

    key: bytes
    habit: np.ndarray
    parts: ObjectiveParts | None = None


class DiscreteProblem:
    """Grid, kernels, and cached weights for the discrete objective.

    ``m`` steps on [0, T]; the step T/m must divide tau (the habit window
    must be a whole number of grid cells) and T must exceed tau.

    The problem remembers the last control it forward-simulated, keyed by
    the exact bytes of the float64 vector, with its habit and (once
    ``objective_breakdown`` has scored it) its ``ObjectiveParts``.
    ``habit`` and ``objective_breakdown`` look there first.  Their arrays
    are read-only, so a caller cannot alter what a later hit returns.

    ``_anchor`` is None, or the (control, habit) pair ``_correlate``
    splices into; only ``perturbation_test`` sets it, and it clears it
    when its trial loop ends.
    """

    def __init__(self, params: ModelParams, init: InitialState, T: float, m: int):
        der = validate(params)
        dt = T / m
        n_tau = grid_cells(params.tau, T, m)

        self.params = params
        self.derived = der
        self.init = init.resample(n_tau)
        self.T = T
        self.m = m
        self.dt = dt
        self.n_tau = n_tau
        self.t = np.arange(m + 1) * dt

        r = params.r
        # habit kernel eps*dt*exp(eta*(i dt - tau)), trapezoid-halved copy
        i = np.arange(n_tau + 1)
        self.kbase = params.eps * dt * np.exp(params.eta * (i * dt - params.tau))
        self.kerw = self.kbase.copy()
        self.kerw[0] *= 0.5
        self.kerw[-1] *= 0.5
        # split-window corrections at the history/control boundary
        hv = self.init.history.values
        self.hist_end = float(hv[-1])
        self.hist_absmax = float(np.max(np.abs(hv)))
        vH = np.zeros(m + 1)
        vC = np.zeros(m + 1)
        vC[0] = 0.5 * self.kbase[n_tau]
        mid = np.arange(1, n_tau)
        vH[mid] = 0.5 * self.kbase[n_tau - mid]
        vC[mid] = vH[mid]
        vH[n_tau] = 0.5 * self.kbase[0]
        self._vH = vH
        self._vC = vC

        self.disc_rho = np.exp(-params.rho * self.t)
        self.disc_r = np.exp(-r * self.t)
        self.grow_r = np.exp(r * self.t)
        wt = np.ones(m + 1)
        wt[0] = wt[-1] = 0.5
        self.wt = wt
        # quadrature weight of the running utility, dt * w * exp(-rho t)
        self.quad_w = dt * wt * self.disc_rho
        # terminal discounted window: integral over [T-tau, T] of e^{r(T-s)} c(s) ds
        self.wker = dt * np.exp(r * (params.tau - i * dt))
        self.wker[0] *= 0.5
        self.wker[-1] *= 0.5
        self.q = habit_weight(params)
        self.b = r + params.eta
        self._last: _Forward | None = None
        self._anchor: tuple[np.ndarray, np.ndarray] | None = None

    # -- constant pieces of the gradients ------------------------------------

    @cached_property
    def excess_patterns(self) -> tuple[np.ndarray, np.ndarray]:
        """d excess[i+l] / d c_i for l = 0..n_tau: generic node, and node 0.

        Coordinate 0 sits at the history/control breakpoint: it has halved
        influence on later habits and none on h_0.
        """
        p_generic = -self.kerw[::-1]  # dh_{i+l}/dc_i = kerw[n_tau - l] for i >= 1
        p_generic[0] += 1.0
        sens0 = 0.5 * self.kbase[::-1]
        sens0[0] = 0.0
        p0 = -sens0
        p0[0] += 1.0
        _read_only(p_generic, p0)
        return p_generic, p0

    @cached_property
    def terminal_sensitivity(self) -> np.ndarray:
        """dG_T/dc_i through k_T, h_T and the terminal window (constant in c)."""
        m = self.m
        dk_T = -self.dt * self.wt * np.exp(self.params.r * (self.T - self.t))
        tail = np.arange(m - self.n_tau, m + 1)
        dh_T = np.zeros(m + 1)
        dh_T[tail] = self.kerw[tail - (m - self.n_tau)]  # dh_m/dc_i = kerw[n_tau-(m-i)]
        dW_T = np.zeros(m + 1)
        dW_T[tail] = self.wker
        dG = self.derived.kappa0 * dk_T - dh_T / self.b + self.q * dW_T
        _read_only(dG)
        return dG

    # -- forward pass -------------------------------------------------------

    def _forward(self, controls: np.ndarray) -> _Forward:
        """The entry of a float64 control, correlating its habit on a miss."""
        key = controls.tobytes()
        last = self._last
        if last is None or last.key != key:
            h = self._correlate(controls)
            _read_only(h)
            last = self._last = _Forward(key, h)
        return last

    def habit(self, controls: np.ndarray) -> np.ndarray:
        """Habit at every node for the concatenated (history, controls) path.

        Read-only; the last control's habit is reused (see the class).
        """
        return self._forward(np.asarray(controls, dtype=float)).habit

    def _correlate(self, controls: np.ndarray) -> np.ndarray:
        """Habit outputs lo .. top - 1 from one sliding correlation.

        The concatenated path is the history, then the controls, the
        history's left limit and the control's start sharing the t = 0 slot;
        the correction vectors restore the half-weights both one-sided
        values carry in windows that straddle the jump.  Output i reads path
        slots i .. i + n_tau.

        Without an anchor, or with one the control differs from at node 0
        (which moves the t = 0 slot and every correction) or nowhere, lo = 0
        and top = m + 1: the whole habit.  Otherwise lo is the first node
        whose bits differ (as integers, so -0.0 and NaN payloads count),
        top = min(hi + n_tau, m) + 1, hi being the last, and the outputs go
        into a copy of the anchor's habit.
        """
        lo, top = 0, self.m + 1
        if self._anchor is not None:
            anchor, anchor_h = self._anchor
            changed = np.flatnonzero(controls.view(np.int64) != anchor.view(np.int64))
            if changed.size and changed[0] > 0:
                lo = int(changed[0])
                top = min(int(changed[-1]) + self.n_tau, self.m) + 1
        hv = self.init.history.values
        cc = np.concatenate([hv[:-1], [self.hist_end + controls[0]], controls[1:top]])
        h = np.correlate(cc[lo:], self.kerw, mode="valid")
        h -= self._vH[lo:top] * self.hist_end
        h -= self._vC[lo:top] * controls[0]
        if lo == 0:
            return h
        spliced = anchor_h.copy()
        spliced[lo:top] = h
        return spliced

    def capital(self, controls: np.ndarray) -> np.ndarray:
        """k(t) = e^{rt} (k0 - integral of e^{-ru} c(u) du), cumulative trapezoid."""
        k = cumulative_trapezoid(self.disc_r * controls, self.dt)
        np.subtract(self.init.k0, k, out=k)
        k *= self.grow_r
        return k

    def terminal_aggregate(self, controls: np.ndarray, k_T: float, h_T: float) -> float:
        W_T = float(self.wker @ controls[self.m - self.n_tau :])
        return self.derived.kappa0 * k_T - h_T / self.b + self.q * W_T

    def salvage(self, G_T: float) -> float:
        if G_T <= 0.0:
            return -math.inf
        return self.disc_rho[-1] * self.derived.nu * G_T ** (1.0 - self.params.gamma)


@dataclass(frozen=True)
class ObjectiveParts:
    """Breakdown of one objective evaluation."""

    J: float
    running: float
    salvage: float
    feasible: bool
    excess: np.ndarray
    habit: np.ndarray
    capital: np.ndarray


def objective_breakdown(problem: DiscreteProblem, controls: np.ndarray) -> ObjectiveParts:
    """Forward-simulate habit and capital from the controls and score them.

    The parts of the problem's last control are reused; their arrays are
    read-only.
    """
    controls = np.asarray(controls, dtype=float)
    if controls.shape != (problem.m + 1,):
        raise ValueError(f"controls must have shape ({problem.m + 1},)")
    entry = problem._forward(controls)
    if entry.parts is None:
        entry.parts = _score(problem, controls, entry.habit)
    return entry.parts


def _score(problem: DiscreteProblem, controls: np.ndarray, h: np.ndarray) -> ObjectiveParts:
    gamma = problem.params.gamma
    k = problem.capital(controls)
    excess = controls - h
    _read_only(k, excess)
    # a NaN makes every reduction NaN: scale 1, every comparison False
    c_min = float(controls.min())
    e_min = float(excess.min())
    tol = FEAS_TOL * max(1.0, float(controls.max()), -c_min)
    feasible = c_min >= -tol and e_min >= -tol and float(k.min()) >= -tol * problem.init.k0
    # some clipped excess is 0 exactly when the smallest excess is <= 0
    if not feasible or (gamma > 1.0 and e_min <= 0.0):
        return ObjectiveParts(-math.inf, -math.inf, 0.0, False, excess, h, k)
    u = _u(np.maximum(excess, 0.0), gamma)
    u *= problem.disc_rho
    running = problem.dt * float(u @ problem.wt)
    G_T = problem.terminal_aggregate(controls, float(k[-1]), float(h[-1]))
    salv = problem.salvage(G_T)
    return ObjectiveParts(running + salv, running, salv, math.isfinite(salv), excess, h, k)


def evaluate_objective(problem: DiscreteProblem, controls: np.ndarray) -> float:
    """Discrete objective value; -inf sentinel on any constraint violation."""
    return objective_breakdown(problem, controls).J


# -- gradients -----------------------------------------------------------------


def _default_fdh(controls: np.ndarray) -> float:
    return 1e-6 * max(1.0, float(np.mean(np.abs(controls))))


def gradient(problem: DiscreteProblem, controls: np.ndarray) -> np.ndarray:
    """Exact gradient of J, the discrete adjoint of the forward pass.

    With a_j = dt w_j exp(-rho t_j) u'(excess_j), the running part is
    sum_l a_{i+l} d excess_{i+l}/d c_i: one correlation of a against the
    generic excess pattern, with node 0's halved-influence row done
    separately.  The salvage adds salvage'(G_T) dG_T/dc_i.  For gamma < 1
    a node at zero excess has u' = inf while u(0) is finite; there the
    one-sided secant slope u(fdh)/fdh (fdh as in fd_gradient) is used.
    """
    controls = np.asarray(controls, dtype=float)
    gamma = problem.params.gamma
    base = objective_breakdown(problem, controls)
    if not math.isfinite(base.J):
        raise InfeasibleControlError("gradient needs a feasible base control")
    G_T = problem.terminal_aggregate(controls, float(base.capital[-1]), float(base.habit[-1]))
    exc = np.maximum(base.excess, 0.0)
    with np.errstate(divide="ignore"):
        du = exc**-gamma
    zero = exc == 0.0
    if np.any(zero):
        fdh = _default_fdh(controls)
        du[zero] = _u(fdh, gamma) / fdh
    a = problem.quad_w * du
    p_generic, p0 = problem.excess_patterns
    L = problem.n_tau + 1
    g = np.correlate(np.concatenate([a, np.zeros(L - 1)]), p_generic, mode="valid")
    g[0] = float(a[:L] @ p0)
    d_salvage = problem.disc_rho[-1] * problem.derived.nu * (1.0 - gamma) * G_T**-gamma
    return g + d_salvage * problem.terminal_sensitivity


def fd_gradient(problem: DiscreteProblem, controls: np.ndarray, fdh: float | None = None) -> np.ndarray:
    """Two-point forward differences (J(c + fdh e_i) - J(c)) / fdh, one coordinate at a time.

    The reference for ``gradient``: it re-evaluates J once per node, so
    it shares nothing with the adjoint beyond ``evaluate_objective``.
    """
    controls = np.asarray(controls, dtype=float)
    if fdh is None:
        fdh = _default_fdh(controls)
    J0 = evaluate_objective(problem, controls)
    if not math.isfinite(J0):
        raise InfeasibleControlError("fd_gradient needs a feasible base control")
    out = np.empty(problem.m + 1)
    for i in range(problem.m + 1):
        bumped = controls.copy()
        bumped[i] += fdh
        out[i] = (evaluate_objective(problem, bumped) - J0) / fdh
    return out


# -- feasibility restoration -------------------------------------------------


def project_feasible(problem: DiscreteProblem, controls: np.ndarray) -> np.ndarray:
    """Raise controls, left to right, until c >= max(h, 0) at every node.

    The habit at node i depends on the already-fixed past and on c_i
    itself through the endpoint weight, so the floor solves the scalar
    inequality exactly.  Raising a node only raises later habits, which
    later sweeps steps see; one pass restores feasibility of the habit
    constraint.  (Capital positivity is left to the objective's penalty
    or sentinel.)

    Fast path: one vectorized habit evaluation finds the first node whose
    slack c - h is not above a margin; the nodes before it keep their
    values in the sweep, which therefore starts there.  The margin exceeds
    the rounding gap between the correlation and the per-node dot
    products, so the result is bitwise that of the full sweep.
    """
    c = np.maximum(np.asarray(controls, dtype=float), 0.0)
    hv = problem.init.history.values
    n_tau = problem.n_tau
    # both routes sum n_tau + 3 terms whose magnitudes add up to at most
    # about scale (eps <= eta keeps the kernel mass below 1), so each is
    # within (n_tau + 3) * eps * scale of the exact habit
    scale = max(1.0, float(c.max()), problem.hist_absmax)
    margin = max(1e-12, 16 * (n_tau + 3) * np.finfo(float).eps) * scale
    slack = c - problem.habit(c)
    if float(slack.min()) > margin:
        return c
    tight = np.flatnonzero(slack <= margin)
    if tight.size == 0:  # only NaN slacks are not above the margin
        return c
    start = int(tight[0])

    kerw = problem.kerw
    self_w = kerw[-1]  # eps*dt/2, the weight of c_i in its own habit window
    # shared t = 0 slot as in habit(); c_i lives at cc[n_tau + i], and the
    # slots from the current node on still hold 0
    if start == 0:
        c0_floor = float(kerw @ hv)  # h_0 is the pure history window, no self term
        c[0] = max(c[0], c0_floor)
        start = 1
    cc = np.concatenate(
        [hv[:-1], [problem.hist_end + c[0]], c[1:start], np.zeros(problem.m + 1 - start)]
    )
    for i in range(start, problem.m + 1):
        known = float(kerw @ cc[i : i + n_tau + 1])
        known -= problem._vH[i] * problem.hist_end + problem._vC[i] * c[0]
        # cc slot of c_i still holds 0, so: c_i >= known + self_w * c_i
        floor = known / (1.0 - self_w)
        if c[i] < floor:
            c[i] = floor
        cc[n_tau + i] = c[i]
    return c


# -- perturbation sweep -------------------------------------------------------


@dataclass(frozen=True)
class PerturbationReport:
    """Outcome of the random feasible-perturbation sweep around a base control."""

    trials: int
    J_base: float
    max_gain: float
    improving: int
    tolerance: float


def perturbation_test(
    problem: DiscreteProblem,
    base_controls: np.ndarray,
    trials: int = 100,
    seed: int | None = 42,
    tol: float = 1e-6,
) -> PerturbationReport:
    """Throw smooth bumps and node spikes at the base control; none may win.

    Amplitudes are scaled to a fraction of the smallest excess so the
    habit constraint keeps a margin, and every candidate is re-projected
    onto feasibility before scoring.  Raises OptimalityViolation if any
    candidate beats the base by more than tol*|J_base|.

    The draws come from the call's own ``random.Random(seed)``, and each
    is derived from ``Random.random()`` (``uniform`` is documented as
    ``a + (b - a) * random()``), whose sequence for a given seed Python
    keeps across versions.  ``seed`` is a non-negative integer, or None
    for fresh entropy; a negative seed raises ValueError and any other
    type TypeError, where ``Random`` would fold or hash them.
    """
    if seed is not None:
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    base_controls = np.asarray(base_controls, dtype=float)
    base = objective_breakdown(problem, base_controls)
    if not math.isfinite(base.J):
        raise InfeasibleControlError("perturbation_test needs a feasible base control")
    margin = float(np.min(np.maximum(base.excess, 0.0)))
    scale = margin if margin > 0 else 0.1 * float(np.mean(base_controls) + 1.0)
    t = problem.t
    T = problem.T
    tau = problem.params.tau

    max_gain = -math.inf
    improving = 0
    # every candidate is projected, so its habit splices from the clipped base's
    anchor = np.maximum(base_controls, 0.0)
    problem._anchor = (anchor, problem.habit(anchor))
    try:
        for _ in range(trials):
            amp = rng.uniform(0.05, 0.4) * scale * (-1.0 if rng.random() < 0.5 else 1.0)
            bump = np.zeros_like(t)
            if rng.random() < 0.7:
                width = rng.uniform(0.5, 2.0) * tau
                start = rng.uniform(0.0, max(T - width, 1e-9))
                # the nodes with start <= t <= start + width
                lo = int(np.searchsorted(t, start, "left"))
                hi = int(np.searchsorted(t, start + width, "right"))
                bump[lo:hi] = np.sin(math.pi * (t[lo:hi] - start) / width) ** 2
            else:
                bump[int(rng.random() * (problem.m + 1))] = 1.0
            for _try in range(21):  # the amplitude, then up to 20 halvings of it
                J = evaluate_objective(problem, project_feasible(problem, base_controls + amp * bump))
                if math.isfinite(J):
                    break
                amp *= 0.5
            gain = J - base.J
            if gain > max_gain:
                max_gain = gain
            if gain > tol * abs(base.J):
                improving += 1
    finally:
        problem._anchor = None

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


# -- projected ascent ---------------------------------------------------------


@dataclass(frozen=True)
class AscentResult:
    controls: np.ndarray
    J: float
    iterations: int
    projections: int  # project_feasible calls, the start's included
    backtracks: int  # step halvings in the line search


def projected_ascent(
    problem: DiscreteProblem,
    start_controls: np.ndarray,
    iters: int = 500,
    target_value: float | None = None,
) -> AscentResult:
    """Spectral projected gradient ascent on the discrete objective.

    Exact adjoint gradients (``gradient``), preconditioned by the
    quadrature weight dt * w * exp(-rho t) (so a unit step means a unit
    move of the underlying consumption function), spectral step lengths
    measured in the same metric, s.(precond s) / (-s.y), and a
    nonmonotone backtracking line search.  The gradient is that of the
    discrete J itself and owes nothing to the closed-loop policy, so
    reaching the closed-loop value stays an independent check.  Stops
    early when the best value stalls; if ``target_value`` is given and
    unmet at a stall, raises NonConvergence.
    """
    c = project_feasible(problem, np.asarray(start_controls, dtype=float))
    projections, backtracks = 1, 0
    J = evaluate_objective(problem, c)
    if not math.isfinite(J):
        raise InfeasibleControlError("projected_ascent needs a feasible start")
    precond = problem.quad_w
    g = gradient(problem, c)
    step = 1.0 / max(float(np.max(np.abs(g / precond))), 1e-12)
    best_c, best_J = c.copy(), J
    recent = deque([J], maxlen=10)
    stall = 0
    it = 0
    for it in range(1, iters + 1):
        direction = g / precond
        ref = max(recent)
        accepted = False
        for _ in range(40):
            cand = project_feasible(problem, c + step * direction)
            projections += 1
            J_cand = evaluate_objective(problem, cand)
            if J_cand >= ref - 1e-12 * abs(ref):
                accepted = True
                break
            step *= 0.5
            backtracks += 1
        if not accepted:
            break
        g_new = gradient(problem, cand)
        s = cand - c
        y = g_new - g
        sy = -float(s @ y)  # positive curvature for a concave objective
        sps = float(s @ (precond * s))
        step = sps / sy if sy > 1e-300 else step * 2.0
        c, J, g = cand, J_cand, g_new
        recent.append(J)
        if J > best_J:
            gain = J - best_J
            best_c, best_J = c.copy(), J
            stall = 0 if gain > 1e-12 * abs(best_J) else stall + 1
        else:
            stall += 1
        if stall >= 30:
            break

    if target_value is not None and not best_J >= target_value:
        raise NonConvergence(
            f"ascent stalled at J={best_J:.9g} after {it} iterations, "
            f"short of the target {target_value:.9g}"
        )
    return AscentResult(
        controls=best_c,
        J=best_J,
        iterations=it,
        projections=projections,
        backtracks=backtracks,
    )
