"""Explicit value function, aggregate state functional, and feedback policy.

A point of the controlled system is capital k together with the recent
consumption window; the habit and every functional below are quadratures
of that window.  The scalar aggregate

    G = kappa0 * k - integral over [-tau, 0] of exp(r s) x1(s) ds,
    x1(s) = eps * integral over [-tau, s] of c~(t + u - s) exp(eta u) du,

collapses the infinite-dimensional state to one number on which the value
function is a pure power, v = nu * G^(1-gamma), and the optimal policy is
affine: c = h + alpha * G.  Integrating the double integral by parts
reduces it to a single window quadrature,

    h/(r+eta) - eps*exp(-(r+eta)tau)/(r+eta) *
        integral over [t-tau, t] of exp(r (t-s)) c~(s) ds,

which is the form used throughout the package (``aggregate_of``, the
one formula for G); G_value evaluates both forms and cross-checks them.

The HJB residual assembles rho*v - H from the three scalar pieces that
survive the reduction (no gradient object is ever materialized): the
drift pairing h + r*G, the maximized control term, and the habit pairing.
For states assembled from genuine consumption windows the inner component
vanishes at -tau by construction, which is the domain condition the drift
identity needs.

``state_values`` is the one evaluation of G, v, the feedback consumption
and the residual; ``value_function``, ``feedback`` and ``hjb_residual``
each return one of its entries, and ``current_value_hamiltonian`` reuses
its drift pairing and B*Dv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MismatchError
from .model import HistoryGrid, ModelParams, habit_of_history, validate
from .quadrature import exp_integral, exp_weights

#: relative disagreement between the two G quadrature forms that flags a
#: too-coarse grid
G_MISMATCH_TOL = 1e-6


@dataclass(frozen=True)
class StateSample:
    """Capital plus the consumption window over [t - tau, t], re-based to [-tau, 0]."""

    k: float
    past_c: HistoryGrid

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k >= 0.0):
            raise DomainError(f"capital must be finite and >= 0, got {self.k}", code="domain:k")


def habit_weight(params: ModelParams) -> float:
    """Weight eps*exp(-(r+eta)tau)/(r+eta) of the discounted window integral in G."""
    b = params.r + params.eta
    return params.eps * math.exp(-b * params.tau) / b


def _window_functionals(history: HistoryGrid, params: ModelParams) -> tuple[float, float]:
    """(habit h, discounted window W) of a consumption window re-based to [-tau, 0].

    W = integral over [t-tau, t] of exp(r (t-s)) c~(s) ds, re-based.
    """
    return habit_of_history(history, params), exp_integral(history.values, -params.r, history.dt)


def _windows(history: HistoryGrid, params: ModelParams) -> tuple[float, float]:
    """(h, W) of a window by ``_window_functionals``, kept on it per parameter set (solvers never read it)."""
    pair = history._windows.get(params)
    if pair is None:
        pair = history._windows[params] = _window_functionals(history, params)
    return pair


def aggregate_of(k, h, W, params: ModelParams):
    """The aggregate G = kappa0*k - h/(r+eta) + w*W from capital, habit and discounted window.

    The one formula for G, on scalars or on whole paths: ``aggregate``,
    ``G_value`` and both simulated paths' G columns evaluate it.  The
    oracle keeps its own terminal G on its own grid and kernel, because its
    salvage is part of the independent optimality check.
    """
    return validate(params).kappa0 * k - h / (params.r + params.eta) + habit_weight(params) * W


def aggregate(k: float, history: HistoryGrid, params: ModelParams) -> float:
    """G from capital and a window (its (h, W) from ``_windows``): G(0) for Lambda and k0*."""
    return aggregate_of(k, *_windows(history, params), params)


def inner_component(past_c: HistoryGrid, params: ModelParams) -> np.ndarray:
    """Inner component x1 of G at the window nodes s_q = (q - n) dt, q = 0..n.

    x1(s) = eps * integral over [-tau, s] of c~(u - s) exp(eta u) du, and
    node q is the trapezoid sum of w_i * v[n-q+i] over i = 0..q with
    w_i = exp(eta (i - n) dt).  Since w_i = exp(eta (q - n) dt) * w_(n-q+i),
    all n+1 sums come from one reversed running sum of w * v, less the
    two half end terms.  This route shares no kernel with ``aggregate``,
    so the direct form stays an independent check of the reduced one.
    """
    v = past_c.values
    n = past_c.n
    w = exp_weights(params.eta, past_c.dt, n)
    running = np.cumsum((w * v)[::-1])
    ends = 0.5 * (w[0] * v[::-1] + w * v[n])
    return params.eps * past_c.dt * (w * running - ends)


def G_value(state: StateSample, params: ModelParams, mismatch_tol: float = G_MISMATCH_TOL) -> float:
    """Aggregate state functional G, computed by both quadrature forms.

    The direct form builds the inner component x1 on the grid and applies
    the outer exp(r s) quadrature; the reduced form is the single-window
    expression.  They are the same integral, so disagreement beyond
    ``mismatch_tol`` (relative to the term scale, not the possibly
    cancelled result) signals a grid too coarse for the state.  Returns
    the reduced form.
    """
    der = validate(params)
    reduced = aggregate_of(state.k, *_windows(state.past_c, params), params)
    second_reduced = der.kappa0 * state.k - reduced

    second_direct = exp_integral(inner_component(state.past_c, params), params.r, state.past_c.dt)
    direct = der.kappa0 * state.k - second_direct

    scale = abs(der.kappa0 * state.k) + abs(second_reduced) + abs(second_direct) + 1e-300
    if abs(direct - reduced) > mismatch_tol * scale:
        raise MismatchError(
            f"G quadrature forms disagree: direct={float(direct)!r} reduced={float(reduced)!r} "
            f"(relative {abs(direct - reduced) / scale:.3g}); grid too coarse"
        )
    return reduced


def state_values(state: StateSample, params: ModelParams) -> dict[str, float]:
    """G, v, the feedback consumption and the HJB residual of one state, from one G evaluation.

    The residual is rho*v - H(x, Dv).  Its drift pairing uses the closed
    identity h + r*G (integration by parts with the window vanishing at
    its left end) instead of differentiating quadrature output.  Zero up
    to rounding for any state with G > 0; this checks the algebra tying
    nu and alpha together, not the quadrature.
    """
    return _assemble(state, params)[0]


def _assemble(state: StateSample, params: ModelParams) -> tuple[dict[str, float], float, float, float]:
    """``state_values``' entries, and the (h, drift pairing, B*Dv) the Hamiltonian reuses."""
    der = validate(params)
    gamma = params.gamma
    G = G_value(state, params)
    if G <= 0.0:
        raise DomainError(f"state outside the value region: G = {G:.6g} <= 0", code="domain:G")
    h = _windows(state.past_c, params)[0]
    v = der.nu * G ** (1.0 - gamma)
    bstar_dv = -(1.0 - gamma) * der.nu * G ** (-gamma)
    drift_pairing = -bstar_dv * (h + params.r * G)
    control_term = (gamma / (1.0 - gamma)) * (-bstar_dv) ** ((gamma - 1.0) / gamma)
    hamiltonian = drift_pairing + control_term + h * bstar_dv
    values = {"G": G, "v": v, "c_feedback": h + der.alpha * G, "hjb_residual": params.rho * v - hamiltonian}
    return values, h, drift_pairing, bstar_dv


def value_function(state: StateSample, params: ModelParams) -> float:
    """v = nu * G^(1-gamma); defined only inside the region G > 0."""
    return state_values(state, params)["v"]


def feedback(state: StateSample, params: ModelParams) -> float:
    """Optimal consumption c = h + alpha*G; strictly above the habit when G > 0."""
    return state_values(state, params)["c_feedback"]


def hjb_residual(state: StateSample, params: ModelParams) -> float:
    """rho*v - H(x, Dv), see ``state_values``."""
    return state_values(state, params)["hjb_residual"]


def current_value_hamiltonian(state: StateSample, params: ModelParams, c: float) -> float:
    """H_CV at the state's own gradient, as a function of the control c.

    u(c - h) + <drift, Dv> + c * B*Dv, with u = -inf below the habit (the
    addiction convention).  The feedback consumption is its unique
    maximizer over c >= h.
    """
    gamma = params.gamma
    _, h, drift_pairing, bstar_dv = _assemble(state, params)
    excess = c - h
    if excess < 0.0 or (excess == 0.0 and gamma > 1.0):
        return -math.inf
    utility = excess ** (1.0 - gamma) / (1.0 - gamma)
    return utility + drift_pairing + c * bstar_dv


def value_bound_coefficient(params: ModelParams) -> float:
    """Coefficient M bounding the value function by M * k^(1-gamma).

    For gamma < 1 it is an upper bound,
        M+ = rho * Gamma(1+gamma) / ((1-gamma) * (gamma*alpha)^(1+gamma)),
    the closed form of the discounted-moment integral in the finiteness
    argument (the rho factor comes from the integration by parts that
    introduces the running utility integral).  For gamma > 1 it is the
    lower bound M- = r^(1-gamma) / (rho*(1-gamma)) < 0, attained when the
    whole capital income can be consumed on top of the minimal plan.
    """
    der = validate(params)
    gamma = params.gamma
    if gamma < 1.0:
        return (
            params.rho
            * math.gamma(1.0 + gamma)
            / ((1.0 - gamma) * (gamma * der.alpha) ** (1.0 + gamma))
        )
    return params.r ** (1.0 - gamma) / (params.rho * (1.0 - gamma))
