"""Spectral analysis of the habit delay kernel.

Growth rates of the habit dynamics are the roots of the transcendental
characteristic function

    phi(lam) = 1 - eps * integral over [-tau, 0] of exp((lam + eta) u) du
             = 1 - eps * (1 - exp(-(lam + eta) tau)) / (lam + eta),

which is entire (the singularity at lam = -eta is removable, value
1 - eps*tau).  phi is strictly increasing on the reals, tends to -inf on
the left and to 1 on the right, and phi(eps - eta) = exp(-eps*tau) > 0,
so it has exactly one real root lambda0 < eps - eta.  Every complex root
has real part strictly below lambda0; the sign of phi(0) splits the
spectrum into three regimes (one unstable real root / all roots stable /
lambda0 = 0).

The dominance certificate counts zeros of the entire numerator

    a(lam) = (lam + eta) * phi(lam) = lam + eta - eps*(1 - exp(-(lam+eta) tau))

inside a rectangle straddling lambda0 by the argument principle.  a has
one extra non-characteristic zero at lam = -eta (the factor lam + eta
vanishes there while phi generally does not), which is added to the
expected count whenever it falls inside the box.

The contour is evaluated side by side in real arithmetic.  With
lam + eta = X + iY,

    a = X - eps + eps exp(-X tau) cos(Y tau) + i (Y - eps exp(-X tau) sin(Y tau)),

so each horizontal side (Y = -+Q) costs one real exp of its abscissae
times a scalar phase, and the two vertical sides (X fixed) share one
cos/sin of their ordinates: the left side's are the right side's
negated.  The winding sums the wrapped differences of consecutive
samples' phases arctan2(Im a, Re a), so every finite sample has a phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BracketError, ContourError, InconsistencyError
from .model import LOG_MAX, HistoryGrid, ModelParams
from .quadrature import trap_dot

#: switch to the power series of (1 - exp(-x*tau))/x when |x*tau| is below this
SERIES_SWITCH = 1e-4

#: wider window for the derivative: its direct numerator 1 - e^{-y}(1+y)
#: cancels at second order in y, so the series must take over sooner
PRIME_SERIES_SWITCH = 1e-2

#: bisection targets: residual |phi(lambda0)| and bracket width
ROOT_TOL = 1e-12

#: tolerance for classifying phi(0) as zero / matching the tag against lambda0
REGIME_TOL = 1e-10
TAG_MATCH_TOL = 1e-9


class RootRegime(Enum):
    """Three-way classification by the sign of phi(0)."""

    PositiveRoot = "positive-root"  # lambda0 > 0 is the only root with Re > 0
    NegativeRoots = "negative-roots"  # every root has Re < 0
    ZeroRoot = "zero-root"  # lambda0 = 0, all other roots have Re < 0


def phi(lam: float, params: ModelParams) -> float:
    """Characteristic function, singularity-safe near lam = -eta."""
    x = lam + params.eta
    y = x * params.tau
    if abs(y) < SERIES_SWITCH:
        return 1.0 - params.eps * params.tau * _em1_series(y)
    if -y > LOG_MAX:
        # exp(-y) overflows: eps (1 - exp(-y))/x = -expm1(y) exp(log_term) for x < 0
        log_term = math.log(params.eps) - math.log(-x) - y
        return -math.inf if log_term > LOG_MAX else 1.0 + math.expm1(y) * math.exp(log_term)
    return 1.0 - params.eps * (1.0 - math.exp(-y)) / x


def phi_prime(lam: float, params: ModelParams) -> float:
    """d(phi)/d(lam) = -eps * integral of u exp((lam+eta)u) du; always > 0."""
    x = lam + params.eta
    y = x * params.tau
    if abs(y) < PRIME_SERIES_SWITCH:
        # (1 - exp(-y)(1+y))/y^2 = 1/2 - y/3 + y^2/8 - y^3/30 + y^4/144 - y^5/840 + O(y^6)
        s = 1.0 / 2 + y * (-1.0 / 3 + y * (1.0 / 8 + y * (-1.0 / 30 + y * (1.0 / 144 - y / 840))))
        return params.eps * params.tau**2 * s
    return params.eps * (1.0 - math.exp(-y) * (1.0 + y)) / (x * x)


def real_root(params: ModelParams) -> float:
    """The unique real root lambda0 of phi, by bracketed bisection.

    The right end eps - eta always has phi = exp(-eps*tau) > 0; the left
    end is found by doubling downward until phi goes negative.  The root
    is refined until both |phi| < 1e-12 and the bracket is < 1e-12 wide.
    """
    hi = params.eps - params.eta
    step = 1.0
    lo = hi - step
    for _ in range(100):
        if phi(lo, params) < 0.0:
            break
        step *= 2.0
        lo = hi - step
    else:
        raise BracketError("no sign change found while doubling the bracket downward")

    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket at floating-point resolution
            break
        f_mid = phi(mid, params)
        if f_mid == 0.0:
            return mid
        if f_mid > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < ROOT_TOL and abs(f_mid) < ROOT_TOL:
            break
    # hi only moves to points where phi > 0, and the rounded midpoint of
    # lo < hi never exceeds hi, so the root stays below eps - eta
    return 0.5 * (lo + hi)


def regime(params: ModelParams, lambda0: float | None = None) -> RootRegime:
    """Classify the spectrum by the sign of phi(0) and cross-check lambda0."""
    s = phi(0.0, params)
    if abs(s) < REGIME_TOL:
        tag = RootRegime.ZeroRoot
    elif s < 0.0:
        tag = RootRegime.PositiveRoot
    else:
        tag = RootRegime.NegativeRoots
    lam0 = real_root(params) if lambda0 is None else lambda0
    ok = {
        RootRegime.PositiveRoot: lam0 > -TAG_MATCH_TOL,
        RootRegime.NegativeRoots: lam0 < TAG_MATCH_TOL,
        RootRegime.ZeroRoot: abs(lam0) < TAG_MATCH_TOL,
    }[tag]
    if not ok:
        raise InconsistencyError(
            f"regime tag {tag.value} disagrees with lambda0 = {lam0:.6g} (phi(0) = {s:.3g})"
        )
    return tag


def _em1_series(y):
    """(1 - exp(-y))/y = 1 - y/2 + y^2/6 - y^3/24 + y^4/120 - y^5/720 + O(y^6), float or array."""
    return 1.0 + y * (-1.0 / 2 + y * (1.0 / 6 + y * (-1.0 / 24 + y * (1.0 / 120 - y / 720))))


def _em1_over(y):
    """(1 - exp(-y))/y with the series branch near 0, elementwise."""
    y = np.asarray(y, dtype=float)
    small = np.abs(y) < SERIES_SWITCH
    series = _em1_series(np.where(small, y, 1.0))
    yd = np.where(small, 1.0, y)
    direct = (1.0 - np.exp(-yd)) / yd
    return np.where(small, series, direct)


def leading_coefficient(
    params: ModelParams, history: HistoryGrid, lambda0: float | None = None
) -> float:
    """Coefficient p0 of the dominant mode p0*exp(lambda0*t) of the kernel solution.

    The renewal equation is a convolution against eps*exp(-eta s) on [0, tau]
    forced by the history's fading contribution, so its transform is
    (forcing transform)/phi, and the residue at the simple root lambda0 is

        p0 = fhat(lambda0) / phi'(lambda0),
        fhat(lam) = eps * integral over [-tau, 0] of
                    c0(u) exp(eta u) (u + tau) * E((lam+eta)(u+tau)) du,

    with E(y) = (1 - exp(-y))/y (so fhat is smooth through lam = -eta).
    Trapezoid on the history grid; positive whenever the history is
    positive somewhere.  For the zero-root constant-history case this is
    exactly the constant the solution settles at.  ``lambda0`` is the real
    root if the caller has it already.
    """
    lam0 = real_root(params) if lambda0 is None else lambda0
    x = lam0 + params.eta
    grid = history.grid
    span = grid + params.tau
    integrand = history.values * np.exp(params.eta * grid) * span * _em1_over(x * span)
    fhat = params.eps * trap_dot(np.ones_like(integrand), integrand, history.dt)
    return fhat / phi_prime(lam0, params)


def _kernel_numerator(lam: np.ndarray, params: ModelParams) -> np.ndarray:
    """a(lam) = (lam + eta) phi(lam), entire and cheap on complex arrays."""
    z = lam + params.eta
    return z - params.eps * (1.0 - np.exp(-z * params.tau))


def _contour_values(
    params: ModelParams, re_lo: float, re_hi: float, im_half: float, side: np.ndarray, out: np.ndarray
) -> None:
    """a(lam) at the 4n boundary samples of count_zeros, side by side, into out.

    ``out[0]`` and ``out[1]`` (length 4n + 1) receive the real and
    imaginary parts: bottom, right, top and left side, n samples each
    from its starting corner, then the first sample again, which closes
    the contour.  With z = lam + eta = X + iY and E = exp(-X tau),

        a = X - eps + eps E cos(Y tau) + i (Y - eps E sin(Y tau)),

    so the horizontal sides (Y = -Q, +Q) need one real exp of their
    abscissae times the scalar phase of Q tau, and the vertical sides
    (X fixed) one cos/sin of their ordinates, shared by both since the
    left side's ordinates are the right side's negated.  The corners,
    where two of these expansions meet, are evaluated by
    ``_kernel_numerator``, the definition of a itself.
    """
    eps, eta, tau = params.eps, params.eta, params.tau
    n = len(side)
    re, im = out[0], out[1]
    bottom, right, top, left = (slice(k * n, (k + 1) * n) for k in range(4))
    shift = (re_hi - re_lo) * side
    for s, x, y in ((bottom, re_lo + shift, -im_half), (top, re_hi - shift, im_half)):
        X = x + eta
        E = np.exp(X * -tau)
        np.multiply(E, eps * math.cos(y * tau), out=re[s])
        re[s] += X - eps
        np.multiply(E, -eps * math.sin(y * tau), out=im[s])
        im[s] += y
    Y = -im_half + 2 * im_half * side  # the right side's ordinates; the left's are -Y
    C, S = np.cos(Y * tau), np.sin(Y * tau)
    for s, X, sign in ((right, re_hi + eta, 1.0), (left, re_lo + eta, -1.0)):
        eE = eps * np.exp(X * -tau)
        np.multiply(C, eE, out=re[s])
        re[s] += X - eps
        np.multiply(S, -sign * eE, out=im[s])
        im[s] += sign * Y
    corners = np.array([complex(re_lo, -im_half), complex(re_hi, -im_half),
                        complex(re_hi, im_half), complex(re_lo, im_half)])
    corners = _kernel_numerator(corners, params)
    re[0 : 4 * n : n], im[0 : 4 * n : n] = corners.real, corners.imag
    re[4 * n], im[4 * n] = re[0], im[0]


def count_zeros(
    params: ModelParams,
    re_lo: float,
    re_hi: float,
    im_half: float,
    points: int = 4096,
) -> int:
    """Zeros of a(lam) inside [re_lo, re_hi] x [-im_half, im_half] i.

    Argument-principle winding of the boundary image (``_contour_values``):
    the sum of consecutive samples' phase differences, each wrapped to
    [-pi, pi], over 2 pi.  The discretization is doubled up to three times
    if a sample is not finite or exactly zero, or the winding is not
    integral within 1e-3.
    """
    winding = math.nan  # stays nan if every attempt has an unusable sample
    for attempt in range(4):
        n = points * 2**attempt
        side = np.linspace(0.0, 1.0, n, endpoint=False)
        buf = np.empty((5, 4 * n + 1))
        _contour_values(params, re_lo, re_hi, im_half, side, buf)
        if not np.isfinite(buf[:2]).all():
            continue  # a sample overflowed
        re, im = buf[0], buf[1]
        zero = re == 0.0
        if zero.any() and (im[zero] == 0.0).any():
            continue  # a zero sits on a sample point; refine
        phase = np.arctan2(im, re, out=buf[2])
        step, turns = buf[3, :-1], buf[4, :-1]
        np.subtract(phase[1:], phase[:-1], out=step)
        np.rint(np.divide(step, 2.0 * math.pi, out=turns), out=turns)
        turns *= 2.0 * math.pi
        step -= turns
        winding = float(step.sum() / (2.0 * math.pi))
        if abs(winding - round(winding)) < 1e-3:
            return int(round(winding))
    raise ContourError(
        f"winding number {winding:.6f} not integral after refinement "
        f"(box [{re_lo:.4g},{re_hi:.4g}] x +-{im_half:.4g}i)"
    )


@dataclass(frozen=True)
class DominanceCertificate:
    """Outcome of the straddling-rectangle zero count around lambda0."""

    verified: bool
    winding: int
    expected: int
    margin: float
    im_half: float


def dominance_certificate(
    params: ModelParams,
    margin: float = 0.1,
    lambda0: float | None = None,
) -> DominanceCertificate:
    """Certify that lambda0 is the only characteristic root with Re >= lambda0 - margin
    in the strip |Im| <= im_half = 4*pi/tau.

    Counts zeros of a(lam) in the rectangle [lambda0 - margin, lambda0 + margin]
    x [-Q, Q] with Q = 4*pi/tau (characteristic roots of this kernel are spaced
    roughly 2*pi/tau apart in the imaginary direction).
    The expected count is 1 for lambda0 itself plus 1 if the non-characteristic
    zero of a at -eta falls inside the box.  ``lambda0`` is the real root if
    the caller has it already.
    """
    if margin <= 0.0:
        raise ValueError("margin must be > 0")
    lam0 = real_root(params) if lambda0 is None else lambda0
    im_half = 4.0 * math.pi / params.tau
    re_lo, re_hi = lam0 - margin, lam0 + margin
    # keep the removable point off the boundary samples
    if abs(re_lo + params.eta) < 1e-12 or abs(re_hi + params.eta) < 1e-12:
        re_lo -= 1e-9
        re_hi += 1e-9
    expected = 1
    if re_lo < -params.eta < re_hi:
        expected = 2
    winding = count_zeros(params, re_lo, re_hi, im_half)
    return DominanceCertificate(
        verified=(winding == expected),
        winding=winding,
        expected=expected,
        margin=margin,
        im_half=im_half,
    )


@dataclass(frozen=True)
class SpectralReport:
    """Everything downstream modules need to know about the kernel spectrum."""

    lambda0: float
    regime: RootRegime
    p0: float
    dominance_margin: float
    residual: float
    certificate: DominanceCertificate


def spectral_report(
    params: ModelParams,
    history: HistoryGrid,
    margin: float = 0.1,
) -> SpectralReport:
    """Solve, classify, and certify the kernel spectrum for one scenario.

    The real root is found once and handed to every step that needs it.
    """
    lam0 = real_root(params)
    cert = dominance_certificate(params, margin=margin, lambda0=lam0)
    return SpectralReport(
        lambda0=lam0,
        regime=regime(params, lam0),
        p0=leading_coefficient(params, history, lam0),
        dominance_margin=margin if cert.verified else 0.0,
        residual=phi(lam0, params),
        certificate=cert,
    )
