"""Model parameters, derived constants, and sampled consumption histories.

The economy is an AK growth model: output A*k, depreciation delta, so
capital earns the constant rate r = A - delta.  Households discount at
rho and have CES curvature gamma over the excess of consumption above a
habit stock

    h(t) = eps * integral over [t-tau, t] of c(u) exp(eta*(u-t)) du,

with intensity eps, persistence eta, and memory length tau.  The standing
regime enforced by :func:`validate` is

    eps <= eta,   r > 0,   rho > r*(1 - gamma),

which guarantees a positive consumption rate alpha out of the aggregate
state, a balanced growth rate Gamma = (r - rho)/gamma, and a finite value
function.  The borderline gamma = 1 (log utility) is rejected rather than
special-cased so the utility scale nu has a single formula.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import DomainError, RegimeError
from .quadrature import exp_integral

#: grid points per memory length tau, unless a caller asks otherwise
DEFAULT_GRID = 200

#: the largest argument whose exp is a finite double
LOG_MAX = math.log(sys.float_info.max)

_POSITIVE_FIELDS = ("eps", "eta", "tau", "delta", "rho", "gamma")


@dataclass(frozen=True)
class ModelParams:
    """The seven scalars of the model.

    Construction checks only sign/domain constraints so that spectral and
    feasibility routines can probe parameter sets outside the standing
    regime; :func:`validate` enforces the regime itself.
    """

    eps: float  # habit intensity (1/time)
    eta: float  # habit persistence (1/time)
    tau: float  # habit memory length (time)
    A: float  # technology level (1/time)
    delta: float  # depreciation (1/time)
    rho: float  # discount rate (1/time)
    gamma: float  # utility curvature (dimensionless, != 1)

    def __post_init__(self):
        for name in _POSITIVE_FIELDS + ("A",):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}", code="domain:params")
        for name in _POSITIVE_FIELDS:
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be > 0, got {getattr(self, name)}", code="domain:params")
        if self.gamma == 1.0:
            raise DomainError("gamma = 1 (log utility) is not supported", code="domain:gamma")

    @property
    def r(self) -> float:
        """Net return on capital, A - delta."""
        return self.A - self.delta


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from a validated parameter set.

    alpha   consumption rate out of the aggregate state, (rho - r(1-gamma))/gamma
    Gamma   balanced growth rate, (r - rho)/gamma; identically r - alpha
    nu      value-function scale, alpha^(-gamma)/(1-gamma)
    kappa0  capital weight of the aggregate state,
            1 - eps*(1 - exp(-(r+eta)*tau))/(r+eta); positive in-regime
    lambda0 real characteristic root of the habit delay kernel, if set by ``with_lambda0``
    """

    alpha: float
    Gamma: float
    nu: float
    kappa0: float
    lambda0: float | None = None

    def with_lambda0(self, lambda0: float) -> "DerivedConstants":
        return replace(self, lambda0=lambda0)


@lru_cache(maxsize=None)
def validate(params: ModelParams) -> DerivedConstants:
    """Check the standing regime and return the derived constants.

    Total on finite inputs: either returns constants or raises an error
    naming the violated inequality, or ``regime:overflow`` when the value
    scale nu is 0 or beyond the range of a double.
    """
    r = params.r
    if r <= 0.0 or params.eps > params.eta:
        raise RegimeError(
            "growth regime violated: need r = A - delta > 0 and eps <= eta "
            f"(got r={r:.6g}, eps={params.eps:.6g}, eta={params.eta:.6g})",
            code="regime:growth",
        )
    if params.rho <= r * (1.0 - params.gamma):
        raise RegimeError(
            "finite-value condition violated: need rho > r*(1-gamma) "
            f"(got rho={params.rho:.6g} <= {r * (1.0 - params.gamma):.6g})",
            code="regime:finite-value",
        )
    alpha = (params.rho - r * (1.0 - params.gamma)) / params.gamma
    Gamma = (r - params.rho) / params.gamma
    try:
        nu = alpha ** (-params.gamma) / (1.0 - params.gamma)
    except (OverflowError, ZeroDivisionError):
        nu = math.inf
    if not 0.0 < abs(nu) < math.inf:
        raise RegimeError(
            f"value scale nu = alpha^(-gamma)/(1-gamma) = {nu:.6g} is not a finite nonzero double "
            f"(alpha={alpha:.6g}, gamma={params.gamma:.6g})",
            code="regime:overflow",
        )
    b = r + params.eta
    kappa0 = 1.0 - params.eps * (1.0 - math.exp(-b * params.tau)) / b
    return DerivedConstants(alpha=alpha, Gamma=Gamma, nu=nu, kappa0=kappa0)


@dataclass(frozen=True)
class HistoryGrid:
    """Uniform sampling of a consumption history on [-tau, 0].

    ``values[i]`` is c0 at -tau + i*tau/n for i = 0..n; the last entry is
    the left limit at 0 (the control takes over from 0 on).  Interpolation
    between nodes is piecewise linear, and every quadrature in the package
    uses the plain trapezoid rule on this grid.
    """

    tau: float
    values: np.ndarray
    # resample(n) results by n: the history is immutable, and a run asks
    # for its fine-grid copy once per pipeline (every row of a sweep)
    _resampled: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # hjb._windows' (h, W) by parameter set, which only it reads: the k0 rows of a sweep share them
    _windows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) < 3:
            raise DomainError("history needs at least 3 samples on [-tau, 0]", code="domain:history")
        if not np.all(np.isfinite(values)):
            raise DomainError("history samples must be finite", code="domain:history")
        if np.any(values < 0.0):
            raise DomainError("history samples must be >= 0", code="domain:history")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise DomainError("tau must be positive and finite", code="domain:history")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if not isinstance(other, HistoryGrid):
            return NotImplemented
        return self.tau == other.tau and np.array_equal(self.values, other.values)

    def __hash__(self):
        # equal grids have equal sample sums; the samples are immutable
        return hash((self.tau, len(self.values), float(self.values.sum())))

    @property
    def n(self) -> int:
        return len(self.values) - 1

    @property
    def dt(self) -> float:
        return self.tau / self.n

    @property
    def grid(self) -> np.ndarray:
        """The sample points -tau + i*dt."""
        return -self.tau + np.arange(self.n + 1) * self.dt

    def interp(self, u):
        """Piecewise-linear evaluation at u in [-tau, 0]."""
        return np.interp(u, self.grid, self.values)

    def resample(self, n: int) -> "HistoryGrid":
        """Same piecewise-linear history on an n-point-per-tau grid."""
        if n == self.n:
            return self
        if n not in self._resampled:
            self._resampled[n] = self.from_callable(self.interp, self.tau, n)
        return self._resampled[n]

    def is_positive_somewhere(self) -> bool:
        """Discrete reading of 'positive on a set of positive measure'."""
        return bool(np.any(self.values > 0.0))

    @classmethod
    def constant(cls, level: float, tau: float, n: int = DEFAULT_GRID) -> "HistoryGrid":
        return cls(tau, np.full(n + 1, float(level)))

    @classmethod
    def zero(cls, tau: float, n: int = DEFAULT_GRID) -> "HistoryGrid":
        return cls.constant(0.0, tau, n)

    @classmethod
    def from_callable(cls, f, tau: float, n: int = DEFAULT_GRID) -> "HistoryGrid":
        u = -tau + np.arange(n + 1) * (tau / n)
        return cls(tau, np.asarray(f(u), dtype=float))


@dataclass(frozen=True)
class InitialState:
    """Initial capital plus the consumption history feeding the habit."""

    k0: float
    history: HistoryGrid

    def __post_init__(self):
        if not (math.isfinite(self.k0) and self.k0 > 0.0):
            raise DomainError(f"k0 must be > 0, got {self.k0}", code="domain:k0")

    def resample(self, n: int) -> "InitialState":
        return InitialState(self.k0, self.history.resample(n))


def habit_of_history(history: HistoryGrid, params: ModelParams) -> float:
    """Initial habit level h(0) = eps * integral of c0(u) exp(eta*u) over [-tau, 0].

    Trapezoid on the history grid; converges at order 2 in the grid step.
    The one evaluation of h(0); hjb, the minimal plan and both integrators read it.
    """
    if abs(history.tau - params.tau) > 1e-12 * max(1.0, params.tau):
        raise DomainError(
            f"history memory {history.tau} does not match params.tau {params.tau}",
            code="domain:history",
        )
    return params.eps * exp_integral(history.values, params.eta, history.dt)
