"""Exception hierarchy for the package.

Every rejection carries a short machine-greppable ``code`` (used by the CLI
for its single-line reason output) plus a human-readable message.
"""

from __future__ import annotations


class AkHabitError(Exception):
    """Base class; ``code`` is a stable, greppable identifier."""

    code = "error"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class DomainError(AkHabitError):
    """A quantity is outside its mathematical domain (bad sign, gamma = 1, ...)."""

    code = "domain"


class RegimeError(AkHabitError):
    """Parameters violate a standing assumption of the model regime."""

    code = "regime"


class BracketError(AkHabitError):
    """Root bracketing failed to find a sign change."""

    code = "spectral:bracket"


class InconsistencyError(AkHabitError):
    """Two routes to the same quantity disagree beyond tolerance."""

    code = "spectral:inconsistent"


class ContourError(AkHabitError):
    """Contour winding number failed to converge to an integer."""

    code = "spectral:contour"


class StepError(AkHabitError):
    """Integration grid too coarse for the implicit quadrature step."""

    code = "dde:step"


class CoarseGridError(AkHabitError):
    """Closed-loop implicit solve has self-weight >= 1; raise n."""

    code = "simulate:coarse-grid"


class MismatchError(AkHabitError):
    """The two quadrature forms of the state functional disagree."""

    code = "hjb:mismatch"


class ConstraintError(AkHabitError):
    """A simulated path violated a hard constraint (c >= h or k >= 0)."""

    code = "simulate:constraint"

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class InfeasibleError(AkHabitError):
    """Initial data admits no admissible consumption plan."""

    code = "infeasible:capital"


class OptimalityViolation(AkHabitError):
    """A feasible perturbation improved the objective beyond tolerance."""

    code = "oracle:perturbation"


class InfeasibleControlError(AkHabitError, ValueError):
    """An oracle routine was handed a control that breaks the discrete constraints."""

    code = "oracle:infeasible"


class NonConvergence(AkHabitError):
    """Ascent stalled before reaching the requested objective band."""

    code = "oracle:ascent"


class ScenarioError(AkHabitError):
    """Scenario file missing, unparseable, or incomplete."""

    code = "parse:scenario"
