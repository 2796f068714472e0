"""Exception types raised across the package."""


class EquisubError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(EquisubError):
    pass


class OutOfBounds(EquisubError):
    """A price vector lies outside the open box of admissible prices."""


class NonFinite(EquisubError):
    """A map produced NaN or infinite output where finite values are required."""


class BalanceViolated(EquisubError):
    """Aggregate output does not sum to the balance constant."""


class NoBracket(EquisubError):
    """A scalar equation could not be bracketed within the admissible interval."""

    def __init__(self, msg, coordinate=None, last_value=None):
        super().__init__(msg)
        self.coordinate = coordinate
        self.last_value = last_value
        self.report = None  # set by solve_pinned when one of its sweeps raises


class HintsMissing(EquisubError):
    """No usable construction hints for a starting point below the solution."""


class EnvelopeNotDownwardResponsive(EquisubError):
    """An upper-envelope map could not be pushed below its target."""


class MaxIterExceeded(EquisubError):
    """Iteration cap hit before convergence; carries the best iterate found."""

    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


class BracketNotFound(EquisubError):
    """Geometric expansion failed to straddle the target normalization level."""


class NotDiagonallyStrict(EquisubError):
    """A raw normalization map is flat along the diagonal direction."""


class FamilyLacksTransfers(EquisubError):
    """The matching family has no transfer structure to recover."""


class NonpositiveMatch(EquisubError):
    """A matching function produced a nonpositive or nonfinite mass."""


class GridTooLarge(EquisubError):
    """A brute-force grid exceeds the configured point cap."""


class DegenerateUtility(EquisubError):
    """Simulated utilities are nonfinite for some draws."""


class GNotInvertible(EquisubError):
    """The structural link g(., x2) could not be inverted at a data point."""


class ZeroPredictedCell(EquisubError):
    """A predicted frequency is zero on a cell with positive observed count."""


class OptimizerStalled(EquisubError):
    """The outer optimizer stopped without a usable stationary point."""

    def __init__(self, msg, theta=None, value=None):
        super().__init__(msg)
        self.theta = theta
        self.value = value


class SingularConstraintJacobian(EquisubError):
    """Constraint Jacobian too ill-conditioned for implicit differentiation."""


class SingularWeight(EquisubError):
    """GMM weighting matrix is singular or nonfinite."""
