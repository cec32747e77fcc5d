"""Exception types shared across the package."""


class CurveFlowError(Exception):
    """Base class for all curveflow errors."""


class SpeedLawDomainError(CurveFlowError, ValueError):
    """A speed law was evaluated outside its domain or returned a non-finite value.

    ``abscissa`` records the offending curvature value when known.
    """

    def __init__(self, message, abscissa=None):
        super().__init__(message)
        self.abscissa = abscissa


class NotClosedError(CurveFlowError, ValueError):
    """A curvature profile does not close up (first-harmonic content of 1/k too large)."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConvexityLossError(CurveFlowError, ValueError):
    """A support profile has h'' + h <= 0 somewhere; the curve is no longer convex.

    ``node`` / ``theta`` identify the first violating grid node.
    """

    def __init__(self, message, node=None, theta=None):
        super().__init__(message)
        self.node = node
        self.theta = theta


class DegenerateProfileError(CurveFlowError, ValueError):
    """Profile too distorted to evaluate reliably (k_max/k_min beyond the supported range)."""


class InsufficientDataError(CurveFlowError, ValueError):
    """A diagnostic needs more snapshots than the trajectory provides."""


class HypothesisViolationError(CurveFlowError, ValueError):
    """The speed law cannot be integrated on the working range (Phi' <= 0)."""


class StepRejected(CurveFlowError):
    """A stage left the domain, or the error estimate or t quadrature failed; retry shorter."""
