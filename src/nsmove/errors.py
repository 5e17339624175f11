"""Exception types shared across the toolkit."""


class NsmoveError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(NsmoveError, ValueError):
    """A precondition on an argument was violated."""


class OutOfDomainError(NsmoveError):
    """A query point left the interpolable region.

    Carries the offending physical point(s) in ``point``.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class DegenerateMapError(NsmoveError):
    """det grad X <= 0: the flow map stopped being injective at (t, z)."""

    def __init__(self, message, t=None, z=None):
        super().__init__(message)
        self.t = t
        self.z = z


class PositivityViolationError(NsmoveError):
    """A density dropped below its admissible floor at time t, at the
    reference node z where it is smallest."""

    def __init__(self, message, t=None, z=None):
        super().__init__(message)
        self.t = t
        self.z = z


class LinearSolverFailureError(NsmoveError):
    """Inner linear solve stagnated; carries the final residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DivergenceError(NsmoveError):
    """Successive approximations stopped contracting (K_n >= 1 repeatedly)."""


class InstabilityError(NsmoveError):
    """Blow-up detector tripped (velocity magnitude grew by > 1e3)."""


class NotSameDataError(NsmoveError):
    """Relative-energy comparison requested for runs with different data."""
