"""Exception hierarchy shared by all modules."""


class RadellipticError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(RadellipticError):
    """Operator parameters violate the variant invariants."""


class NonPositiveRadius(RadellipticError):
    """The radial reduction is only evaluated at r > 0."""


class WindowTooSmall(RadellipticError):
    """Derivative-number window below twice the local spacing."""


class OutsideDomain(RadellipticError):
    """Probe point or anchor lies outside the grid."""


class GridMismatch(RadellipticError):
    """Operands are defined on different grids."""


class Diverged(RadellipticError):
    """The solver could not reduce the residual below tolerance."""


class LostMonotonicity(RadellipticError):
    """The converged linearization is not monotone (not an M-matrix)."""


class PreconditionViolated(RadellipticError):
    """Caller-side precondition (e.g. boundary ordering) fails."""


class NotConverged(RadellipticError):
    """An analysis step requires a converged solution."""


class NotAZero(RadellipticError):
    """The requested point is not a discrete zero of u'."""


class InsufficientData(RadellipticError):
    """Not enough grid points in the requested fit range."""


class LostPositivity(RadellipticError):
    """Inverse-iteration iterate left the positive cone."""
