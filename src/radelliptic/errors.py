"""Exception hierarchy shared by all modules."""


class RadellipticError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(RadellipticError):
    """Operator parameters violate the variant invariants."""


class WindowTooSmall(RadellipticError):
    """Derivative-number window below twice the local spacing."""


class OutsideDomain(RadellipticError):
    """Probe point or anchor lies outside the grid."""


class GridMismatch(RadellipticError):
    """Operands are defined on different grids."""


class Diverged(RadellipticError):
    """The solver could not close the boundary mismatch, or overflowed."""


class PreconditionViolated(RadellipticError):
    """Caller-side precondition (e.g. boundary ordering) fails."""


class NotConverged(RadellipticError):
    """The eigenvalue iteration did not settle within its step limit."""


class NotAZero(RadellipticError):
    """The requested point is not a discrete zero of u'."""


class InsufficientData(RadellipticError):
    """Not enough grid points in the requested fit range."""


class LostPositivity(RadellipticError):
    """Inverse-iteration iterate left the positive cone."""
