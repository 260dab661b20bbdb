"""Exception hierarchy shared by all modules, with the command line's exit
status for each, and the rule for a number read from a config."""

import math
import numbers


class RadellipticError(Exception):
    """Base class for all errors raised by this package.

    The command line reports one as the line ``error: <headline><message>``
    and exits with its ``exit_status``.
    """

    exit_status = 1
    headline = ""


class ConfigError(RadellipticError):
    """A config that cannot be read, or a key or value in it that is bad."""


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

    exit_status = 2
    headline = "solver diverged: "


class NotConverged(RadellipticError):
    """The eigenvalue iteration did not settle within its step limit."""

    exit_status = 2


class NotAZero(RadellipticError):
    """The requested point is not a discrete zero of u'."""


class InsufficientData(RadellipticError):
    """Not enough grid points in the requested fit range."""


class LostPositivity(RadellipticError):
    """Inverse-iteration iterate left the positive cone."""

    exit_status = 2


def is_finite_number(value) -> bool:
    """Whether ``value`` is a finite real number; a bool is not one."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        return False


def config_number(value, path: str, kind=float, low=None, strict=False):
    """``value``, read from the config key ``path``, as ``kind``.

    The value must be a finite real number that is not a bool, a whole one
    when ``kind`` is int, and, when ``low`` is given, >= ``low`` (> ``low``
    when ``strict``).  Otherwise ``InvalidSpec`` names ``path``.
    """
    if not (is_finite_number(value)
            and (kind is float or float(value).is_integer())):
        what = "an integer" if kind is int else "a finite number"
        raise InvalidSpec(f"{path} must be {what}, got {value!r}")
    value = kind(value)
    if low is not None and not (value > low if strict else value >= low):
        raise InvalidSpec(
            f"{path} must be {'>' if strict else '>='} {low:g}, got {value!r}")
    return value
