"""Radial meshes, sampled profiles, difference quotients, derivative numbers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (GridMismatch, InvalidSpec, OutsideDomain, WindowTooSmall,
                     config_number)


class DomainKind(str, enum.Enum):
    BALL = "Ball"
    ANNULUS = "Annulus"


class Grading(str, enum.Enum):
    UNIFORM = "Uniform"
    GRADED_AT_ORIGIN = "GradedAtOrigin"


@dataclass(frozen=True)
class Domain:
    kind: DomainKind
    R: float
    R1: float = 0.0
    bc_inner: float = 0.0
    bc_outer: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", DomainKind(self.kind))
        if self.R <= 0:
            raise InvalidSpec("outer radius must be positive")
        if self.kind is DomainKind.BALL and self.R1 != 0.0:
            raise InvalidSpec("ball domains have R1 = 0")
        if self.kind is DomainKind.BALL and self.bc_inner != 0.0:
            raise InvalidSpec("ball domains have bc_inner = 0")
        if self.kind is DomainKind.ANNULUS and not 0 < self.R1 < self.R:
            raise InvalidSpec("annulus requires 0 < R1 < R")

    @classmethod
    def ball(cls, R, bc_outer=0.0):
        return cls(DomainKind.BALL, R, 0.0, 0.0, bc_outer)

    @classmethod
    def annulus(cls, R1, R, bc_inner=0.0, bc_outer=0.0):
        return cls(DomainKind.ANNULUS, R, R1, bc_inner, bc_outer)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Domain":
        """The domain of a config's ``domain`` section, each number read
        by ``config_number``."""
        return cls(DomainKind(doc["kind"]),
                   config_number(doc["R"], "domain.R"),
                   *(config_number(doc.get(key, 0.0), "domain." + key)
                     for key in ("R1", "bc_inner", "bc_outer")))


# Default grading exponent: solutions behave like r^{(alpha+2)/(alpha+1)}
# near a degenerate origin, so mild clustering there improves resolution.
GRADING_EXPONENT = 1.5


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _Keeps:
    """Keeps data derived from an object's read-only arrays with the object."""

    def derived(self, key, build):
        """``build()``, computed on the first request for ``key`` and kept
        with the object."""
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value


@dataclass(frozen=True)
class RadialGrid(_Keeps):
    """A strictly increasing radial mesh.

    The grid holds a read-only copy of its nodes, so data derived from them
    cannot go stale and is kept on the grid: its spacing, its largest
    spacing, and what other modules build with ``derived``.
    """

    nodes: np.ndarray
    grading: Grading = Grading.UNIFORM
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        nodes = _read_only(np.array(self.nodes, dtype=float))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "grading", Grading(self.grading))
        if nodes.ndim != 1 or len(nodes) < 2:
            raise InvalidSpec("grid needs at least two nodes")
        if not np.all(np.diff(nodes) > 0):
            raise InvalidSpec("grid nodes must be strictly increasing")

    @classmethod
    def for_domain(cls, dom: Domain, n: int,
                   grading: Grading = Grading.UNIFORM) -> "RadialGrid":
        grading = Grading(grading)
        s = np.linspace(0.0, 1.0, n + 1)
        if grading is Grading.GRADED_AT_ORIGIN:
            s = s ** GRADING_EXPONENT
        return cls(dom.R1 + (dom.R - dom.R1) * s, grading)

    @property
    def n(self) -> int:
        return len(self.nodes) - 1

    @cached_property
    def spacing(self) -> np.ndarray:
        return _read_only(np.diff(self.nodes))

    @cached_property
    def max_spacing(self) -> float:
        return float(np.max(self.spacing))

    @cached_property
    def _padded_spacing(self) -> np.ndarray:
        h = self.spacing
        return _read_only(np.concatenate([h[:1], h, h[-1:]]))

    def local_spacing(self, i):
        """Larger adjacent spacing at each node index of the array i
        (one-sided at the ends)."""
        padded = self._padded_spacing
        return np.maximum(padded[i], padded[np.add(i, 1)])

    def nearest_index(self, r):
        """Index of the node nearest to each radius of the array r, the
        lower one on a tie."""
        nodes = self.nodes
        k = np.clip(np.searchsorted(nodes, r), 1, len(nodes) - 1)
        return np.where(np.abs(nodes[k - 1] - r) <= np.abs(nodes[k] - r),
                        k - 1, k)

    def spans(self, dom: Domain) -> bool:
        return (abs(self.nodes[0] - dom.R1) <= 1e-12 * max(1.0, dom.R)
                and abs(self.nodes[-1] - dom.R) <= 1e-12 * max(1.0, dom.R))


@dataclass(frozen=True)
class DiscreteRadialFunction(_Keeps):
    """A profile sampled at the nodes of a grid.

    Like the grid, the profile holds a read-only copy of its values and
    keeps what is derived from them: ``interior_quotients`` and
    ``lipschitz_constant`` are computed on the first request and kept.
    """

    grid: RadialGrid
    values: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        values = _read_only(np.array(self.values, dtype=float))
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise GridMismatch("values and nodes differ in length")
        if not np.all(np.isfinite(values)):
            raise InvalidSpec("values must be finite")

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        nodes = self.grid.nodes
        if np.any(s < nodes[0] - 1e-12) or np.any(s > nodes[-1] + 1e-12):
            raise OutsideDomain("evaluation point outside the grid")
        return np.interp(s, nodes, self.values)

    def same_grid(self, other: "DiscreteRadialFunction") -> bool:
        return (self.grid.nodes.shape == other.grid.nodes.shape
                and np.array_equal(self.grid.nodes, other.grid.nodes))

    def to_csv(self, path) -> None:
        # one format over the interleaved (r, u) values: the same "%.17g"
        # text per value as formatting row by row
        pairs = np.column_stack((self.grid.nodes, self.values))
        text = "%.17g,%.17g\n" * len(pairs) % tuple(pairs.ravel().tolist())
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("r,u\n" + text)


@dataclass(frozen=True)
class DerivativeNumbers:
    """The four one-sided derivative numbers, arrays over probe points."""

    lambda_g: np.ndarray
    Lambda_g: np.ndarray
    lambda_d: np.ndarray
    Lambda_d: np.ndarray

    @property
    def spread(self):
        # elementwise max/min with the built-ins' choice on ties
        upper = np.where(self.Lambda_d > self.Lambda_g, self.Lambda_d,
                         self.Lambda_g)
        lower = np.where(self.lambda_d < self.lambda_g, self.lambda_d,
                         self.lambda_g)
        return upper - lower


def interior_quotients(u: DiscreteRadialFunction) -> tuple[np.ndarray, np.ndarray]:
    """The second-order first and second difference quotients at the
    interior nodes 1..n-1, exact on quadratics for any spacing.  Built on
    the first request and kept with ``u``; both arrays are read-only."""
    return u.derived("interior_quotients", lambda: _quotients(u))


def _quotients(u: DiscreteRadialFunction) -> tuple[np.ndarray, np.ndarray]:
    r, v = u.grid.nodes, u.values
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    hm2, hp2, hsum = hm * hm, hp * hp, hp + hm
    denom = hp * hm * hsum
    q = (hm2 * v[2:] + (hp2 - hm2) * v[1:-1] - hp2 * v[:-2]) / denom
    m = 2.0 * (hm * v[2:] - hsum * v[1:-1] + hp * v[:-2]) / denom
    return _read_only(q), _read_only(m)


def derivative_numbers(u: DiscreteRadialFunction, r, window,
                       scales: int) -> DerivativeNumbers:
    """Approximate the derivative numbers at grid nodes.

    Difference quotients (u(s) - u(r)) / (s - r) are probed at the geometric
    scales s = r +/- window * 2^-k, k = 0..scales-1, with linear interpolation
    off the grid; the min over scales stands in for liminf, the max for
    limsup.  At the left end of the grid only the right numbers exist and the
    left fields mirror them; at the right end the right fields mirror the
    left ones.

    ``r`` and ``window`` are arrays, broadcast together; the fields of the
    result are arrays over the probe points.
    """
    nodes = u.grid.nodes
    r, window = np.broadcast_arrays(np.asarray(r, dtype=float),
                                    np.asarray(window, dtype=float))
    if np.any(r < nodes[0] - 1e-12) or np.any(r > nodes[-1] + 1e-12):
        raise OutsideDomain("derivative numbers requested outside the grid")
    if scales < 2:
        raise InvalidSpec("need at least two scales")
    i = u.grid.nearest_index(r)
    r = nodes[i][..., None]
    if np.any(window < 2 * u.grid.local_spacing(i) * (1 - 1e-12)):
        raise WindowTooSmall("window below twice the local spacing")
    ur = u.values[i][..., None]
    offsets = window[..., None] * 2.0 ** (-np.arange(scales))

    def one_side(sign):
        s = r + sign * offsets
        inside = (s >= nodes[0] - 1e-15) & (s <= nodes[-1] + 1e-15)
        quot = (np.interp(s, nodes, u.values) - ur) / (s - r)
        return (np.min(np.where(inside, quot, np.inf), axis=-1),
                np.max(np.where(inside, quot, -np.inf), axis=-1),
                inside.any(axis=-1))

    lo_d, hi_d, right = one_side(+1.0)
    lo_g, hi_g, left = one_side(-1.0)
    if not np.all(right | left):
        raise WindowTooSmall("no probe points inside the grid")
    # an end of the grid mirrors the numbers of the side that exists
    lo_d, hi_d = np.where(right, lo_d, lo_g), np.where(right, hi_d, hi_g)
    lo_g, hi_g = np.where(left, lo_g, lo_d), np.where(left, hi_g, hi_d)
    return DerivativeNumbers(lambda_g=lo_g, Lambda_g=hi_g, lambda_d=lo_d,
                             Lambda_d=hi_d)


def lipschitz_constant(u: DiscreteRadialFunction) -> float:
    """Max adjacent-node slope magnitude, kept with ``u``."""
    return u.derived("lipschitz_constant", lambda: float(
        np.max(np.abs(np.diff(u.values)) / u.grid.spacing)))
