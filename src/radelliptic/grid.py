"""Radial meshes, sampled profiles, difference quotients, derivative numbers."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InvalidSpec, OutsideDomain, WindowTooSmall


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
        if self.kind is DomainKind.ANNULUS and not 0 < self.R1 < self.R:
            raise InvalidSpec("annulus requires 0 < R1 < R")

    @classmethod
    def ball(cls, R, bc_outer=0.0):
        return cls(DomainKind.BALL, R, 0.0, 0.0, bc_outer)

    @classmethod
    def annulus(cls, R1, R, bc_inner=0.0, bc_outer=0.0):
        return cls(DomainKind.ANNULUS, R, R1, bc_inner, bc_outer)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind.value, "R": self.R, "R1": self.R1,
                "bc_inner": self.bc_inner, "bc_outer": self.bc_outer}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Domain":
        return cls(DomainKind(doc["kind"]), float(doc["R"]),
                   float(doc.get("R1", 0.0)), float(doc.get("bc_inner", 0.0)),
                   float(doc.get("bc_outer", 0.0)))


# Default grading exponent: solutions behave like r^{(alpha+2)/(alpha+1)}
# near a degenerate origin, so mild clustering there improves resolution.
GRADING_EXPONENT = 1.5


@dataclass(frozen=True)
class RadialGrid:
    nodes: np.ndarray
    grading: Grading = Grading.UNIFORM

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
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
        r1 = dom.R1 if dom.kind is DomainKind.ANNULUS else 0.0
        return cls(r1 + (dom.R - r1) * s, grading)

    @property
    def n(self) -> int:
        return len(self.nodes) - 1

    @property
    def spacing(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def max_spacing(self) -> float:
        return float(np.max(self.spacing))

    def local_spacing(self, i):
        """Larger adjacent spacing at node index i (one-sided at the ends).

        Vectorized over an array of indices; a scalar index gives a float.
        """
        h = self.spacing
        padded = np.concatenate([h[:1], h, h[-1:]])
        out = np.maximum(padded[i], padded[np.add(i, 1)])
        return float(out) if np.ndim(out) == 0 else out

    def nearest_index(self, r):
        """Index of the node nearest to r, the lower one on a tie.

        Vectorized over an array of radii; a scalar radius gives an int.
        """
        nodes = self.nodes
        k = np.clip(np.searchsorted(nodes, r), 1, len(nodes) - 1)
        out = np.where(np.abs(nodes[k - 1] - r) <= np.abs(nodes[k] - r),
                       k - 1, k)
        return int(out) if np.ndim(out) == 0 else out

    def spans(self, dom: Domain, tol: float = 1e-12) -> bool:
        r1 = dom.R1 if dom.kind is DomainKind.ANNULUS else 0.0
        return (abs(self.nodes[0] - r1) <= tol * max(1.0, dom.R)
                and abs(self.nodes[-1] - dom.R) <= tol * max(1.0, dom.R))


@dataclass(frozen=True)
class DiscreteRadialFunction:
    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
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
        rows = zip(self.grid.nodes.tolist(), self.values.tolist())
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("r,u\n" + "".join("%.17g,%.17g\n" % row for row in rows))

    @classmethod
    def from_csv(cls, path, grading: Grading = Grading.UNIFORM) -> "DiscreteRadialFunction":
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return cls(RadialGrid(rows[:, 0], grading), rows[:, 1])


@dataclass(frozen=True)
class DerivativeNumbers:
    """Finite surrogate of the four one-sided liminf/limsup quotients.

    Floats for one probe point; arrays over the points for a vectorized
    ``derivative_numbers`` call.
    """

    lambda_g: float
    Lambda_g: float
    lambda_d: float
    Lambda_d: float
    window: float
    scales: int
    left_defined: bool = True

    @property
    def spread(self):
        # max/min with the built-ins' choice on ties, elementwise for arrays
        upper = np.where(self.Lambda_d > self.Lambda_g, self.Lambda_d,
                         self.Lambda_g)
        lower = np.where(self.lambda_d < self.lambda_g, self.lambda_d,
                         self.lambda_g)
        return upper - lower


class ThreePoint:
    """The 3-point difference stencil at the interior nodes 1..n-1 of a mesh.

    ``q`` and ``m`` are the second-order first and second difference
    quotients, exact on quadratics for any (possibly nonuniform) spacing;
    ``q_weights`` and ``m_weights`` are their coefficients on
    (v[i-1], v[i], v[i+1]).
    """

    def __init__(self, r):
        self.hm = r[1:-1] - r[:-2]
        self.hp = r[2:] - r[1:-1]
        # the products the quotients and weights share, formed once per mesh
        self.hm2 = self.hm * self.hm
        self.hp2 = self.hp * self.hp
        self.hpm2 = self.hp2 - self.hm2
        self.hsum = self.hp + self.hm
        self.denom = self.hp * self.hm * self.hsum

    def q(self, v):
        return (self.hm2 * v[2:] + self.hpm2 * v[1:-1]
                - self.hp2 * v[:-2]) / self.denom

    def m(self, v):
        return 2.0 * (self.hm * v[2:] - self.hsum * v[1:-1]
                      + self.hp * v[:-2]) / self.denom

    def q_weights(self):
        denom = self.denom
        return -self.hp2 / denom, self.hpm2 / denom, self.hm2 / denom

    def m_weights(self):
        hm, hp, denom = self.hm, self.hp, self.denom
        return 2.0 * hp / denom, -2.0 * self.hsum / denom, 2.0 * hm / denom


def interior_quotients(u: DiscreteRadialFunction) -> tuple[np.ndarray, np.ndarray]:
    """The stencil's first and second difference quotients at the interior
    nodes 1..n-1."""
    st = ThreePoint(u.grid.nodes)
    return st.q(u.values), st.m(u.values)


def derivative_numbers(u: DiscreteRadialFunction, r, window,
                       scales: int) -> DerivativeNumbers:
    """Approximate the derivative numbers at grid nodes.

    Difference quotients (u(s) - u(r)) / (s - r) are probed at the geometric
    scales s = r +/- window * 2^-k, k = 0..scales-1, with linear interpolation
    off the grid; the min over scales stands in for liminf, the max for
    limsup.  At the left end of the grid only the right numbers exist and the
    left fields mirror them (left_defined = False); at the right end the
    right fields mirror the left ones.

    ``r`` and ``window`` may be arrays, broadcast together: the fields of
    the result are then arrays over the probe points, each element equal to
    what a scalar call at that point returns.
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
    if np.ndim(i) == 0:
        return DerivativeNumbers(lambda_g=float(lo_g), Lambda_g=float(hi_g),
                                 lambda_d=float(lo_d), Lambda_d=float(hi_d),
                                 window=float(window), scales=scales,
                                 left_defined=bool(left))
    return DerivativeNumbers(lambda_g=lo_g, Lambda_g=hi_g, lambda_d=lo_d,
                             Lambda_d=hi_d, window=window, scales=scales,
                             left_defined=left)


def lipschitz_constant(u: DiscreteRadialFunction) -> float:
    """Max adjacent-node slope magnitude."""
    return float(np.max(np.abs(np.diff(u.values)) / u.grid.spacing))
