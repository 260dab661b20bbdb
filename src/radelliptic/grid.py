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
        for name in ("R", "R1", "bc_inner", "bc_outer"):
            object.__setattr__(self, name,
                               config_number(getattr(self, name), name))
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
        if not np.all(np.isfinite(nodes)):
            raise InvalidSpec("grid nodes must be finite numbers")
        with np.errstate(over="ignore"):
            spacing = self.spacing  # kept on the grid
        if not np.all(np.isfinite(spacing)):
            raise InvalidSpec("grid spacing must be finite")
        if not np.all(spacing > 0):
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

    Like the grid, the profile holds its values read-only and keeps what
    is derived from them: ``interior_quotients`` and ``lipschitz_constant``
    are computed on the first request and kept.  The constructor holds a
    read-only copy of the values it is given; a solve hands its profile
    its own array instead (``_of_own``).
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

    @classmethod
    def _of_own(cls, grid: RadialGrid, values: np.ndarray):
        """The profile of ``values``, a finite float array of one value
        per node that its caller made and writes no more: the array is
        made read-only and held as it is, with no copy and no check."""
        profile = object.__new__(cls)
        profile.__dict__.update(grid=grid, values=_read_only(values),
                                _derived={})
        return profile

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
        """Write the header ``r,u`` and one ``r,u`` row per node, each
        value in the bytes of ``"%.17g" % v``, which read back to the same
        float.

        The rows are formatted ``_CSV_CHUNK`` values at a time, each chunk
        as one array.  For 1e-4 <= |v| < 1e17 ``"%.17g"`` prints fixed
        notation, and its 17 digits are those of the integer D nearest to
        |v| * 10^(16 - e), ties to even, where e is the decimal exponent
        that puts the scaled value in [1e16, 1e17).  e starts as
        floor(log10|v|) and moves by one where the scaled value falls
        outside that range.  10^(16 - e) <= 1e20 is an exact double, and
        Dekker's product (Veltkamp split by 2^27 + 1) gives the scaled
        value exactly as p + err with p its rounded double; p >= 1e16 >
        2^53 is an even integer, so D = p + rint(err) exactly.  D stays
        below 1e17: the double below each power of ten in the range scales
        to at most 1e17 - 8.  Every other value (+-0, |v| < 1e-4,
        |v| >= 1e17, subnormals included) is formatted by ``"%.17g"``
        itself.

        The text is laid out in rows of 28 bytes, one per value, in which
        a space stands for no character; the spaces are deleted at the
        end.  Each row starts with the separator before its value, ``\\n``
        before r and ``,`` before u, so the header ``r,u``, the rows and
        one closing ``\\n`` are the bytes of the header line and of one
        ``r,u`` line per node.  For e < 0, the exponent of almost every
        value of a profile on [0, 1], the text is the sign, ``0.``, -e - 1
        zeros and the 17 digits of D less their trailing zeros.  Nothing
        stands between those zeros and the digits, and the first digit is
        never 0, so with everything up to the first digit right-aligned,
        the other 16 digits lie in the same 16 columns on every such row.
        The prefix (the sign, ``0.`` and at most three zeros) is at most
        6 bytes, so with the separator and the first digit it fits the
        first 8 bytes of the row, which one table lookup by separator,
        sign, e and first digit fills.  The other digits are four lookups
        of four; trailing zeros are blanked four at a time, the last
        nonzero four looked up with its trailing zeros as spaces and the
        fours after it blank.  A row with e >= 0 has the dot after e + 1
        digits: its prefix puts the dot before the first digit, and the
        digits of the integer part then move one byte left past it, with
        their zeros put back.
        """
        pairs = np.column_stack((self.grid.nodes, self.values)).ravel()
        with open(path, "wb") as fh:
            fh.write(b"r,u")
            for start in range(0, len(pairs), _CSV_CHUNK):
                fh.write(_csv_rows(pairs[start:start + _CSV_CHUNK]))
            fh.write(b"\n")


# Tables of ``_csv_rows``, whose rows are seven little-endian uint32 words
# (the layout is in ``DiscreteRadialFunction.to_csv``): the prefix and the
# first digit in two, the other 16 digits four to a word, then a word of
# spaces that only the "%.17g" text of a value outside fixed notation fills.

# the four ASCII digits of each q < 10^4, first digit in the lowest byte,
# with the trailing zeros of q as spaces (b"0" - 0x10), then as zeros: a
# table over the digits (a, b, c, d) of q = 1000a + 100b + 10c + d
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype="<u4")
_DIGITS4 = (_DIGIT[:, None, None, None] | _DIGIT[:, None, None] << 8
            | _DIGIT[:, None] << 16 | _DIGIT << 24).ravel()
_ZERO = (np.arange(10) == 0).astype("<u4")
_QUADS = np.concatenate([_DIGITS4 - (_ZERO * (0x10 << 24 | _ZERO[:, None] * (
    0x10 << 16 | _ZERO[:, None, None] * (
        0x10 << 8 | _ZERO[:, None, None, None] * 0x10)))).ravel(), _DIGITS4])


def _prefix(sep, sign, e):
    # e >= 0: the dot before the digits, which is moved behind the integer
    # part of each row
    return (sep + sign + (b"." if e >= 0 else b"0." + b"0" * (-e - 1))
            + b"0").rjust(8)


# the prefixes by separator, sign, e in -4..16 and first digit d, which
# adds d to the last byte
_PREFIXES = (np.frombuffer(b"".join(
    _prefix(sep, sign, e) for sep in (b"\n", b",") for sign in (b" ", b"-")
    for e in range(-4, 17)), dtype="<u4").reshape(-1, 1, 2)
    + (np.arange(10, dtype="<u4")[:, None] << 24)
    * np.array([0, 1], dtype="<u4")).reshape(-1, 2).T.copy()
_VELTKAMP = 2.0 ** 27 + 1
# 10^(16 - e), indexed by e in -4..16 (e < 0 from the end): exact doubles
_POW10 = np.array([float(10 ** (16 - e))
                   for e in [*range(17), *range(-4, 0)]])
_POW10_HI = _VELTKAMP * _POW10 - (_VELTKAMP * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# values formatted at once: an even count; it bounds the arrays of
# ``_csv_rows`` to about 0.3 MiB, less than one "%.17g" format over a
# 6400-node profile took
_CSV_CHUNK = 2048
# the first word of a row outside fixed notation, by its separator
_SEPARATORS = np.frombuffer(b"   \n   ,", dtype="<u4")


def _csv_rows(pairs: np.ndarray) -> bytes:
    """The separator and ``"%.17g"`` of each value of the interleaved
    array ``pairs`` (even count), ``\\n`` before r and ``,`` before u, all
    rows at once; the layout and the exactness argument are in
    ``DiscreteRadialFunction.to_csv``."""
    a = np.abs(pairs)
    fixed = (a >= 1e-4) & (a < 1e17)
    # keeps the others clear of log10, the casts and the e >= 0 rows
    e, digits = _decimal_digits(np.where(fixed, a, 0.5))
    rows = _fixed_rows(pairs, e, digits)
    text = rows.view(np.uint8)
    whole = np.flatnonzero(e >= 0)
    if len(whole):
        e_whole = e[whole]
        for k in np.flatnonzero(np.bincount(e_whole)):
            # the first digit and the integer part one byte left, with their
            # zeros (b" " | 0x10 is b"0"), then the dot, unless the fraction
            # is blank from its first digit on
            rows_k = whole[e_whole == k]
            text[rows_k, 6:7 + k] = text[rows_k, 7:8 + k] | 0x10
            text[rows_k, 7 + k] = np.where(
                text[rows_k, 8 + k] == ord(" "), ord(" "), ord("."))

    other = np.flatnonzero(~fixed)
    if len(other):
        formatted = "%24.17g" * len(other) % tuple(pairs[other].tolist())
        rows[other, 0] = _SEPARATORS[other & 1]
        text[other, 4:] = np.frombuffer(
            formatted.encode("ascii"), dtype=np.uint8).reshape(-1, 24)
    return text.tobytes().translate(None, b" ")


def _decimal_digits(a):
    """The decimal exponent e of each value of ``a``, all in [1e-4, 1e17),
    and the integer D of its 17 digits, as ``DiscreteRadialFunction.to_csv``
    derives them."""
    def scaled(a, e):
        # a * 10^(16 - e) = p + err exactly (Dekker's product), err being
        # ((a_hi b_hi - p) + a_hi b_lo + a_lo b_hi) + a_lo b_lo in place
        b_hi, b_lo = _POW10_HI[e], _POW10_LO[e]
        p = a * _POW10[e]
        a_hi = _VELTKAMP * a
        a_lo = a_hi - a
        a_hi -= a_lo
        np.subtract(a, a_hi, out=a_lo)
        err = a_hi * b_hi
        err -= p
        a_hi *= b_lo
        err += a_hi
        b_hi *= a_lo
        err += b_hi
        a_lo *= b_lo
        err += a_lo
        return p, err

    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    p, err = scaled(a, e)
    low = (p < 1e16) | ((p == 1e16) & (err < 0))
    high = (p > 1e17) | ((p == 1e17) & (err >= 0))
    moved = np.flatnonzero(low | high)
    if len(moved):
        e[moved] += high[moved].astype(np.intp) - low[moved]
        p[moved], err[moved] = scaled(a[moved], e[moved])
    return e, p.astype(np.int64) + np.rint(err).astype(np.int64)


def _fixed_rows(pairs, e, digits):
    """The rows of ``_csv_rows`` in fixed notation: seven uint32 words for
    each value of ``pairs``, by its exponent e and digits D."""
    count = len(pairs)
    # the first digit, then the other 16 in four quads; quad j is looked up
    # with its zeros kept (10^4 on) where a later quad is nonzero
    upper = digits // 10 ** 8
    lower = digits - upper * 10 ** 8
    first = upper // 10 ** 8
    upper -= first * 10 ** 8
    quads = np.empty((4, count), np.intp)
    np.floor_divide(upper, 10 ** 4, out=quads[0])
    np.subtract(upper, quads[0] * 10 ** 4, out=quads[1])
    np.floor_divide(lower, 10 ** 4, out=quads[2])
    np.subtract(lower, quads[2] * 10 ** 4, out=quads[3])
    quads[:3] += (np.array([quads[1] | lower, lower, quads[3]]) != 0) * 10 ** 4

    # the prefix index: 10 (e + 4) + the first digit, 210 on for b"-" and
    # 420 on for b"," (before each u)
    slot = e * 10
    slot += first
    slot[0::2] += 40
    slot[1::2] += 460
    slot += (pairs < 0) * 210
    words = np.empty((7, count), "<u4")
    _PREFIXES.take(slot, axis=1, out=words[:2])
    _QUADS.take(quads, out=words[2:6])
    words[6] = 0x20202020
    return words.T.copy()


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
