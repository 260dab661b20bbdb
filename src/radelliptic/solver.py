"""Monotone flux-form solver for H(r, u'', u') = f(r) with Dirichlet data.

With the flux phi = |u'|^alpha u' the equation is the first-order relation
B1(phi'/(1+alpha)) + (N-1)/r B2(phi) = f, which has no degeneracy.  The
scheme (see ``_kernels``) ties each half-node flux phi[i] to phi[i-1];
on a ball the origin row B1(2 phi[0] / ((1+alpha) h0)) + (N-1)
B2(2 phi[0] / h0) = f(0) fixes phi[0].  The scheme is monotone, and it is
solved exactly, row after row: phi[i] is a nondecreasing piecewise-affine
function of phi[i-1].

Each row's branch is guessed, the affine maps are composed by
Hillis-Steele doubling (every factor lies in [0, 1], so nothing
overflows), and each branch is checked against the inflow the scan gave
it.  A repair keeps the branches of the rows before the first wrong one,
takes the rest from the inflows, and scans again from row 1; each repair
moves the first unsettled row on.  A doubling scan's value at row k
depends on rows 1..k only, so the settled rows keep their bits, and the
fluxes are always one scan of the settled branches: row i's branch is the
one its inflow selects, and that inflow is a scan of rows 1..i-1 alone.

On a ball u is summed inward from the outer boundary value.  On an
annulus the first flux s = phi[0] is shot: the outer boundary mismatch is
nondecreasing in s, and the scan's products of row factors give its
derivative, for Newton steps kept inside a bracket.

The scheme obeys a comparison principle, so ``verify`` runs no
comparison solve (``analysis.comparison_oracle`` stays a library check).
Let u and v solve it on one grid with forcing f_u >= f_v at every node
and boundary data no larger for u (each end of an annulus).  Then:

- Rows.  Row i is increasing in phi[i], and nonincreasing in phi[i-1]:
  ``RowData``'s ``centered`` test keeps c max(ctp, ctm) / 2 <= min(cmp,
  cmm) a where wx = 1/2, and wx = 0 elsewhere.  So the phi[i] that
  solves it is nondecreasing in phi[i-1] and in f[i].
- Ball.  The origin row is linear on each side of 0 with a positive
  slope, so phi[0] is nondecreasing in f(0).  By induction phi_u >= phi_v
  at every half node, and as u[j] = bc_outer - sum_{k >= j} h[k]
  slope(phi[k]) with slope increasing, u <= v.
- Annulus.  With d[j] = phi_u[j] - phi_v[j], d[j-1] >= 0 gives d[j] >= 0,
  so d is negative up to some half node and nonnegative from it on.  The
  steps h[j] (slope(phi_v[j]) - slope(phi_u[j])) of w = v - u are then
  positive and then nonpositive: w rises and then falls, and its least
  value lies at an end.  At the inner end w >= 0.  u's sum reaches
  bc_outer + M_u at the outer end, M_u the shooting's final mismatch,
  and ``u[-1] = bc_outer`` is set by hand.  So u <= v up to |M_u| + |M_v|
  at the interior nodes, and exactly at the ends.
- Rounding.  Where both solves settle on the same branches, their scans
  apply the same operations with the same factors A >= 0 and den > 0 to
  f_u and f_v.  Float division by a positive number, product with a
  nonnegative one and sum are nondecreasing in their arguments, and so
  is ``cumsum``.  A ball's profiles are then ordered bit for bit,
  wherever ``**`` is nondecreasing (a correctly rounded power is).  On an
  annulus the first fluxes differ, and w rises and falls only up to the
  rounding of the fluxes and of the sums: u's prefix sums near the outer
  end equal bc_outer + M_u minus a tail only up to their rounding, at
  most n eps times the sum of the magnitudes of the terms (Higham,
  Accuracy and Stability of Numerical Algorithms, 2002, section 4.2),
  which adds to the slack for u and for v.  Where the branches differ
  the scans are different float expressions, ordered up to their
  rounding only.  ``tests/test_solver.py`` draws such pairs, with
  forcing shifts down to 1e-12, over the four variants, alpha in [-0.9,
  40], dim 1-6, both gradings and both domains: the balls come out
  ordered bit for bit, the annuli within the mismatches and the sums'
  rounding.

Every solve is exact.  A solve may start from the branches of an earlier
solve on the same grid (``initial_guess``, ``Solution.branches``); a guess
changes the work, the number of scans, and never a bit of the result.
The ``RowData`` of the grid and the operator's bracket is built once and
kept on the grid, with the spacings and the ball's origin row at the
first fluxes 1 and -1.  ``_node_forcing`` reads every forcing at the nodes.

A row's factor A and its denominator den depend on its branch alone;
only q = f / den carries the forcing.  A scan has two halves:
``_levels`` yields the window products of each doubling level while it
writes the prefix products P, and ``_offsets`` divides the forcing by
den and sums q in place over whatever windows it is given.  Every scan
runs that one summation.  A solve without a guess streams the levels, so
each window is dropped once its level is summed, and a grid solved once
(a ``solve`` or ``verify`` request) holds no window products.  A solve
given ``initial_guess`` lists the levels of each scan it assembles and
keeps them, with den, P and the branches, on the ``RowData``
(``_ScanMemo``, a read-only record); a later scan of the branches kept
sums its forcing over the kept list.  The two scans run the same
operations in the same order on the same values, so a kept scan gives
the bits of a fresh one by construction, and it is still followed by the
full branch check and counted in ``Solution.iterations``.

The memo is kept on guessed solves only, because a grid solved once
pays for window products it never reads, and a caller that solves a grid
again passes a guess from the start (``principal_eigenvalue`` starts
from all-zero keys).  Measured on a 2-vCPU host (``bench_solve.py`` and
perfbench), keeping the memo on every solve gives the same bits, but the
x16 solve total rose from 3.5-3.6 ms to 4.2-4.6 ms and solve-fine's peak
RSS from 41.1 to 41.7 MiB (with one array per doubling level,
solve-fine's pass rose 6.8%).  Keeping the memo on every solve and
forming its window products at the first reuse gives the same bits, but
in three alternations of ``bench_solve`` it raised the x16 solve total
from 3.74-3.85 to 3.88-3.98 ms and the eigen total from 19.3-20.3 to
20.7-20.9 ms, and in four alternating perfbench pairs per workload the
eigen pass read 38.2 ms against 37.5 ms (slower in 4 of 4), the other
workloads within their spread.  Keeping only A and den and scanning them
afresh on every reuse slowed the eigen total from 20.0-22.8 ms to
24.1 ms.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import Diverged, GridMismatch, InvalidSpec, config_number
from .grid import DiscreteRadialFunction, Domain, DomainKind, RadialGrid
from .operators import OperatorSpec, _bracket

# each catalogue expression with its parameters and their defaults
EXPRESSION_CATALOGUE = {
    "step": {"left": 0.0, "right": 1.0, "r0": 0.5, "width": 0.1},
    "sine": {"amplitude": 1.0, "frequency": 1.0, "offset": 0.0},
    "power": {"coef": 1.0, "exponent": 1.0},
}

# shooting steps an annulus solve may take before it raises Diverged
SHOOT_MAX_STEPS = 100


def _table(values, what: str) -> np.ndarray:
    table = np.asarray(values)
    if (table.ndim != 1 or not len(table) or table.dtype.kind not in "iuf"
            or not np.all(np.isfinite(table))):
        raise InvalidSpec(f"{what} must be a non-empty list of finite numbers")
    return table.astype(float, copy=False)


class SourceFunction:
    """Bounded continuous radial forcing term f(r).

    Three kinds: a constant, a tabulated profile (linear interpolation), or
    a named expression from a fixed catalogue (step, sine, power).
    The constant, table entries and parameters must be finite numbers, a
    table non-empty with r and v of equal length, a step's width positive.
    """

    def __init__(self, kind: str, *, value: float = 0.0, table_r=None,
                 table_v=None, name: str = "", params: dict | None = None):
        self.kind = kind
        self.value = config_number(value, "forcing value")
        self.table_r = self.table_v = None
        self.name = name
        self.params = dict(params or {})
        if kind == "tabulated":
            self.table_r = _table(table_r, "table r")
            self.table_v = _table(table_v, "table v")
            if len(self.table_r) != len(self.table_v):
                raise InvalidSpec("table r and v differ in length")
            if not np.all(np.diff(self.table_r) > 0):
                raise InvalidSpec("table radii must be increasing")
        elif kind == "expression":
            if self.name not in EXPRESSION_CATALOGUE:
                raise InvalidSpec(f"unknown expression {self.name!r}")
            defaults = EXPRESSION_CATALOGUE[self.name]
            for key in self.params:
                if key not in defaults:
                    raise InvalidSpec(f"unknown parameter {key!r} of "
                                      f"expression {self.name!r}")
            # every parameter, its default filled in
            self.params = {key: config_number(self.params.get(key, default),
                                              f"{self.name} parameter {key!r}")
                           for key, default in defaults.items()}
            if self.name == "step" and self.params["width"] <= 0:
                raise InvalidSpec("step parameter 'width' must be > 0")
        elif kind != "constant":
            raise InvalidSpec(f"unknown source kind {kind!r}")

    @classmethod
    def constant(cls, value: float) -> "SourceFunction":
        return cls("constant", value=value)

    @classmethod
    def tabulated(cls, r, v) -> "SourceFunction":
        return cls("tabulated", table_r=r, table_v=v)

    @classmethod
    def expression(cls, name: str, **params) -> "SourceFunction":
        return cls("expression", name=name, params=params)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "constant":
            return np.full_like(r, self.value)
        if self.kind == "tabulated":
            return np.interp(r, self.table_r, self.table_v)
        p = self.params
        if self.name == "step":
            # continuous ramp from `left` to `right` across [r0-w, r0+w]
            left, right, r0, w = p["left"], p["right"], p["r0"], p["width"]
            s = np.clip((r - (r0 - w)) / (2.0 * w), 0.0, 1.0)
            return left + (right - left) * s
        if self.name == "sine":
            return p["offset"] + p["amplitude"] * np.sin(p["frequency"] * r)
        return p["coef"] * r ** p["exponent"]

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SourceFunction":
        kind = doc["kind"]
        if kind == "constant":
            return cls.constant(doc["value"])
        if kind == "tabulated":
            return cls.tabulated(doc["r"], doc["v"])
        return cls.expression(doc["name"], **doc.get("params", {}))


def _node_forcing(f, nodes) -> np.ndarray:
    """The forcing at ``nodes``: a ``SourceFunction`` is evaluated there,
    an array is taken as the node values.  Raises ``InvalidSpec`` unless
    there is one finite value per node."""
    if isinstance(f, SourceFunction):
        with np.errstate(all="ignore"):
            fvals = f(nodes)
    else:
        fvals = np.asarray(f, dtype=float)
    if fvals.shape != nodes.shape:
        raise InvalidSpec(f"the forcing needs {len(nodes)} node values, "
                          f"got shape {fvals.shape}")
    finite = np.isfinite(fvals)
    if not finite.all():
        bad = nodes[~finite][0]
        raise InvalidSpec(f"the forcing is not finite at r = {bad:g}")
    return fvals


@dataclass
class Solution:
    """A solved profile.

    ``residual_sup`` is the largest row residual of ``u``, boundary rows
    included; a solve hands over the function that computes it from ``u``,
    and it is computed on first read.  ``iterations`` counts the affine
    scans of the recurrence (one, plus one per branch repair, over all
    shooting steps) and ``shooting_steps`` the boundary-mismatch
    evaluations of an annulus (0 on a ball).  ``branches`` holds the
    settled branch keys of the interior rows 1..n-1, the fluxes being one
    scan of them; passed as another solve's ``initial_guess`` on the same
    grid they can save that solve its repairs, never change its result.
    ``eps_path`` stays empty: the scheme has no continuation stages
    (perfbench's tracer still counts them).  A solve that fails raises, so
    every ``Solution`` is a converged one.
    """

    u: DiscreteRadialFunction
    _residual_sup: float | Callable[[DiscreteRadialFunction], float]
    iterations: int
    shooting_steps: int
    eps_path: list = field(default_factory=list)
    branches: np.ndarray | None = None

    @property
    def residual_sup(self) -> float:
        if callable(self._residual_sup):
            self._residual_sup = self._residual_sup(self.u)
        return self._residual_sup

    def diagnostics_dict(self) -> dict:
        return {"residual_sup": self.residual_sup, "scans": self.iterations,
                "shooting_steps": self.shooting_steps, "converged": True}


def _levels(A, P):
    """The window products of each Hillis-Steele doubling level of the
    factors ``A`` of the maps ``x -> A[k] x + q[k]``, yielded in turn while
    the prefix products with a leading 1 are written into ``P`` (len(A) +
    1 entries); P is complete once the last level is drawn.

    The window products of level d are W, the products of the d factors up
    to each of rows d.., so those of level 2d are ``W[d:] W[:-d]``, and P's
    entries 1+d..2d are final at ``W[:d] P[1:1+d]``.  With the offsets Q
    that ``_offsets`` sums over the levels, map k after maps 0..k-1 is ``x
    -> P[k+1] x + Q[k+1]``, and depends on maps 0..k only.
    """
    P[0] = 1.0
    P[1:2] = A[:1]
    window, d = A[1:], 1
    while d < len(A):
        head = window[:d]
        np.multiply(head, P[1:1 + len(head)], out=P[1 + d:1 + d + len(head)])
        yield window
        window = window[d:] * window[:-d]
        d *= 2


def _offsets(f, den, windows):
    """The offsets Q of a scan of the forcing ``f`` with a leading 0: ``f /
    den`` summed in place over the window products ``windows`` of each
    doubling level, streamed (``_levels``) or kept (``_ScanMemo``)."""
    Q = np.zeros(len(f) + 1)
    q = np.divide(f, den, out=Q[1:])
    d = 1
    for window in windows:
        q[d:] += window * q[:-d]
        d *= 2
    return Q


class _ScanMemo(NamedTuple):
    """The forcing-free record of one scan, kept on the ``RowData``.

    ``key`` holds the bytes of the scanned branches, ``den`` the rows'
    denominators on them, ``windows`` the list of ``_levels``' window
    products and ``P`` the prefix products with a leading 1.  Every array
    is read-only.
    """

    key: bytes
    den: np.ndarray
    windows: list
    P: np.ndarray


def _row_data(op: OperatorSpec, grid: RadialGrid) -> _kernels.RowData:
    """The interior rows' mesh data, built once per grid and bracket."""
    key = (op.dim, op.alpha, op.bracket_coefficients())
    return grid.derived(key, lambda: _kernels.RowData(grid.nodes, *key))


class _Recurrence:
    """The interior flux rows of one problem, solved outward from phi[0].

    ``P`` and ``Q`` hold the fluxes as affine functions of phi[0],
    ``phi = P phi[0] + Q``, from one scan of the row branches ``key``;
    ``P`` is also the derivative of the fluxes in phi[0].  ``key`` starts
    as the guess, or, with none, as the branches of a flat inflow.

    A guessed recurrence keeps the memo of each scan it assembles on the
    row data, and a scan of the memo's branches reuses it: only the sums
    of q run.  A recurrence with no guess neither reads nor keeps one.
    """

    def __init__(self, op: OperatorSpec, grid: RadialGrid, fvals, key=None):
        self.nodes = grid.nodes
        self.rows = _row_data(op, grid)
        self.f = fvals[1:-1]
        self.key = key
        self.keep = key is not None
        self.P = self.Q = None
        self.scans = 0

    def _scan(self):
        memo = self.rows.memo if self.keep else None
        if memo is not None and memo.key == self.key.tobytes():
            den, windows, self.P = memo.den, memo.windows, memo.P
        else:
            if self.keep:  # the old memo goes before the new one is built
                memo = self.rows.memo = None
            A, den = _kernels.assemble_system(self.nodes, self.rows, self.key)
            self.P = np.empty(len(A) + 1)
            windows = _levels(A, self.P)
            if self.keep:
                windows = list(windows)
                for a in (den, self.P, *windows):
                    a.flags.writeable = False
                self.rows.memo = _ScanMemo(self.key.tobytes(), den, windows,
                                           self.P)
        self.Q = _offsets(self.f, den, windows)
        self.scans += 1

    def fluxes(self, s):
        """The fluxes phi[0..n-1] with phi[0] = s that solve every row."""
        if self.P is None:  # the first call scans the guess
            if self.key is None:
                self.key = _kernels.branch_keys(
                    self.rows, np.full(len(self.f), s), self.f)
            self._scan()
        while True:
            p = self.P * s + self.Q
            key = _kernels.branch_keys(self.rows, p[:-1], self.f)
            wrong = key != self.key
            if not wrong.any():
                return p
            first = wrong.argmax()  # the first wrong row
            self.key[first:] = key[first:]
            self._scan()


def _branch_guess(guess, n):
    """The branch keys of ``initial_guess`` as a fresh int8 array."""
    if guess is None:
        return None
    key = np.asarray(guess)
    # a key outside 0..3 has a bit set above its lowest two, a negative
    # key its sign bit
    if (key.shape != (n - 1,) or key.dtype.kind not in "iu"
            or (key >> 2).any()):
        raise InvalidSpec(f"initial_guess must be {n - 1} branch keys, "
                          f"integers in 0..3")
    return key.astype(np.int8)


def _fluxes_of(u, nodes, alpha):
    d = np.diff(u) / np.diff(nodes)
    return np.copysign(np.abs(d) ** (1.0 + alpha), d)


def _slopes(p, alpha):
    return np.copysign(np.abs(p) ** (1.0 / (1.0 + alpha)), p)


def _residual(op: OperatorSpec, dom: Domain, grid: RadialGrid, u, fvals):
    """The scheme's rows at the profile ``u``: row 0 is the origin row
    (ball) or the inner boundary row, row n the outer boundary row."""
    nodes = grid.nodes
    rows = _row_data(op, grid)
    p = _fluxes_of(u, nodes, op.alpha)
    res = np.empty(len(nodes))
    res[1:-1] = _bracket(rows.coefs, (p[1:] - p[:-1]) * rows.a,
                         rows.wy * p[1:] + rows.wx * p[:-1],
                         rows.c) - fvals[1:-1]
    if dom.kind is DomainKind.BALL:
        res[0] = _kernels.origin_row(rows, p[0]) - fvals[0]
    else:
        res[0] = u[0] - dom.bc_inner
    res[-1] = u[-1] - dom.bc_outer
    return res


def discretize_residual(op: OperatorSpec, f, u: DiscreteRadialFunction,
                        dom: Domain) -> np.ndarray:
    """The scheme's residual vector at ``u``, boundary rows included."""
    if not u.grid.spans(dom):
        raise GridMismatch("grid does not span the domain")
    return _residual(op, dom, u.grid, u.values,
                     _node_forcing(f, u.grid.nodes))


def _shoot(op: OperatorSpec, dom: Domain, rec: _Recurrence, h, fvals):
    """Fluxes of an annulus whose slopes sum to the boundary jump.

    The mismatch ``M(s) = bc_inner + sum h u'(phi(s)) - bc_outer`` is
    nondecreasing in s = phi[0].  Inside a bracket each step is a Newton
    step when that lands inside and is at most half the step before last
    (the safeguard of Numerical Recipes' ``rtsafe``), and an Illinois
    regula falsi step otherwise; before a bracket exists a step that
    Newton cannot give doubles.  Returns the fluxes, their slopes u' and
    the steps taken.  The first flux is taken in numpy under the caller's
    ``errstate``, so one beyond the float range is inf, and the mismatch
    it gives raises ``Diverged``.
    """
    inv = 1.0 / (1.0 + op.alpha)
    cmp_, cmm, _, _ = op.bracket_coefficients()
    length = dom.R - dom.R1
    d = (dom.bc_outer - dom.bc_inner) / length
    s = float(np.copysign(np.abs(d) ** (1.0 + op.alpha), d))
    # the size of the flux change f can drive over the interval
    step = max(abs(s), float(np.max(np.abs(fvals))) * length
               / (inv * min(cmp_, cmm)), np.finfo(float).tiny)
    lo = hi = None  # (s, M) with M < 0 and with M > 0
    side = 0
    dx = dx_old = math.inf
    for k in range(1, SHOOT_MAX_STEPS + 1):
        p = rec.fluxes(s)
        g = _slopes(p, op.alpha)
        mis = dom.bc_inner - dom.bc_outer + float(h @ g)
        if not math.isfinite(mis):
            raise Diverged(f"boundary mismatch {mis} at first flux {s:.3e}")
        scale = abs(dom.bc_inner) + abs(dom.bc_outer) + float(h @ np.abs(g))
        if abs(mis) <= 16.0 * np.finfo(float).eps * scale:
            return p, g, k
        # Illinois: an end kept twice in a row has its value halved
        if mis < 0.0:
            if side < 0 and hi is not None:
                hi = (hi[0], 0.5 * hi[1])
            lo, side = (s, mis), -1
        else:
            if side > 0 and lo is not None:
                lo = (lo[0], 0.5 * lo[1])
            hi, side = (s, mis), 1
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = float((h * inv * np.abs(p) ** (inv - 1.0)) @ rec.P)
            newton = s - mis / slope
        if lo is not None and hi is not None:
            if hi[0] - lo[0] <= 4.0 * np.finfo(float).eps * max(
                    abs(lo[0]), abs(hi[0])):
                return p, g, k
            if lo[0] < newton < hi[0] and abs(newton - s) <= 0.5 * dx_old:
                s_next = newton
            else:
                s_next = (lo[0] * hi[1] - hi[0] * lo[1]) / (hi[1] - lo[1])
        elif math.isfinite(newton) and (newton - s) * mis < 0.0:
            s_next = newton
        else:
            s_next = s - math.copysign(step, mis)
            step *= 2.0
        dx_old, dx = dx, abs(s_next - s)
        s = s_next
    raise Diverged(f"shooting did not close the boundary mismatch in "
                   f"{SHOOT_MAX_STEPS} steps")


def solve_dirichlet(op: OperatorSpec, dom: Domain, f, grid: RadialGrid,
                    initial_guess=None) -> Solution:
    """Solve the flux-form scheme exactly on ``grid``.

    ``f`` is a ``SourceFunction`` or the forcing's values at the nodes
    (see ``_node_forcing``).  ``initial_guess`` is the ``branches`` of an
    earlier solution on ``grid``, or None: it is where the branch repairs
    start, and the result does not depend on it.  Raises ``InvalidSpec``
    when the guess is not n-1 keys in 0..3 or the forcing is not one
    finite value per node, and ``Diverged`` when the shooting of an
    annulus does not close the boundary mismatch within
    ``SHOOT_MAX_STEPS`` steps, or the profile overflows.  The solution's
    profile holds the array u was summed into, made read-only, and no
    copy of it.
    """
    if not grid.spans(dom):
        raise GridMismatch("grid does not span the domain")
    nodes = grid.nodes
    key = _branch_guess(initial_guess, grid.n)
    fvals = _node_forcing(f, nodes)
    rec = _Recurrence(op, grid, fvals, key)
    h = rec.rows.h
    u = np.empty_like(nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        if dom.kind is DomainKind.BALL:
            # the origin row is linear on the side of 0 that f(0) picks
            unit = 1.0 if fvals[0] >= 0.0 else -1.0
            p = rec.fluxes(unit * fvals[0] / rec.rows.origin[unit < 0.0])
            steps = 0
            du = h * _slopes(p, op.alpha)
            u[:-1] = dom.bc_outer - np.cumsum(du[::-1])[::-1]
        else:
            p, g, steps = _shoot(op, dom, rec, h, fvals)
            u[0] = dom.bc_inner
            u[1:-1] = dom.bc_inner + np.cumsum(h[:-1] * g[:-1])
        u[-1] = dom.bc_outer
    if not np.isfinite(u).all():
        raise Diverged("the profile overflows")

    def residual_sup(sol_u):
        res = _residual(op, dom, sol_u.grid, sol_u.values, fvals)
        return float(np.max(np.abs(res)))

    return Solution(DiscreteRadialFunction._of_own(grid, u), residual_sup,
                    rec.scans, steps, branches=rec.key)
