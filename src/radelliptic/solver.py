"""Monotone finite-difference solver for H(r, u'', u') = f(r) with Dirichlet data.

The |u'|^alpha degeneracy is handled by replacing |q|^alpha with
(q^2 + eps^2)^{alpha/2} and driving eps to zero geometrically; each
regularized problem is solved by damped semismooth Newton with a
pseudo-time relaxation fallback.

The interior rows and their linearization come from the one numpy kernel,
``_kernels.assemble_system``, on node data built once per solve; ``_System``
adds the boundary rows.

The Jacobian is the tridiagonal interior linearization plus a first row that
is either the three-point origin symmetry closure (ball) or an identity row
(annulus), and an identity last row.  Each Newton step folds the first and
last rows into their neighbours and solves the remaining tridiagonal system
by odd-even cyclic reduction, finished by a short Thomas sweep; there is no
pivoting, and a zero pivot gives a non-finite step.

Each iterate is assembled once, as a line-search trial.  Its ``Assembly``
holds the residual, the frozen bands and the chain-rule term that makes
them the Newton bands, and the degenerate factor that the roundoff floor
reads.  When the trial is accepted, that record serves the next step, its
frozen-Jacobian retry, the stop test and, for the last iterate, the final
convergence and monotonicity checks; a step without backtracking costs
one assembly and one tridiagonal solve.  A ``_System`` shared by the
solves of the eigen iteration keeps the last iterate's record, so a warm
solve from that iterate swaps only the forcing.

The ball initial guess is the power profile r^{(alpha+2)/(alpha+1)} scaled
from the mean forcing and shifted to the outer boundary value; the origin is
not a boundary, so nothing is pinned there.  On an annulus the chord through
both boundary values of that profile is subtracted as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import Diverged, GridMismatch, InvalidSpec, LostMonotonicity
from .grid import DiscreteRadialFunction, Domain, DomainKind, RadialGrid
from .operators import OperatorSpec

# each catalogue expression with its parameters and their defaults
EXPRESSION_CATALOGUE = {
    "const": {"value": 0.0},
    "step": {"left": 0.0, "right": 1.0, "r0": 0.5, "width": 0.1},
    "sine": {"amplitude": 1.0, "frequency": 1.0, "offset": 0.0},
    "power": {"coef": 1.0, "exponent": 1.0},
}

# eps continuation: EPS_START, EPS_START * EPS_FACTOR, ... down to EPS_END
EPS_START = 1e-2
EPS_END = 1e-8
EPS_FACTOR = 0.1
# Newton steps per eps stage, smallest line-search damping, and the
# pseudo-time steps a whole solve may spend in its fallback
NEWTON_MAX_ITER = 200
DAMPING_MIN = 2.0 ** -20
PSEUDO_TIME_MAX_STEPS = 100_000
# cyclic reduction halves the Newton system until at most this many rows
# are left for a scalar Thomas sweep
CR_TAIL = 24


class SourceFunction:
    """Bounded continuous radial forcing term f(r).

    Three kinds: a constant, a tabulated profile (linear interpolation), or
    a named expression from a fixed catalogue (const, step, sine, power).
    """

    def __init__(self, kind: str, *, value: float = 0.0, table_r=None,
                 table_v=None, name: str = "", params: dict | None = None):
        self.kind = kind
        self.value = float(value)
        self.table_r = None if table_r is None else np.asarray(table_r, dtype=float)
        self.table_v = None if table_v is None else np.asarray(table_v, dtype=float)
        self.name = name
        self.params = dict(params or {})
        if kind == "tabulated":
            if self.table_r is None or self.table_v is None:
                raise InvalidSpec("tabulated source needs a table")
            if not np.all(np.diff(self.table_r) > 0):
                raise InvalidSpec("table radii must be increasing")
        elif kind == "expression":
            if self.name not in EXPRESSION_CATALOGUE:
                raise InvalidSpec(f"unknown expression {self.name!r}")
            for key in self.params:
                if key not in EXPRESSION_CATALOGUE[self.name]:
                    raise InvalidSpec(f"unknown parameter {key!r} of "
                                      f"expression {self.name!r}")
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
        p = {**EXPRESSION_CATALOGUE[self.name], **self.params}
        if self.name == "const":
            return np.full_like(r, float(p["value"]))
        if self.name == "step":
            # continuous ramp from `left` to `right` across [r0-w, r0+w]
            left, right = float(p["left"]), float(p["right"])
            r0, w = float(p["r0"]), float(p["width"])
            s = np.clip((r - (r0 - w)) / (2.0 * w), 0.0, 1.0)
            return left + (right - left) * s
        if self.name == "sine":
            return (float(p["offset"])
                    + float(p["amplitude"]) * np.sin(float(p["frequency"]) * r))
        return float(p["coef"]) * r ** float(p["exponent"])

    def sup_norm(self, dom: Domain) -> float:
        """``|f|_inf`` on the domain: exact for the constant and tabulated
        kinds, sampled at 4097 points for an expression."""
        if self.kind == "constant":
            return abs(self.value)
        r1 = dom.R1 if dom.kind is DomainKind.ANNULUS else 0.0
        if self.kind == "tabulated":
            # the interpolant is piecewise linear: its extremes lie at the
            # table nodes inside the domain or at the domain's ends
            inside = (self.table_r > r1) & (self.table_r < dom.R)
            ends = np.abs(self(np.array([r1, dom.R])))
            return float(max(np.max(ends),
                             np.max(np.abs(self.table_v[inside]), initial=0.0)))
        probe = np.linspace(r1, dom.R, 4097)
        return float(np.max(np.abs(self(probe))))

    def to_json_dict(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value": self.value}
        if self.kind == "tabulated":
            return {"kind": "tabulated", "r": self.table_r.tolist(),
                    "v": self.table_v.tolist()}
        return {"kind": "expression", "name": self.name, "params": self.params}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SourceFunction":
        kind = doc["kind"]
        if kind == "constant":
            return cls.constant(float(doc["value"]))
        if kind == "tabulated":
            return cls.tabulated(doc["r"], doc["v"])
        return cls.expression(doc["name"], **doc.get("params", {}))


@dataclass
class Solution:
    u: DiscreteRadialFunction
    residual_sup: float
    eps_final: float
    iterations: int
    converged: bool
    eps_path: list = field(default_factory=list)

    def diagnostics_dict(self) -> dict:
        return {"residual_sup": self.residual_sup, "eps_final": self.eps_final,
                "iterations": self.iterations, "converged": self.converged}


def _origin_row_weights(nodes):
    """Second-order one-sided u'(r0) weights on the first three nodes."""
    h1 = nodes[1] - nodes[0]
    h2 = nodes[2] - nodes[0]
    c0 = -(h1 + h2) / (h1 * h2)
    c1 = h2 / (h1 * (h2 - h1))
    c2 = -h1 / (h2 * (h2 - h1))
    return c0, c1, c2


class _System:
    """Assembles the full residual and Jacobian including boundary rows.

    A system belongs to one operator, domain and grid; ``force`` sets the
    forcing values at the nodes.  ``last`` is the end state of the last
    solve run on it: (iterate, eps, its ``Assembly``).
    """

    def __init__(self, op: OperatorSpec, dom: Domain, grid: RadialGrid):
        self.op = op
        self.dom = dom
        self.grid = grid
        self.nodes = grid.nodes
        self.n = grid.n
        self.node_data = _kernels.NodeData(self.nodes, op.dim)
        self.is_ball = dom.kind is DomainKind.BALL
        if self.is_ball:
            self.origin_w = _origin_row_weights(self.nodes)
        self.coefs = op.bracket_coefficients()
        cmp_, cmm, ctp, ctm = self.coefs
        # node-only terms of the roundoff floor
        self.floor_cm = max(cmp_, cmm)
        self.floor_ct = self.node_data.coef_r * max(ctp, ctm)
        self.floor_hpm2 = np.abs(self.node_data.stencil.hpm2)
        self.cr_levels, size = _cr_shape(self.n - 1)
        # the padded rows of the reduction are identity rows; ``step``
        # rewrites only the first n-1 rows of these buffers
        self.cr_bufs = (np.zeros(size), np.ones(size), np.zeros(size),
                        np.zeros(size))
        self.fvals = self.abs_f = self.last = None

    def force(self, fvals):
        self.fvals = fvals
        self.abs_f = np.abs(fvals[1:-1])

    def system(self, u, eps):
        rec = _kernels.assemble_system(
            self.nodes, self.node_data, u, self.fvals, self.op.alpha, eps,
            *self.coefs)
        self._boundary_rows(u, rec.res)
        return rec

    def reforced(self, u, rec):
        """``rec``, the assembly of ``u``, with its residual taken against
        the current forcing."""
        res = np.zeros(self.n + 1)
        res[1:-1] = rec.hval - self.fvals[1:-1]
        self._boundary_rows(u, res)
        return rec._replace(res=res)

    def newton_bands(self, rec):
        """The Newton Jacobian's bands: the frozen bands plus the derivative
        of the degenerate factor."""
        bands = []
        for band, dq in zip((rec.lo, rec.di, rec.up),
                            self.node_data.q_weights):
            band = band.copy()
            band[1:-1] += rec.chain * dq
            bands.append(band)
        return bands

    def _boundary_rows(self, u, res):
        n = self.n
        if self.is_ball:
            c0, c1, c2 = self.origin_w
            res[0] = c0 * u[0] + c1 * u[1] + c2 * u[2]
        else:
            res[0] = u[0] - self.dom.bc_inner
        res[n] = u[n] - self.dom.bc_outer

    def step(self, lo, di, up, rhs):
        """Solve J x = rhs for the Jacobian with interior bands lo, di, up.

        The first row, ``c0 x[0] + c1 x[1] + c2 x[2]`` (the origin closure,
        or ``x[0]`` on an annulus), is folded into row 1 and the identity
        last row into row n-1.  That leaves the tridiagonal system of -J in
        x[1..n-1], padded with identity rows to ``cr_size`` rows.

        A zero or NaN pivot gives a non-finite x, without a warning.  A
        non-finite Newton step sends the caller to the frozen-Jacobian retry,
        and a non-finite retry step fails the line search, which hands over
        to pseudo-time.
        """
        n = self.n
        c0, c1, c2 = self.origin_w if self.is_ball else (1.0, 0.0, 0.0)
        a, b, c, d = self.cr_bufs
        a[1:n - 1] = lo[2:n]
        np.negative(di[1:n], out=b[:n - 1])
        c[:n - 1] = up[1:n]
        np.negative(rhs[1:n], out=d[:n - 1])
        x = np.empty(n + 1)
        with np.errstate(all="ignore"):
            s = lo[1] / c0
            b[0] += s * c1
            c[0] -= s * c2
            d[0] += s * rhs[0]
            d[n - 2] += c[n - 2] * rhs[n]
            c[n - 2] = 0.0
            x[1:n] = _cyclic_reduction(a, b, c, d, self.cr_levels)[:n - 1]
            x[n] = rhs[n]
            x[0] = (rhs[0] - c1 * x[1] - c2 * x[2]) / c0
        return x

    def roundoff_floor(self, u, rec):
        """Attainable residual floor from cancellation in the assembly.

        The difference quotients divide O(|u|) cancellations by h^2, so on
        fine grids the discrete residual cannot be driven below a multiple
        of machine epsilon times the assembled term magnitudes.  ``rec`` is
        the assembly of ``u``.
        """
        st = self.node_data.stencil
        au = np.abs(u)
        m_abs = 2.0 * (st.hm * au[2:] + st.hsum * au[1:-1]
                       + st.hp * au[:-2]) / st.denom
        q_abs = (st.hm2 * au[2:] + self.floor_hpm2 * au[1:-1]
                 + st.hp2 * au[:-2]) / st.denom
        amp = rec.factor * (self.floor_cm * m_abs
                            + self.floor_ct * q_abs) + self.abs_f
        return 64.0 * np.finfo(float).eps * float(np.max(amp))

    def monotone_structure_ok(self, lo, di, up, rel_tol=1e-10):
        """Nonnegative off-diagonals and weak diagonal dominance of -J rows."""
        scale = np.maximum.reduce([np.abs(lo[1:-1]), np.abs(di[1:-1]),
                                   np.abs(up[1:-1]), np.ones(self.n - 1)])
        tol = rel_tol * scale
        return bool(np.all(lo[1:-1] >= -tol) and np.all(up[1:-1] >= -tol)
                    and np.all(lo[1:-1] + di[1:-1] + up[1:-1] <= tol))


def discretize_residual(op: OperatorSpec, f: SourceFunction,
                        u: DiscreteRadialFunction, eps: float,
                        dom: Domain) -> np.ndarray:
    """Full residual vector H_eps - f, boundary rows included."""
    if not u.grid.spans(dom):
        raise GridMismatch("grid does not span the domain")
    system = _System(op, dom, u.grid)
    system.force(np.asarray(f(u.grid.nodes), dtype=float))
    return system.system(u.values, eps).res


def _initial_guess(op, dom, grid, fvals):
    """Boundary data plus a power-profile bump scaled from mean f.

    The bump vanishes at the outer radius; on an annulus its chord is
    subtracted too so that it also vanishes at the inner radius.  On a ball
    the origin is left free.
    """
    nodes = grid.nodes
    fbar = float(np.mean(fvals))
    if dom.kind is DomainKind.BALL:
        base = np.full_like(nodes, dom.bc_outer)
    else:
        base = np.interp(nodes, [nodes[0], nodes[-1]],
                         [dom.bc_inner, dom.bc_outer])
    if fbar == 0.0:
        return base
    alpha = op.alpha
    c_ref = 0.5 * (op.a + op.A) * op.dim
    amp = (abs(fbar) / c_ref) ** (1.0 / (1.0 + alpha))
    expo = (2.0 + alpha) / (1.0 + alpha)
    w = math.copysign(1.0, fbar) * amp / expo * nodes ** expo
    if dom.kind is DomainKind.BALL:
        return base + (w - w[-1])
    w_lin = np.interp(nodes, [nodes[0], nodes[-1]], [w[0], w[-1]])
    return base + (w - w_lin)


def solve_dirichlet(op: OperatorSpec, dom: Domain, f: SourceFunction,
                    grid: RadialGrid, *, initial_guess: np.ndarray | None = None,
                    eps_start: float = EPS_START,
                    system: _System | None = None) -> Solution:
    """Continuation in eps, damped Newton per stage, pseudo-time fallback.

    The eps stages run from ``eps_start`` down to ``EPS_END``; a warm start
    near a solution of the final stage may begin there.  The tolerance on
    the residual sup-norm is ``1e-10 * max(1, |f|_inf)``.

    ``system`` is a ``_System`` of ``op``, ``dom`` and ``grid`` that a
    sequence of solves shares.  A solve whose initial guess is the iterate
    the previous solve on it ended with, at ``eps_start``, reuses that
    iterate's assembly with only the forcing swapped.
    """
    if not eps_start >= EPS_END:
        raise InvalidSpec(f"eps_start must be >= {EPS_END:g}")
    if not grid.spans(dom):
        raise GridMismatch("grid does not span the domain")
    nodes = grid.nodes
    fvals = np.asarray(f(nodes), dtype=float)
    tol = 1e-10 * max(1.0, f.sup_norm(dom))

    if system is None:
        system = _System(op, dom, grid)
    elif system.op != op or system.dom != dom or system.grid is not grid:
        raise InvalidSpec("system belongs to another problem")
    system.force(fvals)
    if initial_guess is not None:
        u = np.array(initial_guess, dtype=float)
        if u.shape != nodes.shape:
            raise GridMismatch("initial guess has wrong length")
    else:
        u = _initial_guess(op, dom, grid, fvals)

    # the assembly the first stage starts from, if the last solve ended here
    warm = None
    if initial_guess is not None and system.last is not None:
        last_u, last_eps, last_rec = system.last
        if last_eps == eps_start and np.array_equal(last_u, u):
            warm = system.reforced(u, last_rec)
    system.last = None

    eps_list = [eps_start]
    while eps_list[-1] > EPS_END * (1 + 1e-12):
        eps = eps_list[-1] * EPS_FACTOR
        # repeated multiplication drifts off EPS_END (1e-2 * 0.1 ** 6 is
        # 1.0000000000000004e-08): a stage that close to it is EPS_END
        eps_list.append(EPS_END if eps <= EPS_END * (1 + 1e-12) else eps)

    iterations = 0
    pseudo_budget = PSEUDO_TIME_MAX_STEPS
    eps_path = []
    u_prev_stage = u.copy()

    for eps in eps_list:
        if warm is None:
            rec = system.system(u, eps)
        else:
            rec, warm = warm, None
        stopped = False
        for _ in range(NEWTON_MAX_ITER):
            rn = float(np.max(np.abs(rec.res)))
            stopped = rn <= tol or rn <= system.roundoff_floor(u, rec)
            if stopped:
                break
            delta = system.step(*system.newton_bands(rec), -rec.res)
            if not np.all(np.isfinite(delta)):
                delta = system.step(rec.lo, rec.di, rec.up, -rec.res)
            iterations += 1
            # damp on the 2-norm: the sup-norm is dominated by single rows
            # near the origin and is too kinky for an Armijo test
            rn2 = float(np.linalg.norm(rec.res))
            lam = 1.0
            accepted = False
            while lam >= DAMPING_MIN:
                trial = u + lam * delta
                trial_rec = system.system(trial, eps)
                if float(np.linalg.norm(trial_rec.res)) <= (1.0 - 1e-4 * lam) * rn2:
                    u, rec = trial, trial_rec
                    accepted = True
                    break
                lam *= 0.5
            if not accepted:
                u, used, rec = _pseudo_time(system, u, eps, rn, tol,
                                            min(pseudo_budget, 20 * grid.n))
                pseudo_budget -= used
                if pseudo_budget <= 0:
                    break
        stage_res = float(np.max(np.abs(rec.res)))
        eps_path.append({"eps": eps, "residual_sup": stage_res,
                         "delta_from_prev": float(np.max(np.abs(u - u_prev_stage)))})
        u_prev_stage = u.copy()

    # the last stage's record is the final iterate's assembly, and its stop
    # test is the convergence test when it ran on that record
    eps_final = eps_list[-1]
    residual_sup = stage_res
    converged = (stopped or residual_sup <= tol
                 or residual_sup <= system.roundoff_floor(u, rec))
    system.last = (u.copy(), eps_final, rec)
    if not converged:
        raise Diverged(
            f"residual {residual_sup:.3e} above tolerance {tol:.3e} at eps={eps_final:.1e}")
    if not system.monotone_structure_ok(rec.lo, rec.di, rec.up):
        raise LostMonotonicity("final linearization lost its monotone structure")

    profile = DiscreteRadialFunction(grid, u)
    return Solution(profile, residual_sup, eps_final, iterations, converged,
                    eps_path)


def _cr_shape(m):
    """Levels and padded size of the cyclic reduction of m rows.

    ``levels`` halvings of ``2**levels * t - 1`` rows leave ``t - 1``, and
    ``t - 1 <= CR_TAIL``: the padding is at most ``2**levels - 1`` rows.
    """
    levels = 0
    while -(-(m + 1) >> levels) - 1 > CR_TAIL:
        levels += 1
    return levels, (-(-(m + 1) >> levels) << levels) - 1


def _cyclic_reduction(a, b, c, d, levels):
    """Solve ``-a[i] x[i-1] + b[i] x[i] - c[i] x[i+1] = d[i]``, a[0] = c[-1] = 0.

    Odd-even cyclic reduction without pivoting: each of ``levels`` halvings
    eliminates the unknowns of the even rows (0, 2, ...) from the odd rows,
    which needs an odd number of rows at every level; the rows left are
    solved by a Thomas sweep.
    The caller sets the floating-point error state.
    """
    saved = []
    for _ in range(levels):
        ae, be, ce, de = a[0::2], b[0::2], c[0::2], d[0::2]
        left = a[1::2] / be[:-1]
        right = c[1::2] / be[1:]
        saved.append((ae, be, ce, de))
        b = b[1::2] - left * ce[:-1] - right * ae[1:]
        d = d[1::2] + left * de[:-1] + right * de[1:]
        a = left * ae[:-1]
        c = right * ce[1:]
    x = _thomas(a, b, c, d)
    for ae, be, ce, de in reversed(saved):
        # x padded with a zero on each side, interleaved with the even rows
        full = np.zeros(2 * len(x) + 3)
        full[2:-2:2] = x
        full[1:-1:2] = (de + ae * full[:-2:2] + ce * full[2::2]) / be
        x = full[1:-1]
    return x


def _thomas(a, b, c, d):
    """Scalar Thomas sweep of the system of ``_cyclic_reduction``; NaN on a
    zero pivot."""
    cp = dp = 0.0
    cps, dps = [], []
    try:
        for ai, bi, ci, di in zip(a.tolist(), b.tolist(), c.tolist(),
                                  d.tolist()):
            piv = bi - ai * cp
            cp = ci / piv
            dp = (di + ai * dp) / piv
            cps.append(cp)
            dps.append(dp)
    except ZeroDivisionError:
        return np.full(len(b), np.nan)
    x = 0.0
    xs = []
    for cp, dp in zip(reversed(cps), reversed(dps)):
        x = dp + cp * x
        xs.append(x)
    return np.array(xs[::-1])


def _pseudo_time(system, u, eps, rn_enter, tol, budget):
    """Relaxation steps until the residual halves or the budget runs out.

    Returns the last iterate, the steps taken (at least 1) and the
    iterate's assembly.
    """
    used = 0
    u = u.copy()
    while True:
        rec = system.system(u, eps)
        rn = float(np.max(np.abs(rec.res)))
        if used >= budget or rn <= max(0.5 * rn_enter, tol):
            break
        used += 1
        # per-node relaxation: explicit Euler at the local stability limit
        denom = np.maximum(np.abs(rec.di[1:-1]), 1e-300)
        u[1:-1] += 0.9 * rec.res[1:-1] / denom
        # boundary rows are linear: enforce them exactly
        if system.is_ball:
            c0, c1, c2 = system.origin_w
            u[0] = -(c1 * u[1] + c2 * u[2]) / c0
        else:
            u[0] = system.dom.bc_inner
        u[-1] = system.dom.bc_outer
    return u, max(used, 1), rec
