"""Certification checks on computed radial profiles.

Covers the gradient-flux inequalities on monotone intervals, the
touching-paraboloid viscosity tests, the Holder exponent of u' at its
zeros, the explicit C^1 growth bounds, the derivative-number continuity
diagnostics, and the comparison-principle oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (GridMismatch, InsufficientData, InvalidSpec, NotAZero,
                     PreconditionViolated)
from .grid import (DiscreteRadialFunction, Domain, DomainKind,
                   derivative_numbers, interior_quotients, lipschitz_constant)
from .operators import OperatorSpec, eval_radial_many
from .report import VerificationReport
from .solver import Solution, SourceFunction, _node_forcing

# smallest |u'| threshold of the flux checks' monotone intervals
FLUX_THRESHOLD_FLOOR = 1e-7

# sizes of the viscosity check's global paraboloid families: slopes are
# spread over [-2 Lip, 2 Lip], curvatures over [-4 |u''|, 4 |u''|]
VISCOSITY_SLOPES = 17
VISCOSITY_CURVATURES = 9
# each node's own curvatures: its second quotient m and m + c max(|m|, 1)
# for the offsets c; m + _LOCAL_COEFS max(|m|, 1) lists all nine, sorted
_CURV_OFFSETS = np.array([-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0])
_LOCAL_COEFS = np.insert(_CURV_OFFSETS, 4, 0.0)


def epsilon_aA(x, a: float, A: float):
    """x+/a - x-/A, the weighted positive/negative split of x."""
    if a <= 0 or A <= 0:
        raise InvalidSpec("weights must be positive")
    x = np.asarray(x, dtype=float)
    out = np.maximum(x, 0.0) / a - np.maximum(-x, 0.0) / A
    return float(out) if out.ndim == 0 else out


def _c1_scale(h: float, alpha: float) -> float:
    """h^(1/(1+alpha)), the scale of the flux, viscosity and growth-bound
    tolerances and of the viscosity check's slope floor."""
    return h ** (1.0 / (1.0 + alpha))


def _c1_tolerance(h: float, alpha: float, residual_sup: float) -> float:
    """10 (h^(1/(1+alpha)) + residual_sup), the tolerance of the flux,
    viscosity and growth-bound checks."""
    return 10.0 * (_c1_scale(h, alpha) + residual_sup)


def gamma_exponent(op: OperatorSpec) -> tuple[float, float]:
    """The barrier exponents (gamma, gamma1).

    gamma = (A/a)(N-1)(1+alpha) governs the lower/upper flux barriers;
    gamma1 = (N-1)(1+alpha) is the convex-branch exponent, gamma1 <= gamma.
    """
    gamma1 = (op.dim - 1) * (1.0 + op.alpha)
    return (op.A / op.a) * gamma1, gamma1


class Sign(str, enum.Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"


@dataclass(frozen=True)
class SignInterval:
    """Maximal run of interior nodes where u' keeps one strict sign."""

    lo: float
    hi: float
    sign: Sign
    threshold: float
    # interior-node index range [i_lo, i_hi] (inclusive, 1-based into nodes)
    i_lo: int
    i_hi: int


def sign_intervals(u: DiscreteRadialFunction, threshold: float) -> list[SignInterval]:
    """Decompose the interior into runs of strictly signed discrete u'.

    Runs shorter than 3 nodes are discarded; below the threshold the sign
    of the quotient is treated as noise.
    """
    if threshold <= 0:
        raise InvalidSpec("threshold must be positive")
    q, _ = interior_quotients(u)
    nodes = u.grid.nodes
    state = np.where(q > threshold, 1, np.where(q < -threshold, -1, 0))
    intervals: list[SignInterval] = []
    start = 0
    for k in range(1, len(state) + 1):
        if k == len(state) or state[k] != state[start]:
            if state[start] != 0 and k - start >= 3:
                sign = Sign.POSITIVE if state[start] > 0 else Sign.NEGATIVE
                intervals.append(SignInterval(
                    lo=float(nodes[1 + start]), hi=float(nodes[k]),
                    sign=sign, threshold=threshold,
                    i_lo=1 + start, i_hi=k))
            start = k
    return intervals


def _as_function(u):
    if isinstance(u, Solution):
        return u.u, u.residual_sup
    return u, 0.0


def _cumulative_trapezoid(y, x):
    """Running trapezoid integral of y over x, starting at 0 at x[0]."""
    return np.concatenate(
        [[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


def _flux_checks(report, tol, nodes, flux, idx, op, f_sup, eps_cum,
                 increasing):
    """Worst margins of the flux inequalities on one interval, in O(n).

    ``idx`` are node indices of the interval; the inequalities hold for
    every left endpoint i and right endpoint j > i.  Each margin splits into
    a term of i and a term of j, so its minimum over i < j is a running
    extreme over the left endpoints:

    - integral (eqA/eqC): with a = flux - (1+alpha) eps_cum, the margin at
      j is min_{i<j} a_i - a_j when increasing, a_j - max_{i<j} a_i when
      decreasing;
    - barrier (eqB/eqD): with c = f_sup (1+alpha) / denom and
      X = flux + c r (increasing) or c r - flux (decreasing), both positive
      on a sign interval, the margin at j is
      X_j - max_{i<j} (r_i / s_j)^gamma X_i.  The maximizing i is found as
      a running maximum of gamma log r_i + log X_i, because r_i^gamma alone
      under- or overflows once gamma |log r| passes about 700; the term is
      then evaluated at that i in the ratio form, which keeps exact ties
      exact (for gamma = 0 it is X_i itself).

    The reported location is the first right endpoint in grid order that
    attains the minimum margin.
    """
    gamma, _ = gamma_exponent(op)
    one_p_a = 1.0 + op.alpha
    r = nodes[idx]
    s = r[1:]
    f_int = flux[idx]
    a = f_int - one_p_a * eps_cum[idx]
    if increasing:
        m_int = np.minimum.accumulate(a[:-1]) - a[1:]
    else:
        m_int = a[1:] - np.maximum.accumulate(a[:-1])
    side, bar = ("eqA", "eqB") if increasing else ("eqC", "eqD")
    checks = [(side, m_int, True)]
    gamma_log_r = gamma * np.log(r[:-1])
    left = np.arange(len(s))
    for tag, denom, binding in (
            ("loose", op.A * (op.dim - 1) * one_p_a + op.a, True),
            ("tight", op.A * (op.dim - 1) * one_p_a + op.A, False)):
        c = f_sup * one_p_a / denom
        X = f_int + c * r if increasing else c * r - f_int
        lead = gamma_log_r + np.log(X[:-1])
        # left endpoint of the running maximum: the last i <= j-1 at which
        # the prefix maximum was reached
        best = np.maximum.accumulate(
            np.where(lead == np.maximum.accumulate(lead), left, 0))
        checks.append((f"{bar}[{tag}]",
                       X[1:] - (r[best] / s) ** gamma * X[best], binding))
    for name, margins, binding in checks:
        k = int(np.argmin(margins))
        report.add(name, float(s[k]), float(margins[k]), tol, binding)


def verify_flux_inequalities(u, op: OperatorSpec, f: SourceFunction,
                             threshold: float | None = None
                             ) -> VerificationReport:
    """Check the four gradient-flux inequalities on every monotone interval.

    The flux is Phi = |u'|^alpha u'.  On intervals where u' > 0, Phi(s)
    is bounded above through the weighted integral of f (eqA) and below
    by the (r/s)^gamma barrier (eqB); on intervals where u' < 0 the
    mirrored bounds (eqC), (eqD) apply.  The barrier constant is checked
    under both published denominators; the looser one is the binding
    check, the tighter one advisory.

    Each inequality must hold for every pair of endpoints r < s in an
    interval; its worst margin over all pairs is found in one pass over
    the interval (see ``_flux_checks``), and reported at the first right
    endpoint s that attains it.

    The monotone intervals are the runs where |u'| exceeds ``threshold``,
    by default max(FLUX_THRESHOLD_FLOOR, h_max) (1 + Lip u).
    """
    profile, residual_sup = _as_function(u)
    nodes = profile.grid.nodes
    h = profile.grid.max_spacing
    if threshold is None:
        lip = lipschitz_constant(profile)
        threshold = max(FLUX_THRESHOLD_FLOOR, h) * (1.0 + lip)
    tol = _c1_tolerance(h, op.alpha, residual_sup)
    fvals = _node_forcing(f, nodes)
    f_sup = float(np.max(np.abs(fvals)))

    q, _ = interior_quotients(profile)
    flux_int = np.abs(q) ** op.alpha * q
    flux = np.empty_like(nodes)
    flux[1:-1] = flux_int
    flux[0] = flux[-1] = 0.0  # endpoints never indexed by intervals

    cum_aA = _cumulative_trapezoid(epsilon_aA(fvals, op.a, op.A), nodes)
    cum_Aa = _cumulative_trapezoid(epsilon_aA(fvals, op.A, op.a), nodes)

    report = VerificationReport()
    intervals = sign_intervals(profile, threshold)
    for itv in intervals:
        idx = np.arange(itv.i_lo, itv.i_hi + 1)
        if itv.sign is Sign.POSITIVE:
            _flux_checks(report, tol, nodes, flux, idx, op, f_sup, cum_aA,
                         increasing=True)
        else:
            _flux_checks(report, tol, nodes, flux, idx, op, f_sup, cum_Aa,
                         increasing=False)
    if not intervals:
        report.add("flux[vacuous]", float(nodes[0]), math.inf, tol)
    return report


def _chebyshev(lo, hi, count):
    """Chebyshev-spread points in [lo, hi], endpoints included."""
    if count == 1:
        return np.array([0.5 * (lo + hi)])
    t = np.cos(np.pi * np.arange(count) / (count - 1))[::-1]
    return lo + (hi - lo) * 0.5 * (1.0 + t)


def _clears_nodes(P, Q, stencil, eta, below):
    """Node part of the touching test: the paraboloid w = P ds + Q ds^2 / 2
    stays below (above) the profile's increments du on the stencil, up to
    ``eta``.  ``stencil`` holds (offset, ds, du) per neighbour."""
    ok = True
    for _, ds, du in stencil:
        w = P * ds + 0.5 * Q * ds ** 2
        ok = ok & (w <= du + eta if below else w >= du - eta)
    return ok


def _touches(P, Q, m, stencil, eta, below):
    """The exact touching predicate from below (above) at (P, Q).

    The node part is followed by a sub-cell crossing guard: a paraboloid can
    clear the nodes yet cross the profile inside an adjacent cell.  Model u
    on the cell as the quadratic with the node's second quotient ``m``; the
    gap to the paraboloid is then gap(t) = t*gb - (dQ*hc^2/2)*t*(1-t) with
    dQ = Q - m, whose extremum over the cell is explicit.
    """
    ok = _clears_nodes(P, Q, stencil, eta, below)
    dQ = Q - m
    for offset, ds, du in stencil:
        if abs(offset) == 2:
            continue
        hc2 = ds * ds
        gb = P * ds + 0.5 * Q * hc2 - du
        denom = np.where(dQ != 0.0, dQ * hc2, 1.0)
        t_star = np.clip(0.5 - gb / denom, 0.0, 1.0)
        g_star = t_star * gb - 0.5 * dQ * hc2 * t_star * (1.0 - t_star)
        if below:
            ok = ok & (np.maximum(np.maximum(0.0, gb),
                                  np.where(dQ < 0, g_star, 0.0)) <= eta)
        else:
            ok = ok & (np.minimum(np.minimum(0.0, gb),
                                  np.where(dQ > 0, g_star, 0.0)) >= -eta)
    return ok


def _extreme_touching_curvature(P, family, row, global_curv, m, s, stencil,
                                eta, below):
    """Largest (below) or smallest (above) family curvature that touches.

    One entry per (node, slope) pair: slope ``P``, the row of ``family``
    its node owns, the node's second quotient ``m`` and scale ``s``, and its
    stencil.  A row of ``family`` is the sorted union of ``global_curv``
    (sorted, shared) and the node's own curvatures m + c s for the
    coefficients ``_LOCAL_COEFS``.

    The node part of the test flips near a bound that is explicit in Q.
    The row's values on the touching side of it are counted in
    ``global_curv`` exactly and in the local part through (bound - m) / s,
    which splits the row at that count.  The node part is monotone in Q in
    floating point (w is built from Q by monotone roundings), so where the
    value just across the split fails it, every value beyond fails too, and
    the walk starts next to the split; where rounding put the split off and
    that value passes, it starts from the row's far end.  It steps one value
    at a time away from the split and stops at the first value that passes
    the exact predicate, or at the end of the row.

    Returns the curvature per pair and whether any touches.
    """
    flips = [2.0 * ((du + eta if below else du - eta) - P * ds) / ds ** 2
             for _, ds, du in stencil]
    bound = np.min(flips, axis=0) if below else np.max(flips, axis=0)
    side = "right" if below else "left"
    across = (np.searchsorted(global_curv, bound, side)
              + np.searchsorted(_LOCAL_COEFS, (bound - m) / s, side))
    width = family.shape[1]
    if below:
        step, far = -1, width - 1
    else:
        step, far, across = 1, 0, across - 1
    off = ((across >= 0) & (across < width)
           & _clears_nodes(P, family[row, np.clip(across, 0, width - 1)],
                           stencil, eta, below))
    at = np.where(off, far, across + step)
    inside = (at >= 0) & (at < width)
    Q = family[row, np.clip(at, 0, width - 1)]
    found = inside & _touches(P, Q, m, stencil, eta, below)
    walk = np.flatnonzero(inside & ~found)
    while len(walk):
        at[walk] += step
        walk = walk[(at[walk] >= 0) & (at[walk] < width)]
        q = family[row[walk], at[walk]]
        hit = _touches(P[walk], q, m[walk],
                       [(offset, ds[walk], du[walk])
                        for offset, ds, du in stencil], eta, below)
        Q[walk[hit]] = q[hit]
        found[walk[hit]] = True
        walk = walk[~hit]
    return Q, found


def check_viscosity(u, op: OperatorSpec,
                    f: SourceFunction) -> VerificationReport:
    """Touching-paraboloid sub/supersolution test at every interior node.

    A paraboloid anchored at (r_i, u_i) that stays below u on the 5-node
    stencil is a touching test function from below; its operator value
    must then not exceed f(r_i) (supersolution side).  Touching from
    above gives the mirrored subsolution bound.  Zero-slope paraboloids
    are excluded from the family (the viscosity definition does not test
    with vanishing gradients), so nodes are never tested at u' = 0.

    Each node tests the global slope family and its own first quotient q
    against its curvature family: the global curvature family, eight
    offsets around its own second quotient m, and m itself, merged into one
    sorted row per node.  The operator is degenerate elliptic,
    so H is nondecreasing in Q (Crandall-Ishii-Lions), and it is so in
    floating point too: every operation between Q and H is monotone and
    rounding keeps that.  The worst supersolution margin for a slope is
    therefore reached at the largest curvature that touches from below,
    and the worst subsolution margin at the smallest that touches from
    above.  ``_extreme_touching_curvature`` finds those with the exact
    touching predicate, so each node needs one operator value per slope
    and side, and the margins equal those of testing every (slope,
    curvature) pair.  The search walks the node's row with one index and
    rests on one more fact: the touching curvatures form a down-set (from
    below) or an up-set (from above) in Q.  It relies on this only for the
    node part of the test, P ds + Q ds^2 / 2 against du, which is monotone
    in Q under rounding; the sub-cell guard, whose gap has derivative
    t^2 ds^2 / 2 >= 0 in Q, is tested exactly at every curvature the
    search visits.

    The 4-node stencils next to either end repeat an end node, which
    leaves the test unchanged.  Each side reports the first node in grid
    order that attains its minimum margin.
    """
    profile, residual_sup = _as_function(u)
    nodes = profile.grid.nodes
    vals = profile.values
    n = profile.grid.n
    h = profile.grid.max_spacing
    tol = _c1_tolerance(h, op.alpha, residual_sup)

    lip = max(lipschitz_constant(profile), h)
    q_int, m_int = interior_quotients(profile)
    mmax = float(np.max(np.abs(m_int))) if len(m_int) else 1.0

    pos_slopes = _chebyshev(h, max(2.0 * lip, 2.0 * h),
                            (VISCOSITY_SLOPES + 1) // 2)
    slope_family = np.concatenate([-pos_slopes[::-1], pos_slopes])
    pos_curv = _chebyshev(0.0, max(4.0 * mmax, 1.0),
                          (VISCOSITY_CURVATURES + 1) // 2)
    curv_family = np.unique(np.concatenate([-pos_curv[::-1], pos_curv]))

    fvals = _node_forcing(f, nodes)
    scale_u = max(1.0, float(np.max(np.abs(vals))))
    eta = 1e-11 * scale_u

    # nodes where |u'| falls below the scheme's resolvable slope scale are
    # excluded: the viscosity definition does not test with vanishing
    # gradients, and discretely "vanishing" means below the accuracy of the
    # first difference quotient
    slope_floor = _c1_scale(h, op.alpha)
    i = 1 + np.flatnonzero((nodes[1:n] > 0.0)
                           & (np.abs(q_int) >= slope_floor))
    r_i = nodes[i][:, None]
    u_i = vals[i][:, None]
    m_i = m_int[i - 1][:, None]
    # the global families rarely graze the profile; add the node's own
    # quotients so near-tangent paraboloids are always in the family
    s_i = np.maximum(np.abs(m_i), 1.0)
    family = np.sort(np.concatenate(
        [np.broadcast_to(curv_family, (len(i), len(curv_family))), m_i,
         m_i + _CURV_OFFSETS * s_i], axis=1), axis=1)
    P = np.concatenate(
        [np.broadcast_to(slope_family, (len(i), len(slope_family))),
         q_int[i - 1][:, None]], axis=1)
    # offset 0 always passes; a clipped offset repeats an end node
    stencil = []
    for offset in (-2, -1, 1, 2):
        j = np.clip(i + offset, 0, n)
        stencil.append((offset, nodes[j][:, None] - r_i,
                        vals[j][:, None] - u_i))

    # per side, the (node, slope, curvature) triples that touch, with the
    # extreme touching curvature of each
    touching = []
    for below, extreme in ((True, family[:, :1]), (False, family[:, -1:])):
        # the node part is monotone in Q: where the family's extreme
        # curvature fails it, so does every curvature of the family
        k, col = np.nonzero(_clears_nodes(P, extreme, stencil, eta, below))
        Q, found = _extreme_touching_curvature(
            P[k, col], family, k, curv_family, m_i[k, 0], s_i[k, 0],
            [(offset, ds[k, 0], du[k, 0]) for offset, ds, du in stencil],
            eta, below)
        touching.append((k[found], P[k, col][found], Q[found]))
    (k_super, P_super, Q_super), (k_sub, P_sub, Q_sub) = touching
    hvals = eval_radial_many(op, r_i[np.concatenate([k_super, k_sub]), 0],
                             np.concatenate([P_super, P_sub]),
                             np.concatenate([Q_super, Q_sub]))
    f_i = fvals[i]
    # touching from below: H(paraboloid) must not exceed f
    m_super = np.full(len(i), np.inf)
    m_sub = np.full(len(i), np.inf)
    np.minimum.at(m_super, k_super, f_i[k_super] - hvals[:len(k_super)])
    np.minimum.at(m_sub, k_sub, hvals[len(k_super):] - f_i[k_sub])

    report = VerificationReport()
    for name, margins in (("viscosity[supersolution]", m_super),
                          ("viscosity[subsolution]", m_sub)):
        k = int(np.argmin(margins)) if len(i) else 0
        if len(i) and margins[k] < math.inf:
            report.add(name, float(nodes[i[k]]), float(margins[k]), tol)
        else:
            report.add(name, float(nodes[min(1, n)]), math.inf, tol)
    return report


def _discrete_zero(profile: DiscreteRadialFunction, r_star: float):
    """The zero of the discrete derivative at the node nearest r_star.

    Returns that node's radius and the first quotients q at nodes 1..n-1,
    or raises NotAZero.  Absolute criterion |q| <= h*(1+Lip), with a
    scale-free fallback for degenerate profiles whose derivative vanishes
    only like a fractional power: the quotient at the candidate must be
    well below the nearby quotient magnitudes.
    """
    nodes = profile.grid.nodes
    h = profile.grid.max_spacing
    i_star = int(profile.grid.nearest_index(r_star))
    q_int, _ = interior_quotients(profile)
    qs = abs(q_int[min(max(i_star - 1, 0), len(q_int) - 1)])
    if qs > h * (1.0 + lipschitz_constant(profile)):
        dist = np.abs(nodes[1:-1] - nodes[i_star])
        nearby = (dist >= 3.0 * h) & (dist <= 30.0 * h)
        if (not nearby.any()
                or qs > 0.3 * float(np.median(np.abs(q_int[nearby])))):
            raise NotAZero("discrete derivative does not vanish at r_star")
    return float(nodes[i_star]), q_int


def derivative_zero_candidates(u: DiscreteRadialFunction, dom: Domain):
    """Radii where u' may vanish: the origin of a ball and every sign flip
    of the interior first quotient (at the node before the flip)."""
    q, _ = interior_quotients(u)
    candidates = [0.0] if dom.kind is DomainKind.BALL else []
    flips = np.nonzero(np.diff(np.sign(q)) != 0)[0]
    return candidates + [float(u.grid.nodes[1 + k]) for k in flips]


@dataclass(frozen=True)
class HolderEstimate:
    r_star: float
    beta_fit: float
    C_fit: float
    fit_range: tuple[float, float]
    residual: float


def holder_exponent(u, r_star: float, decades: float = 1.5) -> HolderEstimate:
    """Fit |u'| ~ C |r - r_star|^beta around a zero of the derivative.

    Least squares on log|u'| vs log|r - r_star| over the annular window
    |r - r_star| in [3h, 3h*10^decades]; the side of r_star with more
    usable nodes wins (only the right side exists at the origin).
    """
    if decades < 1.0:
        raise InvalidSpec("need at least one decade of scales")
    profile, _ = _as_function(u)
    nodes = profile.grid.nodes
    h = profile.grid.max_spacing
    r_star, q_int = _discrete_zero(profile, r_star)

    dist = nodes[1:-1] - r_star
    lo, hi = 3.0 * h, 3.0 * h * 10.0 ** decades
    usable = (np.abs(dist) >= lo) & (np.abs(dist) <= hi) & (np.abs(q_int) > 0)

    best = None
    for side_mask in (usable & (dist > 0), usable & (dist < 0)):
        count = int(np.count_nonzero(side_mask))
        if best is None or count > best[0]:
            best = (count, side_mask)
    count, mask = best
    if count < 3:
        raise InsufficientData("fewer than 3 nodes in the fit window")

    x = np.log(np.abs(dist[mask]))
    y = np.log(np.abs(q_int[mask]))
    beta, logc = np.polyfit(x, y, 1)
    misfit = float(np.sqrt(np.mean((beta * x + logc - y) ** 2)))
    return HolderEstimate(r_star=r_star, beta_fit=float(beta),
                          C_fit=float(np.exp(logc)),
                          fit_range=(lo, hi), residual=misfit)


def c1_bound_check(u, op: OperatorSpec, f: SourceFunction,
                   r_star: float) -> VerificationReport:
    """Explicit growth bounds on |u'|^{1+alpha} away from a zero of u'.

    To the right of the zero the bound (1+alpha)|f|_inf/a * (s - r_star)
    is binding; to the left the barrier-derived constant is checked under
    both published denominators (advisory).
    """
    profile, residual_sup = _as_function(u)
    nodes = profile.grid.nodes
    h = profile.grid.max_spacing
    one_p_a = 1.0 + op.alpha
    tol = _c1_tolerance(h, op.alpha, residual_sup)
    r_star, q_int = _discrete_zero(profile, r_star)

    f_sup = float(np.max(np.abs(_node_forcing(f, nodes))))
    gamma, _ = gamma_exponent(op)
    pw = np.abs(q_int) ** one_p_a
    dist = nodes[1:-1] - r_star

    report = VerificationReport()

    right = dist > 0
    if right.any():
        m = one_p_a * f_sup / op.a * dist[right] - pw[right]
        w = int(np.argmin(m))
        report.add("right-bound", float(nodes[1:-1][right][w]), float(m[w]), tol)
    else:
        report.add("right-bound", r_star, math.inf, tol)

    left = (dist < 0) & (nodes[1:-1] > 0.5 * r_star)
    for name, denom in (("machin[display]", op.A),
                        ("machin[proof]",
                         op.A * (op.dim - 1) * one_p_a + op.a)):
        if left.any():
            K = 2.0 ** (gamma - 1.0) * (gamma + 1.0) * f_sup * one_p_a / denom
            m = K * (-dist[left]) - pw[left]
            w = int(np.argmin(m))
            report.add(name, float(nodes[1:-1][left][w]), float(m[w]), tol,
                       binding=False)
        else:
            report.add(name, r_star, math.inf, tol, binding=False)
    return report


def c1_modulus_report(u, alpha: float, stride: int = 10,
                      scales: int = 3) -> VerificationReport:
    """Derivative-number diagnostics for C^1 behavior of the profile.

    Probes every ``stride``-th node: the spread of the four derivative
    numbers must shrink like the scheme's accuracy, the one-sided numbers
    must interlace (Lambda_g >= lambda_d and Lambda_d >= lambda_g up to
    tolerance), and wherever any number is small all four must be.  The
    numbers at all probed nodes come from one vectorized
    ``derivative_numbers`` call; each check reports the first probed node
    that attains its minimum margin.

    The tolerances scale like h^min(1, 1/(1+alpha)), the modulus of
    continuity of u' over a window of a few h.  For alpha >= 0 that is the
    paper's C^{1,1/(1+alpha)}.  For alpha < 0, u' vanishes like
    |r - r*|^{1/(1+alpha)} with an exponent above 1, and away from its
    zeros u'' stays bounded, so u' is Lipschitz and the numbers spread by
    O(h), not by the smaller O(h^{1/(1+alpha)}).

    ``zero-derivative`` has two thresholds.  A probe counts as near a zero
    of u' when some number is below tol = 10 h^min(1, 1/(1+alpha)); its
    margin is tol - max of the four, which passes at >= -tol, so the probe
    passes while every number stays <= 2 tol.  A single threshold (pass
    only while every number is <= tol) would fail 8 of the 18 shipped
    verify runs at n, 4n and 16n: the numbers of one probe span a window
    of 8 local spacings, and next to a zero of u' the largest of them
    exceeds tol while the smallest is below it.
    """
    profile, _ = _as_function(u)
    grid = profile.grid
    nodes = grid.nodes
    scale = grid.max_spacing ** min(1.0, 1.0 / (1.0 + alpha))
    tol_spread = 20.0 * scale
    tol_remark = 10.0 * scale

    probed = np.arange(0, grid.n + 1, stride)
    dn = derivative_numbers(profile, nodes[probed],
                            8.0 * grid.local_spacing(probed), scales)
    four = np.abs([dn.lambda_g, dn.Lambda_g, dn.lambda_d, dn.Lambda_d])
    # the zero-derivative check applies only where some number is small
    zero = np.where(np.min(four, axis=0) < tol_remark,
                    tol_remark - np.max(four, axis=0), math.inf)

    report = VerificationReport()
    for name, margins, tol in (
            ("c1-spread", -dn.spread, tol_spread),
            ("interlace[Lg-ld]", dn.Lambda_g - dn.lambda_d, tol_remark),
            ("interlace[Ld-lg]", dn.Lambda_d - dn.lambda_g, tol_remark),
            ("zero-derivative", zero, tol_remark)):
        k = int(np.argmin(margins))
        report.add(name, float(nodes[probed[k]]), float(margins[k]), tol)
    return report


def comparison_oracle(u, v, op: OperatorSpec, fu, fv) -> VerificationReport:
    """Check u <= v given fu >= fv and ordered boundary data.

    Each forcing is a ``SourceFunction`` or its values at the nodes.

    Larger forcing pushes solutions down for this sign convention, so the
    solution with the larger source must lie below.
    """
    pu, res_u = _as_function(u)
    pv, res_v = _as_function(v)
    if not pu.same_grid(pv):
        raise GridMismatch("comparison requires a common grid")
    nodes = pu.grid.nodes
    fuv = _node_forcing(fu, nodes)
    fvv = _node_forcing(fv, nodes)
    fscale = max(1.0, float(np.max(np.abs(fuv))), float(np.max(np.abs(fvv))))
    if np.any(fuv < fvv - 1e-12 * fscale):
        raise PreconditionViolated("need fu >= fv pointwise")
    strict_somewhere = bool(np.any(fuv > fvv + 1e-12 * fscale))
    bscale = max(1.0, float(np.max(np.abs(pu.values))), float(np.max(np.abs(pv.values))))
    for j in (0, -1):
        if pu.values[j] > pv.values[j] + 1e-12 * bscale:
            raise PreconditionViolated("boundary data must be ordered u <= v")

    tol = 10.0 * max(res_u, res_v)
    gap = pv.values[1:-1] - pu.values[1:-1]
    worst = int(np.argmin(gap))
    report = VerificationReport()
    name = "comparison" if strict_somewhere else "comparison[non-strict]"
    report.add(name, nodes[1 + worst], float(gap[worst]), tol)
    return report
