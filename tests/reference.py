"""Reference solutions of the radial problems, from the flux ODE.

With the flux phi = |u'|^alpha u', the equation H = f reads

    phi' = (1+alpha) B1^{-1}(f - (N-1) B2(phi) / r),
    u' = |phi|^{1/(1+alpha)} sign(phi)

where B1 and B2 are the increasing piecewise-linear halves of the
operator's bracket.  The right-hand side is Lipschitz in phi for every
alpha > -1, so scipy's ``solve_ivp`` (LSODA, rtol 1e-12) integrates it
without regularization:

- ball: an initial-value problem from phi ~ kappa r at the origin, with
  B1(kappa/(1+alpha)) + (N-1) B2(kappa) = f(0); u is then summed inward
  from the outer boundary value;
- annulus: shooting on s = phi(R1), whose boundary mismatch increases
  with s;
- principal eigenvalue: the initial-value problem from u(0) = 1 with
  lambda = 1, run to the first zero r1 of u; dilation gives
  lambda(R) = (r1/R)^{2+alpha}.  Minus runs on the dual operator.

This module lives with the tests so that the package never imports scipy.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from radelliptic.grid import DomainKind

RTOL = 1e-12
ATOL = 1e-14
# the ball's integration starts here, off the singular origin
R_START = 1e-7


def _halves(op):
    cmp_, cmm, ctp, ctm = op.bracket_coefficients()

    def b1_inv(y):
        return y / cmp_ if y >= 0.0 else y / cmm

    def b2(x):
        return ctp * x if x >= 0.0 else ctm * x

    return b1_inv, b2


def _slope(phi, alpha):
    return math.copysign(abs(phi) ** (1.0 / (1.0 + alpha)), phi)


def _rhs(op, forcing):
    """The flux ODE in (phi, w) with w' = u'; ``forcing(r, w)`` is f."""
    b1_inv, b2 = _halves(op)
    one_p_a = 1.0 + op.alpha

    def rhs(r, y):
        phi, w = y
        f = forcing(r, w)
        return [one_p_a * b1_inv(f - (op.dim - 1) * b2(phi) / r),
                _slope(phi, op.alpha)]

    return rhs


def _origin_start(op, f0):
    """(phi, w) at R_START of the solution that is regular at the origin."""
    cmp_, cmm, ctp, ctm = op.bracket_coefficients()
    cm, ct = (cmp_, ctp) if f0 >= 0.0 else (cmm, ctm)
    kappa = f0 / (cm / (1.0 + op.alpha) + (op.dim - 1) * ct)
    expo = 1.0 + 1.0 / (1.0 + op.alpha)
    return [kappa * R_START, _slope(kappa, op.alpha) * R_START ** expo / expo]


def reference_solution(op, dom, f, nodes):
    """u at ``nodes`` of H = f with the Dirichlet data of ``dom``."""
    nodes = np.asarray(nodes, dtype=float)
    rhs = _rhs(op, lambda r, w: float(f(r)))
    if dom.kind is DomainKind.BALL:
        sol = solve_ivp(rhs, (R_START, dom.R), _origin_start(op, float(f(0.0))),
                        method="LSODA", rtol=RTOL, atol=ATOL, dense_output=True)
        w = sol.sol(np.maximum(nodes, R_START))[1]
        w[nodes < R_START] = 0.0
        return dom.bc_outer - (sol.sol(dom.R)[1] - w)

    def run(s, dense=False):
        return solve_ivp(rhs, (dom.R1, dom.R), [s, 0.0], method="LSODA",
                         rtol=RTOL, atol=ATOL, dense_output=dense)

    def mismatch(s):
        return dom.bc_inner + run(s).y[1, -1] - dom.bc_outer

    lo, hi = -1.0, 1.0
    while mismatch(lo) > 0.0:
        lo *= 4.0
    while mismatch(hi) < 0.0:
        hi *= 4.0
    s = brentq(mismatch, lo, hi, xtol=1e-15, rtol=1e-15)
    return dom.bc_inner + run(s, dense=True).sol(nodes)[1]


def reference_eigenvalue(op, dom, sign="Plus"):
    """The principal eigenvalue of the ball ``dom`` (zero Dirichlet data)."""
    if dom.kind is not DomainKind.BALL:
        raise ValueError("the reference eigenvalue is for balls")
    work = op if sign == "Plus" else op.dual()
    # u = 1 + w; F[u] = -|u|^alpha u with lambda = 1
    rhs = _rhs(work, lambda r, w: -abs(1.0 + w) ** work.alpha * (1.0 + w))

    def zero(r, y):
        return 1.0 + y[1]

    zero.terminal = True
    sol = solve_ivp(rhs, (R_START, 1e3), _origin_start(work, -1.0),
                    method="LSODA", rtol=RTOL, atol=ATOL, events=zero)
    r1 = sol.t_events[0][0]
    return (r1 / dom.R) ** (2.0 + op.alpha)
