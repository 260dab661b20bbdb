"""Principal Dirichlet eigenvalue via nonlinear inverse power iteration.

The eigenpair solves F[phi] + lambda * phi^{1+alpha} = 0 with zero
boundary data and phi > 0 inside.  Each outer step inverts the operator
against the normalized previous iterate; the joint homogeneity of degree
1 + alpha makes the normalized fixed point an exact eigenpair.

Every outer step is one exact ``solve_dirichlet`` on the same grid, of
the node values -phi^{1+alpha}.  Every step is a guessed solve
(``initial_guess``): the first starts from all-zero branch keys, each
later one from the row branches the step before settled on.  The fluxes
are one scan of the settled branches whatever the guess, so the guess
changes the work and never the result: once the branches stop moving, a
ball's step is one scan.  A guessed solve keeps the record of its last
assembled scan on the grid (``solver._ScanMemo``), so the next step's
first scan, of those branches, reads only the new forcing: it divides it
by the kept denominators and sums it over the kept window products, in
the one summation every scan runs, with no assembly.  No step reads its
solution's residual, and a step's profile is the solve's own read-only
array, so the solve makes no copy of it for the step.  A step whose
solution is not positive inside raises ``LostPositivity``.  On a
ball the monotone scheme rules that out (a forcing negative inside makes
every flux negative, also in floating point); on an annulus none has
been seen.  A step tests positivity and takes the sup norm with one
reduction each (see ``principal_eigenvalue``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (Diverged, InvalidSpec, LostPositivity, NotConverged,
                     config_number)
from .grid import DiscreteRadialFunction, Domain, DomainKind, RadialGrid
from .operators import OperatorSpec
from .solver import discretize_residual, solve_dirichlet

# outer steps of the inverse power iteration before it gives up
MAX_OUTER = 80


class EigenSign(str, enum.Enum):
    PLUS = "Plus"
    MINUS = "Minus"


@dataclass
class EigenResult:
    lambda_value: float
    phi: DiscreteRadialFunction
    lambda_history: list
    sign: EigenSign
    residual_sup: float

    @property
    def iterations(self) -> int:
        """Outer steps taken: one eigenvalue estimate each."""
        return len(self.lambda_history)


def _bump(dom: Domain, grid: RadialGrid) -> np.ndarray:
    r = grid.nodes
    if dom.kind is DomainKind.BALL:
        v = 1.0 - (r / dom.R) ** 2
    else:
        v = (r - dom.R1) * (dom.R - r)
    return v / np.max(v)


def eigen_residual(op: OperatorSpec, dom: Domain, lam: float,
                   phi: DiscreteRadialFunction) -> float:
    """Sup-norm of the scheme's rows of F[phi] + lam*phi^{1+alpha} at the
    interior nodes."""
    v = phi.values
    # -lam |v|^alpha v, left at 0 where v vanishes: for alpha < 0 the power
    # alone is inf there and inf * 0 is nan
    table = np.zeros_like(v)
    nz = v != 0.0
    table[nz] = -lam * np.abs(v[nz]) ** op.alpha * v[nz]
    res = discretize_residual(op, table, phi, dom)
    return float(np.max(np.abs(res[1:-1])))


def principal_eigenvalue(op: OperatorSpec, dom: Domain, grid: RadialGrid,
                         sign: EigenSign = EigenSign.PLUS,
                         tol: float = 1e-8) -> EigenResult:
    """Inverse power iteration for the principal Dirichlet eigenvalue.

    Plus gives the eigenvalue with a positive eigenfunction.  Minus runs
    the same iteration on the dual operator G[v] = -F[-v]; the returned
    phi is the positive profile, the Minus eigenfunction being its
    negative.

    Each inner solve is exact; it starts from the branches of the solve
    before it (the first from all-zero keys), which saves repairs and
    changes no bit.  The iteration stops when two successive eigenvalues
    agree to ``tol``, or raises NotConverged after ``MAX_OUTER`` steps; an
    inner solution that is not positive at an interior node raises
    LostPositivity, and a step whose eigenvalue 1 / norm^{1+alpha} is 0 or
    not finite (lambda scales like R^-(2+alpha), so it can lie outside the
    float range) raises Diverged.  ``tol`` is read by ``config_number``:
    one that is not a positive finite number raises InvalidSpec.

    Once the interior values of a solution psi are positive, psi.max()
    is max |psi|, so the norm needs no ``abs``: the boundary values are
    the zero data, and on a ball the origin value is u[0] = u[1] - h0
    slope(phi0), summed inward from u[1], where the first flux phi0 has
    the sign of f(0) = -phi(0)^{1+alpha} <= 0 (the origin row is
    increasing in phi0 and 0 at 0), so the slope is <= 0 and u[0] >= u[1]
    > 0, rounding being monotone.  So every value is >= 0.
    """
    sign = EigenSign(sign)
    if dom.bc_inner != 0.0 or dom.bc_outer != 0.0:
        raise InvalidSpec("eigenproblem needs zero Dirichlet data")
    tol = config_number(tol, "tol", float, 0.0, strict=True)
    work_op = op if sign is EigenSign.PLUS else op.dual()
    one_p_a = 1.0 + op.alpha

    phi = _bump(dom, grid)
    lam_history: list[float] = []
    # a guess, so that the first solve keeps its scan memo for the second
    branches = np.zeros(grid.n - 1, np.int8)

    while len(lam_history) < MAX_OUTER:
        sol = solve_dirichlet(work_op, dom, -phi ** one_p_a, grid,
                              initial_guess=branches)
        branches = sol.branches
        psi = sol.u.values
        if not psi[1:-1].min() > 0.0:
            raise LostPositivity("iterate left the positive cone")
        norm = float(psi.max())  # max |psi|: psi >= 0 (see the docstring)
        try:
            lam = 1.0 / norm ** one_p_a
        except (OverflowError, ZeroDivisionError):  # the power left the range
            lam = math.nan
        if not 0.0 < lam < math.inf:
            raise Diverged(f"eigenvalue outside the float range at step "
                           f"{len(lam_history) + 1}")
        lam_history.append(lam)
        phi = psi / norm
        if len(lam_history) >= 2 and abs(lam_history[-1] - lam_history[-2]) <= tol * lam:
            break
    else:
        raise NotConverged(
            f"eigenvalue iteration did not settle in {MAX_OUTER} steps")

    # phi = psi / norm is a fresh finite array that nothing writes again
    profile = DiscreteRadialFunction._of_own(grid, phi)
    res = eigen_residual(work_op, dom, lam_history[-1], profile)
    return EigenResult(lambda_value=lam_history[-1], phi=profile,
                       lambda_history=lam_history, sign=sign, residual_sup=res)
