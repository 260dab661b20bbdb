"""Principal Dirichlet eigenvalue via nonlinear inverse power iteration.

The eigenpair solves F[phi] + lambda * phi^{1+alpha} = 0 with zero
boundary data and phi > 0 inside.  Each outer step inverts the operator
against the normalized previous iterate; the joint homogeneity of degree
1 + alpha makes the normalized fixed point an exact eigenpair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec, LostPositivity, NotConverged
from .grid import DiscreteRadialFunction, Domain, DomainKind, RadialGrid
from .operators import OperatorSpec
from .solver import (EPS_END, EPS_START, SourceFunction, _System,
                     discretize_residual, solve_dirichlet)

# outer steps of the inverse power iteration before it gives up
MAX_OUTER = 80


class EigenSign(str, enum.Enum):
    PLUS = "Plus"
    MINUS = "Minus"


@dataclass
class EigenResult:
    lambda_value: float
    phi: DiscreteRadialFunction
    iterations: int
    lambda_history: list = field(default_factory=list)
    sign: EigenSign = EigenSign.PLUS
    residual_sup: float = 0.0


def _bump(dom: Domain, grid: RadialGrid) -> np.ndarray:
    r = grid.nodes
    if dom.kind is DomainKind.BALL:
        v = 1.0 - (r / dom.R) ** 2
    else:
        v = (r - dom.R1) * (dom.R - r)
    return v / np.max(v)


def eigen_residual(op: OperatorSpec, dom: Domain, lam: float,
                   phi: DiscreteRadialFunction, eps: float = 0.0) -> float:
    """Sup-norm of F[phi] + lam*phi^{1+alpha} at the interior nodes."""
    v = phi.values
    # -lam |v|^alpha v, left at 0 where v vanishes: for alpha < 0 the power
    # alone is inf there and inf * 0 is nan
    table = np.zeros_like(v)
    nz = v != 0.0
    table[nz] = -lam * np.abs(v[nz]) ** op.alpha * v[nz]
    forcing = SourceFunction.tabulated(phi.grid.nodes, table)
    res = discretize_residual(op, forcing, phi, eps, dom)
    return float(np.max(np.abs(res[1:-1])))


def principal_eigenvalue(op: OperatorSpec, dom: Domain, grid: RadialGrid,
                         sign: EigenSign = EigenSign.PLUS, tol: float = 1e-8,
                         seed: int = 0) -> EigenResult:
    """Inverse power iteration for the principal Dirichlet eigenvalue.

    Plus gives the eigenvalue with a positive eigenfunction.  Minus runs
    the same iteration on the dual operator G[v] = -F[-v]; the returned
    phi is the positive profile, the Minus eigenfunction being its
    negative.

    Warm solves start from the previous iterate at the final eps.  All
    solves share one ``_System``, so a warm solve reuses the assembly its
    predecessor ended with.  The iteration stops when two successive
    eigenvalues agree to ``tol``, or raises NotConverged after
    ``MAX_OUTER`` steps.
    """
    sign = EigenSign(sign)
    if dom.bc_inner != 0.0 or dom.bc_outer != 0.0:
        raise InvalidSpec("eigenproblem needs zero Dirichlet data")
    if tol <= 0:
        raise InvalidSpec("tol must be positive")
    work_op = op if sign is EigenSign.PLUS else op.dual()
    one_p_a = 1.0 + op.alpha
    nodes = grid.nodes
    rng = np.random.default_rng(seed)
    system = _System(work_op, dom, grid)

    phi = _bump(dom, grid)
    lam_history: list[float] = []
    iterations = 0
    restarts = 0
    psi_prev = None

    while iterations < MAX_OUTER:
        forcing = SourceFunction.tabulated(nodes, -phi ** one_p_a)
        sol = solve_dirichlet(
            work_op, dom, forcing, grid, initial_guess=psi_prev,
            eps_start=EPS_START if psi_prev is None else EPS_END,
            system=system)
        psi = sol.u.values
        if np.any(psi[1:-1] <= 0.0):
            restarts += 1
            if restarts > 3:
                raise LostPositivity(
                    "iterate left the positive cone after 3 restarts")
            phi = rng.uniform(0.2, 1.0, size=nodes.shape) * _bump(dom, grid)
            phi /= np.max(phi)
            psi_prev = None
            continue
        iterations += 1
        norm = float(np.max(np.abs(psi)))
        lam = 1.0 / norm ** one_p_a
        lam_history.append(lam)
        phi = psi / norm
        psi_prev = psi
        if len(lam_history) >= 2 and abs(lam_history[-1] - lam_history[-2]) <= tol * lam:
            break
    else:
        raise NotConverged(
            f"eigenvalue iteration did not settle in {MAX_OUTER} steps")

    profile = DiscreteRadialFunction(grid, phi)
    res = eigen_residual(work_op, dom, lam_history[-1], profile,
                         eps=EPS_END)
    return EigenResult(lambda_value=lam_history[-1], phi=profile,
                       iterations=iterations, lambda_history=lam_history,
                       sign=sign, residual_sup=res)
