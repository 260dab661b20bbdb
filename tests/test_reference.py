"""The reference oracle of ``reference.py`` against the closed forms."""

import math

import numpy as np
import pytest

from radelliptic.grid import Domain
from radelliptic.operators import OperatorSpec, closed_form_alpha_laplacian
from radelliptic.solver import SourceFunction
from reference import reference_eigenvalue, reference_solution

ALPHAS = (-0.75, -0.5, 0.0, 1.0, 3.0)
DIMS = (1, 2, 3, 4)


def _check(op, exact, forcing, kind):
    if kind == "ball":
        dom = Domain.ball(1.0, bc_outer=float(exact(1.0)))
    else:
        dom = Domain.annulus(0.4, 1.0, bc_inner=float(exact(0.4)),
                             bc_outer=float(exact(1.0)))
    nodes = np.linspace(dom.R1, dom.R, 41)
    u = reference_solution(op, dom, SourceFunction.constant(forcing), nodes)
    assert np.max(np.abs(u - exact(nodes))) <= 1e-9


@pytest.mark.parametrize("kind", ["ball", "annulus"])
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_alpha_laplacian_closed_form(alpha, dim, kind):
    op = OperatorSpec.alpha_laplacian(alpha, dim)
    _check(op, closed_form_alpha_laplacian(op, 2.0), 2.0, kind)


@pytest.mark.parametrize("kind", ["ball", "annulus"])
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_pucci_power_closed_form(alpha, dim, kind):
    # r^((alpha+2)/(alpha+1)) solves PucciPlus for every alpha > -1;
    # operators.pucci_power_profile only serves alpha >= 0
    op = OperatorSpec.pucci_plus(alpha, 1.0, 2.0, dim)
    expo = (alpha + 2.0) / (alpha + 1.0)
    c = expo ** (alpha + 1.0) * op.A * (1.0 / (1.0 + alpha) + dim - 1)
    _check(op, lambda r: r ** expo, c, kind)


def test_classical_eigenvalues():
    lap = {dim: OperatorSpec.pucci_plus(0.0, 1.0, 1.0, dim) for dim in (1, 2)}
    j01 = 2.404825557695773
    assert reference_eigenvalue(lap[2], Domain.ball(1.0)) == pytest.approx(
        j01 ** 2, abs=1e-9)
    assert reference_eigenvalue(lap[1], Domain.ball(1.0)) == pytest.approx(
        math.pi ** 2 / 4.0, abs=1e-9)
    # dilation: lambda(2 Omega) = 2^-(2+alpha) lambda(Omega)
    op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
    ratio = (reference_eigenvalue(op, Domain.ball(2.0))
             / reference_eigenvalue(op, Domain.ball(1.0)))
    assert ratio == pytest.approx(2.0 ** -3.0, rel=1e-12)
