import math
import warnings

import numpy as np
import pytest

from radelliptic import eigen
from radelliptic.eigen import (EigenSign, eigen_residual,
                               principal_eigenvalue)
from radelliptic.errors import InvalidSpec, LostPositivity
from radelliptic.grid import (DiscreteRadialFunction, Domain, Grading,
                              RadialGrid)
from radelliptic.operators import OperatorSpec
from radelliptic.solver import SourceFunction, discretize_residual


def bessel_j0(x):
    """Power series for J0; converges fast for |x| < 10."""
    total, term = 1.0, 1.0
    for k in range(1, 40):
        term *= -(x * x / 4.0) / (k * k)
        total += term
    return total


def first_j0_zero():
    """Bisection for the first positive zero of J0 (near 2.405)."""
    lo, hi = 2.0, 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bessel_j0(lo) * bessel_j0(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def laplacian(dim):
    return OperatorSpec.pucci_plus(0.0, 1.0, 1.0, dim)


class TestKnownEigenvalues:
    def test_disk_laplacian_bessel(self):
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 400)
        res = principal_eigenvalue(laplacian(2), dom, grid)
        target = first_j0_zero() ** 2
        assert target == pytest.approx(5.7831859, abs=1e-5)
        assert res.lambda_value == pytest.approx(target, rel=0.01)

    def test_interval_laplacian(self):
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 400)
        res = principal_eigenvalue(laplacian(1), dom, grid)
        assert res.lambda_value == pytest.approx(math.pi ** 2 / 4.0, rel=0.01)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_dilation_scaling(self, alpha):
        op = OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2)
        lams = {}
        for R in (1.0, 2.0):
            dom = Domain.ball(R)
            grid = RadialGrid.for_domain(dom, 200)
            lams[R] = principal_eigenvalue(op, dom, grid).lambda_value
        ratio = lams[2.0] / lams[1.0]
        assert ratio == pytest.approx(2.0 ** -(2.0 + alpha), rel=0.02)

    def test_signs_agree_for_symmetric_operator(self):
        # with a = A the operator is odd and both principal eigenvalues
        # coincide
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 200)
        op = laplacian(2)
        plus = principal_eigenvalue(op, dom, grid, sign=EigenSign.PLUS)
        minus = principal_eigenvalue(op, dom, grid, sign=EigenSign.MINUS)
        assert minus.lambda_value == pytest.approx(plus.lambda_value, rel=0.01)

    def test_asymmetric_operator_splits_signs(self):
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 200)
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        plus = principal_eigenvalue(op, dom, grid, sign=EigenSign.PLUS)
        minus = principal_eigenvalue(op, dom, grid, sign=EigenSign.MINUS)
        assert minus.lambda_value > plus.lambda_value


@pytest.fixture(scope="module")
def disk_result():
    dom = Domain.ball(1.0)
    grid = RadialGrid.for_domain(dom, 300)
    return principal_eigenvalue(OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2),
                                dom, grid), dom, grid


class TestEigenfunction:
    def test_positive_inside_zero_at_boundary(self, disk_result):
        res, _, _ = disk_result
        phi = res.phi.values
        assert np.all(phi[:-1] > 0.0)
        assert phi[-1] == pytest.approx(0.0, abs=1e-12)
        assert np.max(phi) == pytest.approx(1.0)

    def test_decreasing_through_boundary(self, disk_result):
        res, _, grid = disk_result
        phi = res.phi.values
        # outward slope at the boundary is strictly negative
        assert (phi[-1] - phi[-2]) / (grid.nodes[-1] - grid.nodes[-2]) < 0.0

    def test_history_settles_monotonically(self, disk_result):
        res, _, _ = disk_result
        tail = res.lambda_history[3:]
        gaps = np.abs(np.diff(tail))
        assert np.all(gaps[1:] <= gaps[:-1] + 1e-12)

    def test_residual_bound(self, disk_result):
        res, dom, grid = disk_result
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        check = eigen_residual(op, dom, res.lambda_value, res.phi, eps=1e-8)
        h = grid.max_spacing
        assert check == pytest.approx(res.residual_sup)
        assert check <= 50.0 * (h ** (1.0 / (1.0 + op.alpha)) + 1e-8)


class TestEigenValidation:
    def test_nonzero_boundary_rejected(self):
        dom = Domain.ball(1.0, bc_outer=1.0)
        grid = RadialGrid.for_domain(dom, 64)
        with pytest.raises(InvalidSpec):
            principal_eigenvalue(laplacian(2), dom, grid)

    def test_tol_validated(self):
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 64)
        with pytest.raises(InvalidSpec):
            principal_eigenvalue(laplacian(2), dom, grid, tol=0.0)

    def test_annulus_supported(self):
        dom = Domain.annulus(0.5, 1.0)
        grid = RadialGrid.for_domain(dom, 128)
        res = principal_eigenvalue(laplacian(1), dom, grid)
        # one-dimensional annulus is the interval (0.5, 1): lambda = (2 pi)^2
        assert res.lambda_value == pytest.approx(4.0 * math.pi ** 2, rel=0.01)


class TestNegativeAlpha:
    def test_no_runtime_warnings(self):
        # |phi|^alpha is inf at the zero boundary node when alpha < 0
        op = OperatorSpec.pucci_plus(-0.5, 1.0, 2.0, 2)
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 200, Grading.GRADED_AT_ORIGIN)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = principal_eigenvalue(op, dom, grid)
        assert math.isfinite(res.lambda_value)
        assert math.isfinite(res.residual_sup)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
    def test_residual_keeps_interior_forcing(self, alpha):
        # the tabulated forcing at the interior nodes is the plain
        # expression, so the residual is the one it gave before zeros
        # were skipped
        op = OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2)
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 120, Grading.GRADED_AT_ORIGIN)
        phi = DiscreteRadialFunction(grid, 1.0 - grid.nodes ** 2)
        lam = 7.0
        with np.errstate(divide="ignore", invalid="ignore"):
            table = -lam * np.abs(phi.values) ** alpha * phi.values
        res = discretize_residual(op, SourceFunction.tabulated(grid.nodes,
                                                               table),
                                  phi, 0.0, dom)
        expected = float(np.max(np.abs(res[1:-1])))
        assert eigen_residual(op, dom, lam, phi) == expected


class TestRestart:
    """An iterate that leaves the positive cone restarts from a random bump."""

    @staticmethod
    def flip(monkeypatch, times):
        """Make the first ``times`` solves return the negated profile."""
        calls = []
        solve = eigen.solve_dirichlet

        def flipping(*args, **kwargs):
            calls.append(kwargs)
            sol = solve(*args, **kwargs)
            if len(calls) <= times:
                sol.u = DiscreteRadialFunction(sol.u.grid, -sol.u.values)
            return sol

        monkeypatch.setattr(eigen, "solve_dirichlet", flipping)
        return calls

    def test_one_restart_then_convergence(self, monkeypatch):
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 200)
        plain = principal_eigenvalue(laplacian(2), dom, grid)
        calls = self.flip(monkeypatch, 1)
        res = principal_eigenvalue(laplacian(2), dom, grid)
        # the rejected solve counts no outer step; the restart is cold
        assert len(calls) == res.iterations + 1
        assert calls[1]["initial_guess"] is None
        assert len(res.lambda_history) == res.iterations
        assert res.lambda_value == pytest.approx(plain.lambda_value, rel=1e-6)
        assert np.all(res.phi.values[:-1] > 0.0)

    def test_lost_positivity_after_three_restarts(self, monkeypatch):
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 64)
        calls = self.flip(monkeypatch, 10 ** 9)
        with pytest.raises(LostPositivity):
            principal_eigenvalue(laplacian(2), dom, grid)
        assert len(calls) == 4
        assert all(c["initial_guess"] is None for c in calls)
