import math
import warnings

import numpy as np
import pytest

from radelliptic import _kernels, eigen, solver
from radelliptic.eigen import (EigenSign, eigen_residual,
                               principal_eigenvalue)
from radelliptic.errors import InvalidSpec, LostPositivity, NotConverged
from radelliptic.grid import (DiscreteRadialFunction, Domain, Grading,
                              RadialGrid)
from radelliptic.operators import OperatorSpec
from radelliptic.solver import (SourceFunction, discretize_residual,
                                solve_dirichlet)


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
        check = eigen_residual(op, dom, res.lambda_value, res.phi)
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

    # a NaN tol passed ``tol <= 0`` and ran into NotConverged, and an
    # infinite one stopped after two steps on an unsettled eigenvalue
    @pytest.mark.parametrize("tol, message", [
        (-1e-8, "tol must be > 0, got -1e-08"),
        (math.nan, "tol must be a finite number, got nan"),
        (math.inf, "tol must be a finite number, got inf"),
        (-math.inf, "tol must be a finite number, got -inf")],
        ids=["-1e-08", "nan", "inf", "-inf"])
    def test_tol_must_be_positive_and_finite(self, tol, message):
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 64)
        with pytest.raises(InvalidSpec) as info:
            principal_eigenvalue(laplacian(2), dom, grid, tol=tol)
        assert str(info.value) == message

    def test_annulus_supported(self):
        dom = Domain.annulus(0.5, 1.0)
        grid = RadialGrid.for_domain(dom, 128)
        res = principal_eigenvalue(laplacian(1), dom, grid)
        # one-dimensional annulus is the interval (0.5, 1): lambda = (2 pi)^2
        assert res.lambda_value == pytest.approx(4.0 * math.pi ** 2, rel=0.01)


class TestNegativeAlpha:
    @pytest.mark.parametrize("sign, reference", [
        (EigenSign.PLUS, 5.8396007), (EigenSign.MINUS, 11.6817327)])
    def test_pair_matches_reference(self, sign, reference):
        # PucciPlus a=1, A=2, dim 2, unit ball; the references come from
        # tests/reference.py.  The Newton solver gave 6.099 and 11.731.
        op = OperatorSpec.pucci_plus(-0.5, 1.0, 2.0, 2)
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 1600, Grading.GRADED_AT_ORIGIN)
        res = principal_eigenvalue(op, dom, grid, sign=sign)
        assert res.lambda_value == pytest.approx(reference, abs=1e-5)

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
        # were skipped.  Only interior rows are compared, and they do not
        # read the boundary entries, left at 0: a forcing table is finite
        op = OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2)
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 120, Grading.GRADED_AT_ORIGIN)
        phi = DiscreteRadialFunction(grid, 1.0 - grid.nodes ** 2)
        lam = 7.0
        table = np.zeros_like(phi.values)
        inner = phi.values[1:-1]
        table[1:-1] = -lam * np.abs(inner) ** alpha * inner
        res = discretize_residual(op, SourceFunction.tabulated(grid.nodes,
                                                               table),
                                  phi, dom)
        expected = float(np.max(np.abs(res[1:-1])))
        assert eigen_residual(op, dom, lam, phi) == expected


class TestPositiveCone:
    """Every inner solve of the iteration is positive inside; one that is
    not ends the iteration."""

    def test_sign_changing_iterate_raises_after_one_solve(self, monkeypatch):
        calls = []
        solve = eigen.solve_dirichlet

        def sign_changing(*args, **kwargs):
            calls.append(kwargs)
            sol = solve(*args, **kwargs)
            u = sol.u.values.copy()
            u[1:len(u) // 2] *= -1.0
            sol.u = DiscreteRadialFunction(sol.u.grid, u)
            return sol

        monkeypatch.setattr(eigen, "solve_dirichlet", sign_changing)
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 64)
        with pytest.raises(LostPositivity,
                           match="^iterate left the positive cone$"):
            principal_eigenvalue(laplacian(2), dom, grid)
        assert len(calls) == 1

    @pytest.mark.parametrize("k", range(40))
    def test_random_problem_keeps_every_iterate_positive(self, monkeypatch,
                                                         k):
        # the variant cycles with k, ball and annulus alternate every four
        rng = np.random.default_rng(4000 + k)
        alpha = float(rng.choice([-0.75, -0.5, 0.0, 1.0, 3.0]))
        a = float(rng.uniform(0.5, 1.5))
        A = a * float(rng.uniform(1.0, 3.0))
        dim = int(rng.integers(1, 5))
        op = (OperatorSpec.pucci_plus(alpha, a, A, dim),
              OperatorSpec.pucci_minus(alpha, a, A, dim),
              OperatorSpec.alpha_laplacian(alpha, dim),
              OperatorSpec.trace_normal_mix(alpha, a, A - 1.5 * a, dim))[k % 4]
        R = float(rng.uniform(0.5, 2.0))
        if (k // 4) % 2:
            dom = Domain.annulus(R * float(rng.uniform(0.1, 0.7)), R)
        else:
            dom = Domain.ball(R)
        grid = RadialGrid.for_domain(dom, int(rng.integers(32, 101)),
                                     list(Grading)[rng.integers(2)])
        sign = list(EigenSign)[rng.integers(2)]
        smallest = []
        solve = eigen.solve_dirichlet

        def checked(*args, **kwargs):
            sol = solve(*args, **kwargs)
            u = sol.u.values
            smallest.append(float(np.min(u[1:-1])))
            assert smallest[-1] > 0.0, (k, len(smallest))
            # the boundary values are 0 and a ball's origin value is at
            # least its neighbour's, so the largest value is the sup norm
            assert u[-1] == 0.0
            assert u[0] >= u[1] if dom.R1 == 0.0 else u[0] == 0.0
            assert u.max() == np.max(np.abs(u)), (k, len(smallest))
            return sol

        monkeypatch.setattr(eigen, "solve_dirichlet", checked)
        try:
            res = principal_eigenvalue(op, dom, grid, sign=sign)
        except NotConverged:
            assert len(smallest) == eigen.MAX_OUTER
            return
        assert len(smallest) == res.iterations
        assert res.lambda_value > 0.0


def reference_iteration(op, dom, grid, sign, tol=1e-8):
    """The outer step with nothing shared between solves: a fresh
    tabulated forcing and a solve on a fresh grid each step, reading the
    solve's residual.  Returns the eigenvalue history, the final iterate
    and its ``eigen_residual``."""
    work_op = op if sign is EigenSign.PLUS else op.dual()
    one_p_a = 1.0 + op.alpha
    nodes = grid.nodes
    phi = eigen._bump(dom, grid)
    history = []
    while len(history) < eigen.MAX_OUTER:
        forcing = SourceFunction.tabulated(nodes, -phi ** one_p_a)
        sol = solve_dirichlet(work_op, dom, forcing,
                              RadialGrid(nodes, grid.grading))
        assert math.isfinite(sol.residual_sup)
        psi = sol.u.values
        assert np.all(psi[1:-1] > 0.0)
        norm = float(np.max(np.abs(psi)))
        history.append(1.0 / norm ** one_p_a)
        phi = psi / norm
        if (len(history) >= 2
                and abs(history[-1] - history[-2]) <= tol * history[-1]):
            break
    profile = DiscreteRadialFunction(RadialGrid(nodes, grid.grading), phi)
    return history, phi, eigen_residual(work_op, dom, history[-1], profile)


def eigen_problem(shape):
    if shape == "ball":
        dom = Domain.ball(1.0)
        return dom, RadialGrid.for_domain(dom, 400, Grading.GRADED_AT_ORIGIN)
    dom = Domain.annulus(0.5, 1.0)
    return dom, RadialGrid.for_domain(dom, 200)


class TestSharedMeshData:
    """The outer steps share the grid's row data and read no residual;
    the results are those of solving each step from scratch."""

    @pytest.mark.parametrize("shape", ["ball", "annulus"])
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
    @pytest.mark.parametrize("sign", list(EigenSign))
    def test_matches_fresh_solve_reference(self, shape, alpha, sign):
        op = OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2)
        dom, grid = eigen_problem(shape)
        res = principal_eigenvalue(op, dom, grid, sign=sign)
        history, phi, residual = reference_iteration(op, dom, grid, sign)
        assert res.lambda_history == history
        assert res.iterations == len(history)
        assert res.residual_sup == residual
        assert res.phi.values.tobytes() == phi.tobytes()

    @pytest.mark.parametrize("shape", ["ball", "annulus"])
    @pytest.mark.parametrize("sign", list(EigenSign))
    def test_one_row_data_build_and_one_residual(self, monkeypatch, shape,
                                                 sign):
        builds, residuals, before_final = [], [], []
        row_data, residual = _kernels.RowData, solver._residual
        final_residual = eigen.eigen_residual

        def counting_rows(*args):
            builds.append(args)
            return row_data(*args)

        def counting_residual(*args):
            residuals.append(args)
            return residual(*args)

        def final(*args):
            before_final.append(len(residuals))
            return final_residual(*args)

        monkeypatch.setattr(_kernels, "RowData", counting_rows)
        monkeypatch.setattr(solver, "_residual", counting_residual)
        monkeypatch.setattr(eigen, "eigen_residual", final)
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        dom, grid = eigen_problem(shape)
        res = principal_eigenvalue(op, dom, grid, sign=sign)
        assert res.iterations > 2
        assert len(builds) == 1
        # the residual is computed once, for the final eigen_residual
        assert before_final == [0] and len(residuals) == 1


class TestWarmSteps:
    """Each outer step starts from the branches the step before settled
    on; on a ball, a step whose guess is already settled is one scan."""

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
    @pytest.mark.parametrize("sign", list(EigenSign))
    def test_settled_guess_takes_one_scan(self, monkeypatch, alpha, sign):
        steps = []
        solve = eigen.solve_dirichlet
        kernels = {"assemble_system": 0, "branch_keys": 0}
        for name in kernels:
            def counting(*args, _name=name, _kernel=getattr(_kernels, name)):
                kernels[_name] += 1
                return _kernel(*args)

            monkeypatch.setattr(_kernels, name, counting)

        def recording(*args, **kwargs):
            before = dict(kernels)
            sol = solve(*args, **kwargs)
            calls = {k: kernels[k] - before[k] for k in kernels}
            steps.append((kwargs["initial_guess"], sol, calls))
            return sol

        monkeypatch.setattr(eigen, "solve_dirichlet", recording)
        op = OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2)
        dom, grid = eigen_problem("ball")
        res = principal_eigenvalue(op, dom, grid, sign=sign)
        assert len(steps) == res.iterations
        assert steps[0][0] is None
        settled = 0
        for k, ((_, before, _), (guess, sol, calls)) in enumerate(
                zip(steps, steps[1:])):
            assert np.array_equal(guess, before.branches)
            if np.array_equal(guess, sol.branches):
                settled += 1
                assert sol.iterations == 1
                # past the first guessed step, the step before scanned
                # these branches last and the grid kept their row
                # factors: the scan reads only the new forcing
                assert calls == {"assemble_system": 0 if k else 1,
                                 "branch_keys": 1}
        # the branches settle within the first eight steps and then repeat
        assert settled >= res.iterations - 8
