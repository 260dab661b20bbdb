import json
import os

import numpy as np
import pytest

from radelliptic import _kernels, solver
from radelliptic.analysis import comparison_oracle
from radelliptic.cli import ConfigError, _parse_problem
from radelliptic.errors import GridMismatch, InvalidSpec, PreconditionViolated
from radelliptic.grid import DiscreteRadialFunction, Domain, Grading, RadialGrid
from radelliptic.operators import (OperatorSpec, _bracket,
                                   closed_form_alpha_laplacian,
                                   closed_form_pucci_power,
                                   pucci_power_profile)
from radelliptic.solver import (SourceFunction, discretize_residual,
                                solve_dirichlet)


class TestSourceFunction:
    def test_constant(self):
        f = SourceFunction.constant(2.5)
        assert np.allclose(f(np.linspace(0, 1, 5)), 2.5)

    def test_tabulated_interpolates(self):
        f = SourceFunction.tabulated([0.0, 1.0], [0.0, 2.0])
        assert f(0.25) == pytest.approx(0.5)

    def test_tabulated_needs_increasing_radii(self):
        with pytest.raises(InvalidSpec):
            SourceFunction.tabulated([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])

    def test_expression_catalogue(self):
        f = SourceFunction.expression("sine", amplitude=2.0, frequency=3.0,
                                      offset=1.0)
        assert f(0.5) == pytest.approx(1.0 + 2.0 * np.sin(1.5))
        g = SourceFunction.expression("power", coef=4.0, exponent=2.0)
        assert g(0.5) == pytest.approx(1.0)
        with pytest.raises(InvalidSpec):
            SourceFunction.expression("gauss")

    def test_expression_rejects_unknown_parameter(self):
        with pytest.raises(InvalidSpec, match="'amplitud'"):
            SourceFunction.expression("sine", amplitud=2.0)
        with pytest.raises(InvalidSpec):
            SourceFunction.from_json_dict({"kind": "expression",
                                           "name": "power",
                                           "params": {"offset": 1.0}})

    def test_step_is_continuous_ramp(self):
        f = SourceFunction.expression("step", left=1.0, right=3.0, r0=0.5,
                                      width=0.1)
        assert f(0.0) == pytest.approx(1.0)
        assert f(0.5) == pytest.approx(2.0)
        assert f(1.0) == pytest.approx(3.0)

    def test_reads_each_kind_from_json(self):
        for doc, f in (
                ({"kind": "constant", "value": -1.0},
                 SourceFunction.constant(-1.0)),
                ({"kind": "tabulated", "r": [0.0, 1.0], "v": [1.0, 2.0]},
                 SourceFunction.tabulated([0.0, 1.0], [1.0, 2.0])),
                ({"kind": "expression", "name": "sine",
                  "params": {"amplitude": 0.5}},
                 SourceFunction.expression("sine", amplitude=0.5))):
            back = SourceFunction.from_json_dict(json.loads(json.dumps(doc)))
            r = np.linspace(0, 1, 33)
            assert np.array_equal(back(r), f(r))


class TestSolverParams:
    """The solver takes no settings."""

    @pytest.mark.parametrize("doc", [{"eps_factor": 1.5}, {"eps_end": 0}])
    def test_bad_config_params_are_config_errors(self, doc):
        # the solver settings are no longer configurable: the whole
        # section is an unknown key
        config = {"operator": {"variant": "PucciPlus", "alpha": 1.0,
                               "a": 1.0, "A": 2.0, "dim": 2},
                  "domain": {"kind": "Ball", "R": 1.0},
                  "grid": {"n": 32}, "params": doc}
        with pytest.raises(ConfigError, match="unknown key params$"):
            _parse_problem(config)


class TestResidual:
    def test_laplacian_of_quadratic_is_exact(self):
        # F = Laplacian (alpha = 0, a = A = 1), u = r^2: F[u] = 2N exactly
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 3)
        grid = RadialGrid.for_domain(Domain.ball(1.0), 64)
        u = DiscreteRadialFunction(grid, grid.nodes ** 2)
        res = discretize_residual(op, SourceFunction.constant(6.0), u,
                                  Domain.ball(1.0))
        assert np.max(np.abs(res[1:-1])) <= 1e-12

    def test_boundary_rows_with_domain(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        dom = Domain.annulus(0.5, 1.0, bc_inner=1.0, bc_outer=3.0)
        grid = RadialGrid.for_domain(dom, 32)
        u = DiscreteRadialFunction(grid, np.full(33, 2.0))
        res = discretize_residual(op, SourceFunction.constant(0.0), u, dom)
        assert res[0] == pytest.approx(1.0)   # u(R1) - bc_inner
        assert res[-1] == pytest.approx(-1.0)  # u(R) - bc_outer

    def test_origin_symmetry_row(self):
        # the ball's first row is the equation at the origin, not data:
        # the first flux of r^2 is h0, and B1(2 h0/h0) + B2(2 h0/h0) = 4
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        dom = Domain.ball(1.0, bc_outer=1.0)
        grid = RadialGrid.for_domain(dom, 32)
        u = DiscreteRadialFunction(grid, grid.nodes ** 2)
        res = discretize_residual(op, SourceFunction.constant(4.0), u, dom)
        assert abs(res[0]) <= 1e-12
        assert res[-1] == 0.0         # u(R) = 1 = bc_outer

    def test_grid_must_span_domain(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        grid = RadialGrid.for_domain(Domain.ball(1.0), 32)
        u = DiscreteRadialFunction(grid, np.zeros(33))
        with pytest.raises(GridMismatch):
            discretize_residual(op, SourceFunction.constant(0.0), u,
                                Domain.ball(2.0))


class TestSolveDirichlet:
    def test_zero_forcing_linear_data(self):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        dom = Domain.ball(1.0, bc_outer=1.0)
        grid = RadialGrid.for_domain(dom, 64)
        sol = solve_dirichlet(op, dom, SourceFunction.constant(0.0), grid)
        assert sol.diagnostics_dict()["converged"] is True
        assert np.max(np.abs(sol.u.values - 1.0)) <= 1e-10

    def test_pucci_power_profile(self):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        _, c = closed_form_pucci_power(op)
        exact = pucci_power_profile(op)
        dom = Domain.ball(1.0, bc_outer=float(exact(1.0)))
        grid = RadialGrid.for_domain(dom, 200, Grading.GRADED_AT_ORIGIN)
        sol = solve_dirichlet(op, dom, SourceFunction.constant(c), grid)
        assert sol.diagnostics_dict()["converged"] is True
        err = np.max(np.abs(sol.u.values - exact(grid.nodes)))
        assert err <= 5e-3

    def test_laplacian_quadratic_recovered_to_roundoff(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        dom = Domain.ball(1.0, bc_outer=1.0)
        grid = RadialGrid.for_domain(dom, 100)
        sol = solve_dirichlet(op, dom, SourceFunction.constant(4.0), grid)
        assert np.max(np.abs(sol.u.values - grid.nodes ** 2)) <= 1e-9

    def test_annulus_alpha_laplacian(self):
        op = OperatorSpec.alpha_laplacian(1.0, 2)
        g = closed_form_alpha_laplacian(op, 2.0)
        dom = Domain.annulus(0.5, 1.0, bc_inner=float(g(0.5)),
                             bc_outer=float(g(1.0)))
        grid = RadialGrid.for_domain(dom, 200)
        sol = solve_dirichlet(op, dom, SourceFunction.constant(2.0), grid)
        err = np.max(np.abs(sol.u.values - g(grid.nodes)))
        assert err <= 1e-4

    def test_boundary_values_exact(self):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        dom = Domain.annulus(0.25, 1.0, bc_inner=-0.5, bc_outer=2.0)
        grid = RadialGrid.for_domain(dom, 64)
        sol = solve_dirichlet(op, dom, SourceFunction.constant(1.0), grid)
        assert sol.u.values[0] == pytest.approx(-0.5, abs=1e-13)
        assert sol.u.values[-1] == pytest.approx(2.0, abs=1e-13)

    def test_grid_domain_mismatch(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        grid = RadialGrid.for_domain(Domain.ball(1.0), 32)
        with pytest.raises(GridMismatch):
            solve_dirichlet(op, Domain.ball(2.0), SourceFunction.constant(1.0),
                            grid)


class TestComparison:
    def _solve(self, op, dom, grid, value):
        return solve_dirichlet(op, dom, SourceFunction.constant(value), grid)

    def test_larger_forcing_pushes_down(self):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 100, Grading.GRADED_AT_ORIGIN)
        hi = self._solve(op, dom, grid, 2.0)
        lo = self._solve(op, dom, grid, 1.0)
        report = comparison_oracle(hi, lo, op, SourceFunction.constant(2.0),
                                   SourceFunction.constant(1.0))
        assert report.all_passed

    def test_precondition_forcing_order(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 32)
        u = self._solve(op, dom, grid, 1.0)
        v = self._solve(op, dom, grid, 2.0)
        with pytest.raises(PreconditionViolated):
            comparison_oracle(u, v, op, SourceFunction.constant(1.0),
                              SourceFunction.constant(2.0))

    def test_precondition_boundary_order(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        grid = RadialGrid.for_domain(Domain.ball(1.0), 32)
        dom_hi = Domain.ball(1.0, bc_outer=1.0)
        dom_lo = Domain.ball(1.0, bc_outer=0.0)
        u = solve_dirichlet(op, dom_hi, SourceFunction.constant(1.0), grid)
        v = solve_dirichlet(op, dom_lo, SourceFunction.constant(1.0), grid)
        with pytest.raises(PreconditionViolated):
            comparison_oracle(u, v, op, SourceFunction.constant(1.0),
                              SourceFunction.constant(1.0))

    def test_grid_mismatch(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        dom = Domain.ball(1.0)
        u = self._solve(op, dom, RadialGrid.for_domain(dom, 32), 1.0)
        v = self._solve(op, dom, RadialGrid.for_domain(dom, 64), 1.0)
        with pytest.raises(GridMismatch):
            comparison_oracle(u, v, op, SourceFunction.constant(1.0),
                              SourceFunction.constant(1.0))

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_random_ordered_pairs(self, alpha):
        rng = np.random.default_rng(42 + int(alpha))
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 80, Grading.GRADED_AT_ORIGIN)
        op = OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2)
        for _ in range(10):
            base = rng.uniform(-2.0, 2.0)
            amp = rng.uniform(0.0, 1.0)
            freq = rng.uniform(1.0, 6.0)
            g_vals = base + amp * np.sin(freq * grid.nodes)
            f_hi = SourceFunction.tabulated(grid.nodes, g_vals + 0.1)
            f_lo = SourceFunction.tabulated(grid.nodes, g_vals)
            hi = solve_dirichlet(op, dom, f_hi, grid)
            lo = solve_dirichlet(op, dom, f_lo, grid)
            report = comparison_oracle(hi, lo, op, f_hi, f_lo)
            assert report.all_passed, report.failures()[0].as_dict()


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _config_problem(name, n_mult=1):
    with open(os.path.join(CONFIG_DIR, name + ".json"), encoding="utf-8") as fh:
        op, dom, grid, f = _parse_problem(json.load(fh))
    grid = RadialGrid.for_domain(dom, n_mult * grid.n, grid.grading)
    return op, dom, grid, f


def _row_by_row(op, nodes, fvals, s):
    """The fluxes from phi[0] = s, each row solved on its own.

    A row is increasing and affine on each of its four (second
    difference, transport) sign branches, so its root is the one branch
    solution at which the row vanishes.
    """
    cmp_, cmm, ctp, ctm = coefs = op.bracket_coefficients()
    mid = 0.5 * (nodes[1:] + nodes[:-1])
    p = [s]
    for i in range(1, len(nodes) - 1):
        x, f = p[-1], fvals[i]
        a = 1.0 / ((1.0 + op.alpha) * (mid[i] - mid[i - 1]))
        c = (op.dim - 1) / nodes[i]
        if 0.5 * c * max(ctp, ctm) <= min(cmp_, cmm) * a:
            wy, wx = 0.5, 0.5
        else:
            wy, wx = nodes[i] / mid[i], 0.0

        def row(y):
            return float(_bracket(coefs, (y - x) * a, wy * y + wx * x, c)) - f

        p.append(min(((f + x * (cm * a - c * ct * wx)) / (cm * a + c * ct * wy)
                      for cm in (cmp_, cmm) for ct in (ctp, ctm)),
                     key=lambda y: abs(row(y))))
    return np.array(p)


class TestNewtonStep:
    """What each Newton step of the annulus shooting evaluates: the
    fluxes as affine functions of the first flux, from the scan."""

    @staticmethod
    def _recurrence(dom, n):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        grid = RadialGrid.for_domain(dom, n, Grading.UNIFORM)
        # a forcing that changes sign puts rows on every branch
        fvals = 3.0 * np.cos(6.0 * grid.nodes)
        return op, grid.nodes, fvals, solver._Recurrence(op, grid, fvals)

    # n crosses the doubling steps of the scan: 16 and 17 nodes, 23-26
    # around the fifth step, 31-33 around the sixth, and many steps
    @pytest.mark.parametrize("n", [16, 17, 23, 24, 25, 26, 31, 32, 33, 200,
                                   1000])
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("dom", [
        Domain.ball(1.0, bc_outer=1.0),
        Domain.annulus(0.5, 1.0, bc_inner=0.2, bc_outer=0.7)])
    def test_step_matches_dense(self, dom, frozen, n):
        op, nodes, fvals, rec = self._recurrence(dom, n)
        s = 0.7
        if frozen:
            # the branches and products of a sweep from another first flux
            rec.fluxes(-0.4)
        got = rec.fluxes(s)
        # the lower-bidiagonal system of the rows on the branches found
        key = _kernels.branch_keys(rec.rows, got[:-1], rec.f)
        assert np.array_equal(key, rec.key)
        maps = _kernels.assemble_system(nodes, rec.rows, key, rec.f)
        # the fluxes are one scan of the settled branches, bit for bit
        P, Q = solver._affine_scan(maps.A, maps.b)
        assert got[0] == s and got[1:].tobytes() == (P * s + Q).tobytes()
        assert np.all((maps.A >= 0.0) & (maps.A <= 1.0))
        dense = np.eye(n)
        dense[np.arange(1, n), np.arange(n - 1)] = -maps.A
        expect = np.linalg.solve(dense, np.concatenate([[s], maps.b]))
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-12)
        # the derivative in the first flux is the product of the factors
        assert np.allclose(rec.P[1:], np.cumprod(maps.A), rtol=1e-12,
                           atol=1e-300)
        assert np.allclose(got, _row_by_row(op, nodes, fvals, s), rtol=1e-12,
                           atol=1e-12)

    def test_one_assembly_per_newton_step(self, monkeypatch):
        calls = {"assemble_system": 0, "branch_keys": 0}
        for name in calls:
            def counting(*args, _name=name, _kernel=getattr(_kernels, name)):
                calls[_name] += 1
                return _kernel(*args)

            monkeypatch.setattr(_kernels, name, counting)
        op, dom, grid, f = _config_problem("alpha_laplacian_annulus")
        sol = solve_dirichlet(op, dom, f, grid)
        assert sol.shooting_steps > 1 and sol.iterations == 1
        # each step checks the branches once; a scan, on one assembly,
        # follows the first guess and each check that finds a changed
        # branch, and the first guess is the branches of a flat inflow
        assert calls["assemble_system"] == sol.iterations
        assert calls["branch_keys"] == sol.shooting_steps + sol.iterations


class TestInitialGuess:
    """A solve may start from the branches of an earlier one; the guess
    changes the scans it takes, never its result."""

    @staticmethod
    def _problem():
        # f = 12r - 5 changes sign: a cold solve repairs its branches
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 400, Grading.GRADED_AT_ORIGIN)
        f = SourceFunction.tabulated(grid.nodes, 12.0 * grid.nodes - 5.0)
        return op, dom, grid, f

    def test_settled_branches_take_one_scan_and_change_no_bit(self):
        op, dom, grid, f = self._problem()
        cold = solve_dirichlet(op, dom, f, grid)
        assert cold.iterations > 1
        assert cold.branches.shape == (grid.n - 1,)
        guess = cold.branches.copy()
        warm = solve_dirichlet(op, dom, f, grid, initial_guess=guess)
        assert warm.iterations == 1
        assert warm.u.values.tobytes() == cold.u.values.tobytes()
        assert np.array_equal(warm.branches, cold.branches)
        # the guess is read, not written
        assert np.array_equal(guess, cold.branches)
        assert warm.branches is not guess

    @pytest.mark.parametrize("guess", [
        np.zeros(398, dtype=int), np.zeros(400, dtype=int),
        np.full(399, 4), np.full(399, -1), np.zeros(399),
        np.zeros((1, 399), dtype=int), ["0"] * 399])
    def test_bad_guess_rejected(self, guess):
        op, dom, grid, f = self._problem()
        assert grid.n - 1 == 399  # interior rows
        with pytest.raises(InvalidSpec, match="initial_guess"):
            solve_dirichlet(op, dom, f, grid, initial_guess=guess)

    def test_forcing_not_finite_at_a_node_rejected(self):
        op, dom, grid, _ = self._problem()
        f = SourceFunction.expression("power", exponent=-1.0)
        with pytest.raises(InvalidSpec, match="not finite at r = 0"):
            solve_dirichlet(op, dom, f, grid)

    def test_node_values_solve_as_their_forcing(self):
        op, dom, grid, f = self._problem()
        fvals = f(grid.nodes)
        sol = solve_dirichlet(op, dom, fvals, grid)
        assert np.array_equal(sol.u.values,
                              solve_dirichlet(op, dom, f, grid).u.values)
        assert np.array_equal(
            discretize_residual(op, fvals, sol.u, dom),
            discretize_residual(op, f, sol.u, dom))

    @pytest.mark.parametrize("cut, bad, message", [
        (1, None, "needs 401 node values, got shape \\(400,\\)"),
        (0, np.nan, "not finite at r = 1"),
    ], ids=["short", "nan"])
    def test_bad_node_values_rejected(self, cut, bad, message):
        op, dom, grid, f = self._problem()
        fvals = f(grid.nodes)[cut:]
        if bad is not None:
            fvals[-1] = bad
        with pytest.raises(InvalidSpec, match=message):
            solver._node_forcing(fvals, grid.nodes)
        with pytest.raises(InvalidSpec, match=message):
            solve_dirichlet(op, dom, fvals, grid)


class TestRecurrence:
    def test_affine_scan_composes_in_order(self):
        rng = np.random.default_rng(7)
        for m in (1, 2, 3, 8, 33):
            A = rng.uniform(0.0, 1.0, m)
            A[m // 2] = 0.0  # a row whose outflow ignores its inflow
            b = rng.normal(size=m)
            P, Q = solver._affine_scan(A, b)
            x = 0.3
            for k in range(m):
                x = A[k] * x + b[k]
                assert P[k] * 0.3 + Q[k] == pytest.approx(x, abs=1e-14)

    def test_branch_repairs_follow_sign_changes(self):
        # f = 12r - 5 changes sign: the first guess, the branches of a
        # zero inflow, is wrong past the sign change and is repaired
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 400, Grading.GRADED_AT_ORIGIN)
        f = SourceFunction.expression("power", coef=12.0, exponent=1.0)
        f = SourceFunction.tabulated(grid.nodes, f(grid.nodes) - 5.0)
        sol = solve_dirichlet(op, dom, f, grid)
        assert sol.iterations > 1 and sol.shooting_steps == 0
        fvals = f(grid.nodes)
        p = solver._fluxes_of(sol.u.values, grid.nodes, op.alpha)
        assert np.allclose(p, _row_by_row(op, grid.nodes, fvals, p[0]),
                           rtol=1e-9, atol=1e-12)
        assert sol.residual_sup <= 1e-9

    @pytest.mark.parametrize("name", ["pucci_alpha2_ball", "pucci_minus_ball"])
    @pytest.mark.parametrize("n_mult", [1, 4])
    def test_shipped_configs_need_no_branch_repair(self, name, n_mult):
        op, dom, grid, f = _config_problem(name, n_mult)
        sol = solve_dirichlet(op, dom, f, grid)
        assert sol.iterations == 1 and sol.shooting_steps == 0
        assert sol.diagnostics_dict() == {
            "converged": True, "residual_sup": sol.residual_sup,
            "scans": 1, "shooting_steps": 0}

    def test_annulus_with_interior_zero_of_u_prime(self):
        # AlphaLaplacian alpha = 3, dim 1, annulus [0.3, 1], bc 1 and 1:
        # |u'|^3 u' = f (r - 0.65) exactly.  The Newton solver accepted a
        # profile 0.80 off here through its roundoff floor.
        op = OperatorSpec.alpha_laplacian(3.0, 1)
        dom = Domain.annulus(0.3, 1.0, bc_inner=1.0, bc_outer=1.0)
        grid = RadialGrid.for_domain(dom, 200)
        f = 7.5295
        sol = solve_dirichlet(op, dom, SourceFunction.constant(f), grid)
        r = grid.nodes
        exact = 1.0 + f ** 0.25 * (np.abs(r - 0.65) ** 1.25
                                   - 0.35 ** 1.25) / 1.25
        assert np.max(np.abs(sol.u.values - exact)) <= 1e-2
        assert sol.u.values[0] == 1.0 and sol.u.values[-1] == 1.0
        assert sol.shooting_steps <= 60
