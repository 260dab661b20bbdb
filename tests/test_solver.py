import json
import os
import warnings

import numpy as np
import pytest

from radelliptic import _kernels, eigen, solver
from radelliptic.analysis import comparison_oracle
from radelliptic.cli import ConfigError, _parse_problem
from radelliptic.errors import (GridMismatch, InvalidSpec,
                                PreconditionViolated)
from radelliptic.grid import (DiscreteRadialFunction, Domain, DomainKind,
                              Grading, RadialGrid)
from radelliptic.operators import (OperatorSpec, closed_form_alpha_laplacian,
                                   closed_form_pucci_power,
                                   pucci_power_profile)
from radelliptic.solver import (EPS_END, EPS_START, SourceFunction,
                                discretize_residual, solve_dirichlet)


class TestSourceFunction:
    def test_constant(self):
        f = SourceFunction.constant(2.5)
        assert np.allclose(f(np.linspace(0, 1, 5)), 2.5)
        assert f.sup_norm(Domain.ball(1.0)) == pytest.approx(2.5)

    def test_tabulated_interpolates(self):
        f = SourceFunction.tabulated([0.0, 1.0], [0.0, 2.0])
        assert f(0.25) == pytest.approx(0.5)

    def test_tabulated_sup_norm_is_exact(self):
        # a one-node spike between the points of a uniform probe, and a
        # table reaching beyond the domain on both sides
        r = np.array([-1.0, 0.0, 0.3, 0.30001, 0.30002, 1.0, 2.0])
        v = np.array([9.0, 0.5, 0.0, -4.0, 0.0, 1.0, 8.0])
        f = SourceFunction.tabulated(r, v)
        assert f.sup_norm(Domain.ball(1.0)) == 4.0
        # ends of the domain between table nodes: interpolated values
        assert f.sup_norm(Domain.annulus(0.5, 1.5)) == 4.5
        assert f.sup_norm(Domain.annulus(0.31, 0.5)) == pytest.approx(
            np.interp(0.5, r, v))

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

    def test_json_round_trip(self):
        for f in (SourceFunction.constant(-1.0),
                  SourceFunction.tabulated([0.0, 1.0], [1.0, 2.0]),
                  SourceFunction.expression("sine", amplitude=0.5)):
            back = SourceFunction.from_json_dict(f.to_json_dict())
            r = np.linspace(0, 1, 33)
            assert np.allclose(back(r), f(r))


class TestSolverParams:
    """The solver's settings: module constants and the eps_start keyword."""

    def test_validation(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 32)
        for eps_start in (EPS_END / 2, 0.0, float("nan")):
            with pytest.raises(InvalidSpec):
                solve_dirichlet(op, dom, SourceFunction.constant(1.0), grid,
                                eps_start=eps_start)

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

    def test_eigen_warm_start_begins_at_eps_end(self, monkeypatch):
        seen = []
        solve = eigen.solve_dirichlet

        def recording(*args, **kwargs):
            seen.append(kwargs)
            return solve(*args, **kwargs)

        monkeypatch.setattr(eigen, "solve_dirichlet", recording)
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        dom = Domain.ball(1.0)
        eigen.principal_eigenvalue(op, dom, RadialGrid.for_domain(dom, 64))
        assert len(seen) > 1
        assert seen[0]["eps_start"] == EPS_START
        assert seen[0]["initial_guess"] is None
        for warm in seen[1:]:
            assert warm["eps_start"] == EPS_END
            assert warm["initial_guess"] is not None

    def test_cold_and_warm_solves_end_at_eps_end(self, monkeypatch):
        solutions = []
        solve = eigen.solve_dirichlet

        def recording(*args, **kwargs):
            solutions.append(solve(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(eigen, "solve_dirichlet", recording)
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        dom = Domain.ball(1.0)
        eigen.principal_eigenvalue(op, dom, RadialGrid.for_domain(dom, 64))
        cold, warm = solutions[0], solutions[1]
        # the ladder 1e-2, 1e-3, ... reaches EPS_END exactly, not 1e-8
        # plus the rounding of six multiplications
        assert cold.eps_final == EPS_END == warm.eps_final
        assert cold.eps_path[-1]["eps"] == EPS_END
        assert len(cold.eps_path) == 7
        assert [stage["eps"] for stage in warm.eps_path] == [EPS_END]


class TestResidual:
    def test_laplacian_of_quadratic_is_exact(self):
        # F = Laplacian (alpha = 0, a = A = 1), u = r^2: F[u] = 2N exactly
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 3)
        grid = RadialGrid.for_domain(Domain.ball(1.0), 64)
        u = DiscreteRadialFunction(grid, grid.nodes ** 2)
        res = discretize_residual(op, SourceFunction.constant(6.0), u, 0.0,
                                  Domain.ball(1.0))
        assert np.max(np.abs(res[1:-1])) <= 1e-12

    def test_boundary_rows_with_domain(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        dom = Domain.annulus(0.5, 1.0, bc_inner=1.0, bc_outer=3.0)
        grid = RadialGrid.for_domain(dom, 32)
        u = DiscreteRadialFunction(grid, np.full(33, 2.0))
        res = discretize_residual(op, SourceFunction.constant(0.0), u, 0.0,
                                  dom)
        assert res[0] == pytest.approx(1.0)   # u(R1) - bc_inner
        assert res[-1] == pytest.approx(-1.0)  # u(R) - bc_outer

    def test_origin_symmetry_row(self):
        # the ball's first row is the origin symmetry closure, not data
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        dom = Domain.ball(1.0, bc_outer=1.0)
        grid = RadialGrid.for_domain(dom, 32)
        u = DiscreteRadialFunction(grid, grid.nodes ** 2)
        res = discretize_residual(op, SourceFunction.constant(4.0), u, 0.0,
                                  dom)
        assert abs(res[0]) <= 1e-12  # one-sided u'(0) of r^2 vanishes
        assert res[-1] == 0.0         # u(R) = 1 = bc_outer

    def test_grid_must_span_domain(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        grid = RadialGrid.for_domain(Domain.ball(1.0), 32)
        u = DiscreteRadialFunction(grid, np.zeros(33))
        with pytest.raises(GridMismatch):
            discretize_residual(op, SourceFunction.constant(0.0), u, 0.0,
                                Domain.ball(2.0))


class TestSolveDirichlet:
    def test_zero_forcing_linear_data(self):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        dom = Domain.ball(1.0, bc_outer=1.0)
        grid = RadialGrid.for_domain(dom, 64)
        sol = solve_dirichlet(op, dom, SourceFunction.constant(0.0), grid)
        assert sol.converged
        assert np.max(np.abs(sol.u.values - 1.0)) <= 1e-10

    def test_pucci_power_profile(self):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        _, c = closed_form_pucci_power(op)
        exact = pucci_power_profile(op)
        dom = Domain.ball(1.0, bc_outer=float(exact(1.0)))
        grid = RadialGrid.for_domain(dom, 200, Grading.GRADED_AT_ORIGIN)
        sol = solve_dirichlet(op, dom, SourceFunction.constant(c), grid)
        assert sol.converged
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

    def test_eps_path_monotone_tail(self):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 100, Grading.GRADED_AT_ORIGIN)
        sol = solve_dirichlet(op, dom, SourceFunction.constant(3.0), grid)
        deltas = [st["delta_from_prev"] for st in sol.eps_path[-3:]]
        assert all(d1 >= d2 - 1e-14 for d1, d2 in zip(deltas, deltas[1:]))

    def test_bad_initial_guess_length(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 32)
        with pytest.raises(GridMismatch):
            solve_dirichlet(op, dom, SourceFunction.constant(1.0), grid,
                            initial_guess=np.zeros(5))

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


class TestInitialGuess:
    @pytest.mark.parametrize("name", ["pucci_power_ball", "pucci_alpha2_ball"])
    def test_ball_guess_near_power_profile(self, name):
        op, dom, grid, f = _config_problem(name)
        guess = solver._initial_guess(op, dom, grid, f(grid.nodes))
        exact = pucci_power_profile(op)(grid.nodes)
        assert np.max(np.abs(guess - exact)) <= 0.05
        assert guess[-1] == dom.bc_outer

    def test_annulus_guess_subtracts_chord(self):
        op, dom, grid, f = _config_problem("alpha_laplacian_annulus")
        nodes = grid.nodes
        fvals = f(nodes)
        guess = solver._initial_guess(op, dom, grid, fvals)
        # boundary chord plus the power bump with its own chord removed
        c_ref = 0.5 * (op.a + op.A) * op.dim
        expo = (2.0 + op.alpha) / (1.0 + op.alpha)
        amp = (abs(np.mean(fvals)) / c_ref) ** (1.0 / (1.0 + op.alpha))
        w = np.sign(np.mean(fvals)) * amp / expo * nodes ** expo
        base = np.interp(nodes, [nodes[0], nodes[-1]],
                         [dom.bc_inner, dom.bc_outer])
        w_lin = np.interp(nodes, [nodes[0], nodes[-1]], [w[0], w[-1]])
        np.testing.assert_array_equal(guess, base + (w - w_lin))


class TestNewtonStep:
    @pytest.mark.parametrize("name", ["pucci_alpha2_ball", "pucci_minus_ball"])
    @pytest.mark.parametrize("n_mult", [1, 4])
    def test_no_pseudo_time_fallback(self, monkeypatch, name, n_mult):
        def no_fallback(*args, **kwargs):
            raise AssertionError("pseudo-time fallback was entered")

        monkeypatch.setattr(solver, "_pseudo_time", no_fallback)
        op, dom, grid, f = _config_problem(name, n_mult)
        sol = solve_dirichlet(op, dom, f, grid)
        assert sol.converged
        assert sol.iterations < 30

    @staticmethod
    def _newton_system(dom, n, frozen):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        grid = RadialGrid.for_domain(dom, n, Grading.UNIFORM)
        system = solver._System(op, dom, grid)
        system.force(np.full(n + 1, 3.0))
        u = 0.3 + np.sin(2.0 * grid.nodes) * grid.nodes ** 1.5
        rec = system.system(u, 1e-2)
        bands = ((rec.lo, rec.di, rec.up) if frozen
                 else system.newton_bands(rec))
        return (system, rec.res, *bands)

    # n crosses the edges of the reduction: 15 and 16 interior rows go to
    # the Thomas sweep alone, 22-25 cross the first level, 30-32 need one
    # padding row and 199 and 999 several levels
    @pytest.mark.parametrize("n", [16, 17, 23, 24, 25, 26, 31, 32, 33, 200,
                                   1000])
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("dom", [
        Domain.ball(1.0, bc_outer=1.0),
        Domain.annulus(0.5, 1.0, bc_inner=0.2, bc_outer=0.7)])
    def test_step_matches_dense(self, dom, frozen, n):
        system, res, lo, di, up = self._newton_system(dom, n, frozen)
        dense = np.zeros((n + 1, n + 1))
        for i in range(1, n):
            dense[i, i - 1:i + 2] = lo[i], di[i], up[i]
        if dom.kind is DomainKind.BALL:
            dense[0, :3] = solver._origin_row_weights(system.nodes)
        else:
            dense[0, 0] = 1.0
        dense[n, n] = 1.0
        # at n=1000 the condition number is about 1e9 and the dense LU is
        # itself 1e-12 off: refine it once, with the residual in long double
        expect = np.linalg.solve(dense, -res)
        resid = (-res.astype(np.longdouble)
                 - dense.astype(np.longdouble) @ expect.astype(np.longdouble))
        expect += np.linalg.solve(dense, resid.astype(float))
        got = system.step(lo, di, up, -res)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
        # the reduction's buffers are reused: a second step is the same
        assert np.array_equal(system.step(lo, di, up, -res), got)

    # a zero row is a zero pivot at the first level (rows 1 and 101), in
    # the Thomas sweep (row 2) and in the last row (199)
    @pytest.mark.parametrize("row", [1, 2, 101, 199])
    def test_zero_pivot_gives_non_finite_step(self, row):
        dom = Domain.annulus(0.5, 1.0, bc_inner=0.2, bc_outer=0.7)
        system, res, lo, di, up = self._newton_system(dom, 200, False)
        lo[row] = di[row] = up[row] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            delta = system.step(lo, di, up, -res)
        assert not np.all(np.isfinite(delta))

    def test_one_assembly_per_newton_step(self, monkeypatch):
        calls = 0
        assemble = _kernels.assemble_system

        def counting(*args):
            nonlocal calls
            calls += 1
            return assemble(*args)

        monkeypatch.setattr(_kernels, "assemble_system", counting)
        op, dom, grid, f = _config_problem("pucci_power_ball")
        sol = solve_dirichlet(op, dom, f, grid)
        assert sol.converged and sol.iterations > 0
        # one per accepted Newton step and one per eps stage
        assert calls <= sol.iterations + len(sol.eps_path)

    @staticmethod
    def _counted_assemblies(monkeypatch):
        calls = []
        assemble = _kernels.assemble_system

        def counting(*args):
            calls.append(1)
            return assemble(*args)

        monkeypatch.setattr(_kernels, "assemble_system", counting)
        return calls

    def test_warm_eigen_step_assembles_once_per_newton_step(self,
                                                            monkeypatch):
        calls = self._counted_assemblies(monkeypatch)
        solves = []
        solve = eigen.solve_dirichlet

        def recording(*args, **kwargs):
            before = len(calls)
            sol = solve(*args, **kwargs)
            solves.append((kwargs["initial_guess"] is not None,
                           len(calls) - before, sol.iterations))
            return sol

        monkeypatch.setattr(eigen, "solve_dirichlet", recording)
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 64, Grading.GRADED_AT_ORIGIN)
        eigen.principal_eigenvalue(op, dom, grid)
        warm = [(assembled, iters) for is_warm, assembled, iters in solves
                if is_warm]
        assert len(warm) > 2 and any(iters > 0 for _, iters in warm)
        # no line search of this problem backtracks: each assembly is the
        # trial of a Newton step, and a warm solve starts from the
        # assembly its predecessor ended with
        assert all(assembled == iters for assembled, iters in warm)

    def test_shared_system_warm_solve_matches_plain_solve(self, monkeypatch):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 120, Grading.GRADED_AT_ORIGIN)
        system = solver._System(op, dom, grid)
        first = solve_dirichlet(op, dom, SourceFunction.constant(-1.0), grid,
                                system=system)
        psi = first.u.values
        f = SourceFunction.tabulated(grid.nodes,
                                     -(psi / np.max(np.abs(psi))) ** 2)
        calls = self._counted_assemblies(monkeypatch)
        plain = solve_dirichlet(op, dom, f, grid, initial_guess=psi,
                                eps_start=EPS_END)
        plain_calls = len(calls)
        shared = solve_dirichlet(op, dom, f, grid, initial_guess=psi,
                                 eps_start=EPS_END, system=system)
        assert len(calls) - plain_calls == plain_calls - 1
        assert np.array_equal(shared.u.values, plain.u.values)
        assert shared.residual_sup == plain.residual_sup
        assert shared.iterations == plain.iterations > 0
        # a guess off the last iterate, or another eps, assembles afresh
        nudged = psi + 1e-12
        calls.clear()
        solve_dirichlet(op, dom, f, grid, initial_guess=nudged,
                        eps_start=EPS_END, system=system)
        off = len(calls)
        calls.clear()
        solve_dirichlet(op, dom, f, grid, initial_guess=nudged,
                        eps_start=EPS_END)
        assert off == len(calls)

    def test_shared_system_of_another_problem_is_refused(self):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 32)
        system = solver._System(op, dom, grid)
        f = SourceFunction.constant(1.0)
        with pytest.raises(InvalidSpec):
            solve_dirichlet(op.dual(), dom, f, grid, system=system)
        with pytest.raises(InvalidSpec):
            solve_dirichlet(op, dom, f, RadialGrid.for_domain(dom, 32),
                            system=system)
