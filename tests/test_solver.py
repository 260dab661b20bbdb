import json
import os

import numpy as np
import pytest

from radelliptic import _kernels, solver
from radelliptic.analysis import comparison_oracle
from radelliptic.cli import ConfigError, _parse_problem
from radelliptic.errors import (Diverged, GridMismatch, InvalidSpec,
                               PreconditionViolated)
from radelliptic.grid import (DiscreteRadialFunction, Domain, Grading,
                              RadialGrid, interior_quotients)
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


EPS = np.finfo(float).eps

# the alphas the ordered pairs draw, from the documented range's ends
PAIR_ALPHAS = (-0.9, -0.5, 0.0, 0.5, 1.0, 3.0, 10.0, 40.0)


def _recording_shoot(closing):
    """``solver._shoot`` that appends each solve's final boundary mismatch
    and its scale, as the shooting computes them, to ``closing``."""
    shoot = solver._shoot

    def recorded(op, dom, rec, h, fvals):
        p, g, steps = shoot(op, dom, rec, h, fvals)
        closing.append((dom.bc_inner - dom.bc_outer + float(h @ g),
                        abs(dom.bc_inner) + abs(dom.bc_outer)
                        + float(h @ np.abs(g))))
        return p, g, steps

    return recorded


def _pucci_plus_ball_pairs(alpha):
    """10 PucciPlus ball pairs at ``alpha``: forcing g + 0.1 over g, g a
    drawn sine."""
    dom = Domain.ball(1.0)
    grid = RadialGrid.for_domain(dom, 80, Grading.GRADED_AT_ORIGIN)
    rng = np.random.default_rng(42 + int(alpha))
    op = OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2)
    for _ in range(10):
        base = rng.uniform(-2.0, 2.0)
        amp = rng.uniform(0.0, 1.0)
        freq = rng.uniform(1.0, 6.0)
        g = base + amp * np.sin(freq * grid.nodes)
        yield op, dom, dom, grid, g + 0.1, g


def _ordered_pair(rng, annulus):
    """One ordered pair (op, dom_u, dom_v, grid, f_u, f_v) drawn from
    ``rng``: any of the four variants, alpha in ``PAIR_ALPHAS``, dim 1-6,
    n in {50, 200, 800}, a ball on either grading or an annulus [R1, 1]
    with R1 in {0.1, 0.5}.  f_v is a drawn sine, f_u is f_v raised by 0
    or by 1e-12 to 1 times max(1, |f_v|), plus a nonnegative bump in a
    third of the draws, and u's boundary data lie 0, 1e-12, 1e-6 or 0.1
    below v's."""
    alpha = float(rng.choice(PAIR_ALPHAS))
    dim = int(rng.integers(1, 7))
    a = float(rng.uniform(0.5, 1.0))
    big = a * float(rng.uniform(1.0, 3.0))
    op = [OperatorSpec.pucci_plus(alpha, a, big, dim),
          OperatorSpec.pucci_minus(alpha, a, big, dim),
          OperatorSpec.alpha_laplacian(alpha, dim),
          OperatorSpec.trace_normal_mix(alpha, a, a - big / 2.0, dim),
          ][rng.integers(4)]
    n = int(rng.choice([50, 200, 800]))
    gaps = [0.0, 1e-12, 1e-6, 0.1]
    outer = float(rng.uniform(-1.0, 1.0))
    outer_gap = float(rng.choice(gaps))
    if annulus:
        R1 = float(rng.choice([0.1, 0.5]))
        inner = float(rng.uniform(-1.0, 1.0))
        inner_gap = float(rng.choice(gaps))
        dom_u = Domain.annulus(R1, 1.0, inner - inner_gap, outer - outer_gap)
        dom_v = Domain.annulus(R1, 1.0, inner, outer)
        grading = Grading.UNIFORM
    else:
        dom_u = Domain.ball(1.0, outer - outer_gap)
        dom_v = Domain.ball(1.0, outer)
        grading = [Grading.UNIFORM, Grading.GRADED_AT_ORIGIN][rng.integers(2)]
    grid = RadialGrid.for_domain(dom_v, n, grading)
    r = grid.nodes
    f_v = (rng.uniform(-3.0, 3.0)
           + rng.uniform(0.0, 2.0) * np.sin(rng.uniform(1.0, 8.0) * r))
    shift = float(rng.choice([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0]))
    f_u = f_v + shift * max(1.0, float(np.max(np.abs(f_v))))
    if rng.random() < 1.0 / 3.0:
        f_u = f_u + rng.uniform(0.0, 1.0) * np.exp(
            -((r - rng.uniform(0.0, 1.0)) / 0.05) ** 2)
    return op, dom_u, dom_v, grid, f_u, f_v


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

    # ROADMAP item 2: the shooting's step cap fails on AlphaLaplacian at
    # alpha <= -0.9, dim >= 2, small R1, though the problem has a solution.
    # Once that is fixed this test passes, and the strict marker turns the
    # pass into a failure until the marker is removed.
    @pytest.mark.xfail(strict=True, raises=Diverged,
                       reason="known band of the annulus shooting")
    @pytest.mark.parametrize("n", [100, 400])
    def test_annulus_shooting_closes_in_the_known_band(self, n):
        op = OperatorSpec.alpha_laplacian(-0.9, 3)
        dom = Domain.annulus(1e-6, 1.0)
        grid = RadialGrid.for_domain(dom, n, Grading.UNIFORM)
        sol = solve_dirichlet(op, dom, SourceFunction.constant(-3.0), grid)
        assert sol.diagnostics_dict()["converged"] is True

    # ROADMAP item 2: at alpha = 40 the shooting stops on its 4-ulp bracket
    # after 67 steps with a mismatch of 7.08e-3, which ``u[-1] = bc_outer``
    # puts into the last cell (7.08e-3 off tests/reference.py at node 99).
    # A fix closes the mismatch to the shooting's own tolerance or raises
    # Diverged; the strict marker then fails until it is removed.
    @pytest.mark.xfail(strict=True,
                       reason="the shooting stops with its mismatch open")
    def test_annulus_shooting_closes_or_diverges_at_large_alpha(
            self, monkeypatch):
        closing = []
        monkeypatch.setattr(solver, "_shoot", _recording_shoot(closing))
        op = OperatorSpec.alpha_laplacian(40.0, 2)
        dom = Domain.annulus(0.1, 1.0)
        grid = RadialGrid.for_domain(dom, 100, Grading.UNIFORM)
        try:
            solve_dirichlet(op, dom, SourceFunction.constant(3.0), grid)
        except Diverged:
            return
        [(mismatch, scale)] = closing
        assert abs(mismatch) <= 16.0 * EPS * scale

    def test_boundary_values_exact(self):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        dom = Domain.annulus(0.25, 1.0, bc_inner=-0.5, bc_outer=2.0)
        grid = RadialGrid.for_domain(dom, 64)
        sol = solve_dirichlet(op, dom, SourceFunction.constant(1.0), grid)
        assert sol.u.values[0] == pytest.approx(-0.5, abs=1e-13)
        assert sol.u.values[-1] == pytest.approx(2.0, abs=1e-13)

    @pytest.mark.parametrize("dom", [Domain.ball(1.0, bc_outer=1.0),
                                     Domain.annulus(0.25, 1.0, 0.5, 2.0)],
                             ids=["ball", "annulus"])
    def test_profile_is_the_solves_own_read_only_array(self, monkeypatch,
                                                       dom):
        # the solve hands the array it summed u into to the profile, made
        # read-only, and copies and checks it no second time
        made, built = [], []
        empty_like = np.empty_like
        post_init = DiscreteRadialFunction.__post_init__

        def recording(*args, **kwargs):
            made.append(empty_like(*args, **kwargs))
            return made[-1]

        def counting(profile):
            built.append(profile)
            post_init(profile)

        monkeypatch.setattr(np, "empty_like", recording)
        monkeypatch.setattr(DiscreteRadialFunction, "__post_init__", counting)
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        grid = RadialGrid.for_domain(dom, 64)
        sol = solve_dirichlet(op, dom, SourceFunction.constant(1.0), grid)
        values = sol.u.values
        assert built == []
        assert any(array is values for array in made)
        assert sol.u.grid is grid and values.shape == grid.nodes.shape
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[1] = 0.0
        # it keeps what is derived from it as a constructed profile does
        monkeypatch.undo()
        copy = DiscreteRadialFunction(grid, values)
        assert copy.values is not values
        quotients = interior_quotients(sol.u)
        assert interior_quotients(sol.u) is quotients
        for mine, theirs in zip(quotients, interior_quotients(copy)):
            assert mine.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("guess", [None, "zeros"])
    def test_overflowing_profile_diverges(self, guess):
        # u' = phi^10 overflows where the flux passes about 1e31
        op = OperatorSpec.alpha_laplacian(-0.9, 2)
        dom = Domain.ball(1.0)
        grid = RadialGrid.for_domain(dom, 64)
        keys = None if guess is None else np.zeros(grid.n - 1, dtype=int)
        with pytest.raises(Diverged, match="^the profile overflows$"):
            solve_dirichlet(op, dom, SourceFunction.constant(1e40), grid,
                            initial_guess=keys)

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
        for op, dom, _, grid, g_hi, g_lo in _pucci_plus_ball_pairs(alpha):
            f_hi = SourceFunction.tabulated(grid.nodes, g_hi)
            f_lo = SourceFunction.tabulated(grid.nodes, g_lo)
            hi = solve_dirichlet(op, dom, f_hi, grid)
            lo = solve_dirichlet(op, dom, f_lo, grid)
            report = comparison_oracle(hi, lo, op, f_hi, f_lo)
            assert report.all_passed, report.failures()[0].as_dict()

    # the comparison principle of the ``solver`` docstring, on seeded
    # ordered pairs: forcing f_u >= f_v and u's data no larger give u <= v
    def test_ordered_balls_are_ordered_bit_for_bit(self):
        differing = 0
        rng = np.random.default_rng(31)
        pairs = [*_pucci_plus_ball_pairs(0.0), *_pucci_plus_ball_pairs(1.0),
                 *(_ordered_pair(rng, annulus=False) for _ in range(300))]
        for op, dom_u, dom_v, grid, f_u, f_v in pairs:
            u = solve_dirichlet(op, dom_u, f_u, grid)
            v = solve_dirichlet(op, dom_v, f_v, grid)
            assert np.all(u.u.values <= v.u.values), (op, grid.n)
            differing += bool(np.any(u.branches != v.branches))
        # the pairs settling on different branches rest on this test alone
        assert differing > 0

    def test_ordered_annuli_are_ordered_within_the_mismatch(self,
                                                           monkeypatch):
        closing = []
        monkeypatch.setattr(solver, "_shoot", _recording_shoot(closing))
        rng = np.random.default_rng(31)
        for _ in range(300):
            op, dom_u, dom_v, grid, f_u, f_v = _ordered_pair(rng,
                                                             annulus=True)
            try:
                u = solve_dirichlet(op, dom_u, f_u, grid).u.values
                v = solve_dirichlet(op, dom_v, f_v, grid).u.values
            except Diverged:  # no pair to compare (ROADMAP item 2)
                continue
            # each end exactly; inside, the final mismatches and the
            # rounding of n-term sums
            slack = sum(abs(mismatch) + grid.n * EPS * scale
                        for mismatch, scale in closing[-2:])
            assert u[0] <= v[0] and u[-1] <= v[-1]
            assert np.min(v - u) >= -slack, (op, grid.n)


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


def _reference_scan(A, b, levels=None):
    """Prefix compositions of the maps ``x -> A[k] x + b[k]`` by
    Hillis-Steele doubling in place: (P, Q) such that map k after maps
    0..k-1 is ``x -> P[k] x + Q[k]``.  With a list ``levels``, a copy of
    each level's window products ``P[d:]`` is appended to it.  The solver's
    scan must give these bits."""
    P, Q = A.copy(), b.copy()
    d = 1
    while d < len(P):
        if levels is not None:
            levels.append(P[d:].copy())
        Q[d:] += P[d:] * Q[:-d]
        P[d:] *= P[:-d]
        d *= 2
    return P, Q


class TestNewtonStep:
    """What each Newton step of the annulus shooting evaluates: the
    fluxes as affine functions of the first flux, from the scan."""

    @staticmethod
    def _problem(dom, n):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        grid = RadialGrid.for_domain(dom, n, Grading.UNIFORM)
        # a forcing that changes sign puts rows on every branch
        return op, grid, 3.0 * np.cos(6.0 * grid.nodes)

    # n crosses the doubling steps of the scan: 16 and 17 nodes, 23-26
    # around the fifth step, 31-33 around the sixth, and many steps
    SIZES = [16, 17, 23, 24, 25, 26, 31, 32, 33, 200, 1000]
    DOMAINS = [Domain.ball(1.0, bc_outer=1.0),
               Domain.annulus(0.5, 1.0, bc_inner=0.2, bc_outer=0.7)]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("dom", DOMAINS)
    def test_step_matches_dense(self, dom, frozen, n):
        op, grid, fvals = self._problem(dom, n)
        nodes = grid.nodes
        rec = solver._Recurrence(op, grid, fvals)
        s = 0.7
        if frozen:
            # the branches and products of a sweep from another first flux
            rec.fluxes(-0.4)
        got = rec.fluxes(s)
        # the lower-bidiagonal system of the rows on the branches found
        key = _kernels.branch_keys(rec.rows, got[:-1], rec.f)
        assert np.array_equal(key, rec.key)
        maps = _kernels.assemble_system(nodes, rec.rows, key)
        b = rec.f / maps.den
        # the fluxes are one scan of the settled branches, bit for bit
        P, Q = _reference_scan(maps.A, b)
        assert got[0] == s and got[1:].tobytes() == (P * s + Q).tobytes()
        assert np.all((maps.A >= 0.0) & (maps.A <= 1.0))
        dense = np.eye(n)
        dense[np.arange(1, n), np.arange(n - 1)] = -maps.A
        expect = np.linalg.solve(dense, np.concatenate([[s], b]))
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-12)
        # the derivative in the first flux is the product of the factors
        assert np.allclose(rec.P[1:], np.cumprod(maps.A), rtol=1e-12,
                           atol=1e-300)
        assert np.allclose(got, _row_by_row(op, nodes, fvals, s), rtol=1e-12,
                           atol=1e-12)

    @staticmethod
    def _fresh_scan(op, grid, rec, s):
        """The fluxes from phi[0] = s and the prefix products of one scan
        of ``rec``'s branches, assembled on fresh row data."""
        rows = _kernels.RowData(grid.nodes, op.dim, op.alpha,
                                op.bracket_coefficients())
        maps = _kernels.assemble_system(grid.nodes, rows, rec.key)
        P, Q = _reference_scan(maps.A, rec.f / maps.den)
        return np.concatenate(([s], P * s + Q)), np.concatenate(([1.0], P))

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("dom", DOMAINS)
    def test_kept_factors_match_a_fresh_scan(self, monkeypatch, dom, n):
        # guessed recurrences in sequence on one grid: each result is the
        # scan of its branches on freshly assembled maps, bit for bit
        op, grid, fvals = self._problem(dom, n)
        # every scan, fresh, kept or repaired, sums its offsets once, in
        # the one summation routine
        summations = []
        offsets = solver._offsets
        monkeypatch.setattr(solver, "_offsets",
                            lambda *a: summations.append(1) or offsets(*a))
        cold = solver._Recurrence(op, grid, fvals)
        cold.fluxes(0.7)
        assert cold.rows.memo is None  # a recurrence with no guess keeps none
        assert len(summations) == cold.scans
        assemblies = []
        real = _kernels.assemble_system
        monkeypatch.setattr(_kernels, "assemble_system",
                            lambda *a: assemblies.append(1) or real(*a))
        guess = cold.key
        for run_op, f, s, kept, repaired in [
                # no memo yet: assembled, and kept
                (op, fvals, 0.7, False, False),
                # the same branches under twice the forcing (the rows are
                # positively homogeneous and doubling is exact, so every
                # branch test is the same): the kept factors, no assembly
                (op, 2.0 * fvals, 1.4, True, False),
                # the kept factors, then repairs, each assembled and kept
                (op, -fvals, 0.7, True, True),
                # a second bracket on the grid keeps its own memo
                (OperatorSpec.pucci_minus(1.0, 1.0, 2.0, 2), fvals, 0.7,
                 False, True)]:
            rec = solver._Recurrence(run_op, grid, f, guess.copy())
            before = rec.rows.memo
            assemblies.clear()
            summations.clear()
            got = rec.fluxes(s)
            assert (rec.scans > 1) == repaired
            assert len(assemblies) == rec.scans - kept
            assert len(summations) == rec.scans
            assert (rec.rows.memo is before) == (not assemblies)
            want, P = self._fresh_scan(run_op, grid, rec, s)
            assert got.tobytes() == want.tobytes()
            assert rec.P.tobytes() == P.tobytes()
            # the memo holds the bytes of the last branches scanned, and
            # read-only arrays
            memo = rec.rows.memo
            assert memo.key == rec.key.tobytes()
            for a in (memo.den, memo.P, *memo.windows):
                assert not a.flags.writeable
            if run_op is op:
                kept_memo = memo
            guess = rec.key
        assert solver._row_data(op, grid).memo is kept_memo

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

    # all-zero keys are the guess of every eigen iteration's first step
    def test_zero_keys_change_no_bit(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            alpha = float(rng.choice([-0.9, 0.0, 1.0, 10.0]))
            dim = int(rng.integers(1, 7))
            a = float(rng.uniform(0.5, 1.0))
            big = a * float(rng.uniform(1.0, 3.0))
            op = [OperatorSpec.pucci_plus(alpha, a, big, dim),
                  OperatorSpec.pucci_minus(alpha, a, big, dim),
                  OperatorSpec.alpha_laplacian(alpha, dim),
                  OperatorSpec.trace_normal_mix(alpha, a, a - big / 2.0, dim),
                  ][rng.integers(4)]
            inner, outer = rng.uniform(-1.0, 1.0, 2)
            R1 = float(rng.choice([0.0, 0.1, 0.5]))
            dom = (Domain.annulus(R1, 1.0, inner, outer) if R1
                   else Domain.ball(1.0, outer))
            grading = Grading.UNIFORM
            if not R1 and rng.random() < 0.5:
                grading = Grading.GRADED_AT_ORIGIN
            grid = RadialGrid.for_domain(dom, int(rng.choice([50, 400])),
                                         grading)
            f = (rng.uniform(-3.0, 3.0) + rng.uniform(0.0, 2.0)
                 * np.sin(rng.uniform(1.0, 8.0) * grid.nodes))
            cold = solve_dirichlet(op, dom, f, grid)
            warm = solve_dirichlet(op, dom, f, grid,
                                   initial_guess=np.zeros(grid.n - 1, np.int8))
            assert warm.u.values.tobytes() == cold.u.values.tobytes()
            assert np.array_equal(warm.branches, cold.branches)
            assert warm.shooting_steps == cold.shooting_steps

    def test_guessed_solves_keep_factors_and_change_no_bit(self):
        op, dom, grid, f = self._problem()
        fvals = f(grid.nodes)
        cold = solve_dirichlet(op, dom, fvals, grid)
        # a solve with no guess leaves no window products on the grid
        assert solver._row_data(op, grid).memo is None
        branches = cold.branches
        # the same branches under twice the forcing, then a forcing whose
        # sign change moves, whose solve repairs the kept branches
        for g in (fvals, 2.0 * fvals, 12.0 * grid.nodes - 3.0):
            sol = solve_dirichlet(op, dom, g, grid, initial_guess=branches)
            fresh = solve_dirichlet(op, dom, g, RadialGrid(grid.nodes,
                                                           grid.grading))
            assert sol.u.values.tobytes() == fresh.u.values.tobytes()
            assert np.array_equal(sol.branches, fresh.branches)
            memo = solver._row_data(op, grid).memo
            assert memo.key == sol.branches.tobytes()
            # the solution's branches are its own: writing them leaves
            # the kept copy as it is
            sol.branches[:] = 3 - sol.branches
            assert memo.key == fresh.branches.tobytes()
            branches = fresh.branches
        assert sol.iterations > 1

    # a wide key must not pass as the key its low bits spell
    @pytest.mark.parametrize("guess", [
        np.zeros(398, dtype=int), np.zeros(400, dtype=int),
        np.full(399, 4), np.full(399, -1), np.zeros(399),
        np.zeros((1, 399), dtype=int), ["0"] * 399,
        np.full(399, -1, dtype=np.int8), np.full(399, 4, dtype=np.int8),
        np.full(399, 127, dtype=np.int8), np.full(399, 256, dtype=np.int16),
        np.full(399, 260, dtype=np.int16),
        np.full(399, 2 ** 64 - 4, dtype=np.uint64),
        np.ones(399, dtype=bool), np.zeros((399, 1), dtype=np.int8),
        np.zeros(0, dtype=np.int8)])
    def test_bad_guess_rejected(self, guess):
        op, dom, grid, f = self._problem()
        assert grid.n - 1 == 399  # interior rows
        with pytest.raises(InvalidSpec, match="^initial_guess must be 399 "
                                              "branch keys, integers in "
                                              "0\\.\\.3$"):
            solve_dirichlet(op, dom, f, grid, initial_guess=guess)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16])
    def test_integer_keys_are_taken_as_a_copy(self, dtype):
        keys = (np.arange(399) % 4).astype(dtype)
        got = solver._branch_guess(keys, 400)
        assert got.dtype == np.int8 and np.array_equal(got, keys)
        assert not np.shares_memory(got, keys)

    @pytest.mark.parametrize("row", [0, -1], ids=["first", "last"])
    def test_repair_starts_at_the_first_wrong_row(self, row):
        # a guess wrong in one row settles in one repair: the rows before
        # it keep their branches, the rest take those of their inflows
        op, dom, grid, f = self._problem()
        cold = solve_dirichlet(op, dom, f, grid)
        settled = cold.branches
        assert solve_dirichlet(op, dom, f, grid,
                               initial_guess=settled).iterations == 1
        for key in {0, 1, 2, 3} - {settled[row]}:
            guess = settled.copy()
            guess[row] = key
            sol = solve_dirichlet(op, dom, f, grid, initial_guess=guess)
            assert sol.iterations == 2
            assert sol.u.values.tobytes() == cold.u.values.tobytes()
            assert np.array_equal(sol.branches, settled)

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
    @staticmethod
    def _scan(A, b, keep):
        """P, Q and the windows of a scan of the maps ``x -> A[k] x + b[k]``:
        ``solver._offsets`` sums over ``solver._levels``' windows, streamed
        or, with ``keep``, as a list."""
        P = np.empty(len(A) + 1)
        windows = solver._levels(A, P)
        if keep:
            windows = list(windows)
        return P, solver._offsets(b, np.ones_like(b), windows), windows

    def test_affine_scan_composes_in_order(self):
        rng = np.random.default_rng(7)
        for m in (1, 2, 3, 8, 33):
            A = rng.uniform(0.0, 1.0, m)
            A[m // 2] = 0.0  # a row whose outflow ignores its inflow
            b = rng.normal(size=m)
            want_P, want_Q = _reference_scan(A, b)
            for keep in (False, True):
                P, Q, _ = self._scan(A, b, keep)
                assert P[0] == 1.0 and Q[0] == 0.0
                x = 0.3
                for k in range(m):
                    x = A[k] * x + b[k]
                    assert P[k + 1] * 0.3 + Q[k + 1] == pytest.approx(
                        x, abs=1e-14)
                assert P[1:].tobytes() == want_P.tobytes()
                assert Q[1:].tobytes() == want_Q.tobytes()

    @pytest.mark.parametrize("keep", [False, True])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 8, 33, 1000])
    def test_affine_scan_matches_the_in_place_reference(self, m, keep):
        # bit for bit, with a leading 1 in P and a leading 0 in Q, whether
        # the windows are streamed or listed; the windows listed are the
        # reference's P[d:] at each level
        rng = np.random.default_rng(m)
        A = rng.uniform(0.0, 1.0, m)
        if m:
            A[m // 2] = 0.0
        b = rng.normal(size=m)
        levels = []
        want_P, want_Q = _reference_scan(A, b, levels)
        given_A, given_b = A.copy(), b.copy()
        P, Q, windows = self._scan(A, b, keep)
        # the factors and the forcing are read only
        assert A.tobytes() == given_A.tobytes()
        assert b.tobytes() == given_b.tobytes()
        assert P[0] == 1.0 and P[1:].tobytes() == want_P.tobytes()
        assert Q[0] == 0.0 and Q[1:].tobytes() == want_Q.tobytes()
        if keep:
            assert len(windows) == len(levels)
            for window, level in zip(windows, levels):
                assert window.tobytes() == level.tobytes()

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
