import json
import os
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from radelliptic import analysis
from radelliptic.analysis import (_LOCAL_COEFS, C1_MODULUS_SCALES,
                                  FLUX_THRESHOLD_FLOOR, VISCOSITY_CURVATURES,
                                  VISCOSITY_SLOPES, Sign, SignInterval,
                                  _as_function, _chebyshev,
                                  _cumulative_trapezoid, _curvature_family,
                                  _largest_at_most, _local_curvature, _median,
                                  _slope_window, _touching_bounds,
                                  c1_bound_check, c1_modulus_report,
                                  check_viscosity, derivative_zero_candidates,
                                  epsilon_aA, gamma_exponent, holder_exponent,
                                  sign_intervals, verify_flux_inequalities)
from radelliptic.errors import (InsufficientData, InvalidSpec, NotAZero,
                               WindowTooSmall)
from radelliptic.grid import (DiscreteRadialFunction, Domain, Grading,
                              RadialGrid, derivative_numbers,
                              interior_quotients, lipschitz_constant)
from radelliptic.operators import (OperatorSpec, closed_form_pucci_power,
                                   eval_radial_many, pucci_power_profile)
from radelliptic.report import VerificationReport
from radelliptic.solver import SourceFunction, _node_forcing, solve_dirichlet
from reference import reference_solution


def sampled(fn, n=200, grading=Grading.UNIFORM, R=1.0):
    grid = RadialGrid.for_domain(Domain.ball(R), n, grading)
    return DiscreteRadialFunction(grid, fn(grid.nodes))


@pytest.fixture(scope="module")
def pucci_case():
    """Pucci extremal case with a known power-profile solution."""
    op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
    _, c = closed_form_pucci_power(op)
    exact = pucci_power_profile(op)
    dom = Domain.ball(1.0, bc_outer=float(exact(1.0)))
    grid = RadialGrid.for_domain(dom, 200, Grading.GRADED_AT_ORIGIN)
    sol = solve_dirichlet(op, dom, SourceFunction.constant(c), grid)
    return op, SourceFunction.constant(c), sol, exact


class TestEpsilon:
    def test_examples(self):
        assert epsilon_aA(2.0, 1.0, 2.0) == pytest.approx(2.0)
        assert epsilon_aA(-2.0, 1.0, 2.0) == pytest.approx(-1.0)
        assert epsilon_aA(0.0, 1.0, 2.0) == 0.0

    def test_vectorized(self):
        out = epsilon_aA(np.array([1.0, -1.0]), 0.5, 2.0)
        assert np.allclose(out, [2.0, -0.5])

    def test_dominates_both_slopes(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=1000) * 10.0
        eps = epsilon_aA(x, 0.7, 2.3)
        assert np.all(eps >= np.maximum(x / 0.7, x / 2.3) - 1e-14)

    def test_duality(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=500)
        assert np.allclose(epsilon_aA(x, 2.3, 0.7),
                           -epsilon_aA(-x, 0.7, 2.3))

    def test_weights_validated(self):
        with pytest.raises(InvalidSpec):
            epsilon_aA(1.0, 0.0, 1.0)
        with pytest.raises(InvalidSpec):
            epsilon_aA(1.0, 1.0, -1.0)


class TestGamma:
    def test_examples(self):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 3)
        gamma, gamma1 = gamma_exponent(op)
        assert gamma == pytest.approx(8.0)
        assert gamma1 == pytest.approx(4.0)

    def test_ordered(self):
        op = OperatorSpec.pucci_minus(2.0, 0.5, 3.0, 2)
        gamma, gamma1 = gamma_exponent(op)
        assert gamma >= gamma1


class TestSignIntervals:
    def test_monotone_profile_single_interval(self):
        u = sampled(lambda r: r ** 2, n=100)
        itvs = sign_intervals(u, threshold=1e-3)
        assert len(itvs) == 1
        assert itvs[0].sign is Sign.POSITIVE
        assert itvs[0].hi == pytest.approx(0.99)

    def test_sine_alternates(self):
        u = sampled(lambda r: np.sin(4.0 * np.pi * r), n=400)
        itvs = sign_intervals(u, threshold=0.1)
        signs = [itv.sign for itv in itvs]
        # u' = 4 pi cos(4 pi r) changes sign at r = 1/8, 3/8, 5/8, 7/8
        assert len(itvs) == 5
        assert signs == [Sign.POSITIVE, Sign.NEGATIVE, Sign.POSITIVE,
                         Sign.NEGATIVE, Sign.POSITIVE]

    def test_short_runs_discarded(self):
        grid = RadialGrid.for_domain(Domain.ball(1.0), 10)
        vals = np.zeros(11)
        vals[5] = 0.1  # one spike: two 2-node runs of opposite sign
        u = DiscreteRadialFunction(grid, vals)
        assert sign_intervals(u, threshold=1e-3) == []

    def test_flat_profile_empty(self):
        u = sampled(lambda r: np.ones_like(r))
        assert sign_intervals(u, threshold=1e-6) == []

    def test_threshold_validated(self):
        u = sampled(lambda r: r)
        with pytest.raises(InvalidSpec):
            sign_intervals(u, threshold=0.0)

    @staticmethod
    def _loop_intervals(u, threshold):
        """sign_intervals as a loop over the nodes."""
        q, _ = interior_quotients(u)
        nodes = u.grid.nodes
        state = np.where(q > threshold, 1, np.where(q < -threshold, -1, 0))
        intervals = []
        start = 0
        for k in range(1, len(state) + 1):
            if k == len(state) or state[k] != state[start]:
                if state[start] != 0 and k - start >= 3:
                    sign = (Sign.POSITIVE if state[start] > 0
                            else Sign.NEGATIVE)
                    intervals.append(SignInterval(
                        lo=float(nodes[1 + start]), hi=float(nodes[k]),
                        sign=sign, threshold=threshold,
                        i_lo=1 + start, i_hi=k))
                start = k
        return intervals

    @staticmethod
    def _profile_with_states(state):
        """A profile on a uniform grid whose first quotient at interior
        node i is state[i - 1], one of -1, 0 and 1."""
        n = len(state) + 1
        grid = RadialGrid.for_domain(Domain.ball(1.0), n)
        h = grid.nodes[1]
        vals = np.zeros(n + 1)
        for i, s in enumerate(state, start=1):
            vals[i + 1] = vals[i - 1] + 2.0 * h * s
        return DiscreteRadialFunction(grid, vals)

    def test_runs_match_loop(self):
        rng = np.random.default_rng(11)
        states = [[], [0], [1], [1, 1], [1, 1, 1], [-1, -1, 0, 1, 1],
                  [0] * 7, [1] * 9, [1, 1, 1, -1, -1, -1],
                  [0, -1, -1, -1, 0, 1, 1, 0, 1, 1, 1, 1]]
        for size in rng.integers(1, 60, size=200):
            # long runs and short ones: draw run lengths, then a state each
            lengths = rng.integers(1, 6, size=size)
            states.append(np.repeat(rng.integers(-1, 2, size=size),
                                    lengths)[:size].tolist())
        seen = set()
        for state in states:
            u = self._profile_with_states(state)
            q, _ = interior_quotients(u)
            assert np.array_equal(np.where(q > 0.5, 1, np.where(
                q < -0.5, -1, 0)), np.array(state, dtype=int))
            got = sign_intervals(u, 0.5)
            assert got == self._loop_intervals(u, 0.5)
            for itv in got:
                assert type(itv.i_lo) is int and type(itv.i_hi) is int
                seen.add(("first" if itv.i_lo == 1 else
                          "last" if itv.i_hi == len(state) else "inner"))
        assert seen == {"first", "last", "inner"}


class TestFluxInequalities:
    def test_pucci_power_passes(self, pucci_case):
        op, f, sol, _ = pucci_case
        report = verify_flux_inequalities(sol, op, f)
        assert report.all_passed, [c.as_dict() for c in report.failures()]
        names = {c.name for c in report.checks}
        assert {"eqA", "eqB[loose]", "eqB[tight]"} <= names

    def test_pucci_power_slopes(self, pucci_case):
        # the flux of the power profile grows at slope 9/4 while the
        # integral bound allows slope (1+alpha)|f|/a = 13.5: the margin
        # at well-separated endpoints stays strictly positive
        op, f, sol, exact = pucci_case
        r, s = 0.2, 0.8
        flux = lambda x: np.abs(exact.derivative(x)) * exact.derivative(x)
        actual_slope = (flux(s) - flux(r)) / (s - r)
        bound_slope = (1.0 + op.alpha) * epsilon_aA(6.75, op.a, op.A)
        assert actual_slope == pytest.approx(2.25, rel=1e-12)
        assert bound_slope == pytest.approx(13.5, rel=1e-12)

    def test_decreasing_profile_uses_mirrored_checks(self, pucci_case):
        op, _, sol, _ = pucci_case
        flipped = DiscreteRadialFunction(sol.u.grid, -sol.u.values)
        report = verify_flux_inequalities(flipped, op.dual(),
                                          SourceFunction.constant(-6.75))
        assert report.all_passed, [c.as_dict() for c in report.failures()]
        names = {c.name for c in report.checks}
        assert {"eqC", "eqD[loose]", "eqD[tight]"} <= names

    def test_vacuous_on_flat_profile(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        u = sampled(lambda r: np.ones_like(r))
        report = verify_flux_inequalities(u, op, SourceFunction.constant(0.0))
        assert [c.name for c in report.checks] == ["flux[vacuous]"]
        assert report.all_passed

    def test_eqA_margin_matches_brute_force(self, pucci_case):
        op, f, sol, _ = pucci_case
        report = verify_flux_inequalities(sol, op, f)
        got = next(c for c in report.checks if c.name == "eqA").margin

        # independent all-pairs oracle on the same interval
        u = sol.u
        nodes = u.grid.nodes
        itv = sign_intervals(u, flux_threshold(u))[0]
        idx = np.arange(itv.i_lo, itv.i_hi + 1)
        hm = nodes[1:-1] - nodes[:-2]
        hp = nodes[2:] - nodes[1:-1]
        q = (hm ** 2 * u.values[2:] + (hp ** 2 - hm ** 2) * u.values[1:-1]
             - hp ** 2 * u.values[:-2]) / (hp * hm * (hp + hm))
        flux = np.zeros_like(nodes)
        flux[1:-1] = np.abs(q) ** op.alpha * q
        cum = np.concatenate([[0.0], cumulative_trapezoid(
            epsilon_aA(f(nodes), op.a, op.A), nodes)])
        worst = np.inf
        for a_pos, i in enumerate(idx):
            for j in idx[a_pos + 1:]:
                m = flux[i] + (1 + op.alpha) * (cum[j] - cum[i]) - flux[j]
                worst = min(worst, m)
        assert got == pytest.approx(worst, rel=1e-12)


class TestViscosity:
    def test_pucci_power_passes(self, pucci_case):
        op, f, sol, _ = pucci_case
        report = check_viscosity(sol, op, f)
        assert report.all_passed, [c.as_dict() for c in report.failures()]
        names = [c.name for c in report.checks]
        assert names == ["viscosity[supersolution]", "viscosity[subsolution]"]

    def test_steep_cone_is_strict_subsolution(self):
        # u = 2r has H[u] = 8/r >= 8 > 1 = f everywhere: touching from
        # below must reveal the supersolution failure, while the
        # subsolution side holds with a wide margin
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        u = sampled(lambda r: 2.0 * r, n=200)
        report = check_viscosity(u, op, SourceFunction.constant(1.0))
        by_name = {c.name: c for c in report.checks}
        assert not by_name["viscosity[supersolution]"].passed
        assert by_name["viscosity[subsolution]"].passed

    def test_flat_profile_vacuous(self):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        u = sampled(lambda r: np.ones_like(r), n=64)
        report = check_viscosity(u, op, SourceFunction.constant(0.0))
        assert report.all_passed
        assert all(np.isinf(c.margin) for c in report.checks)

    def test_nan_operator_value_fails_its_row(self, pucci_case, monkeypatch,
                                              tmp_path):
        # one (node, slope) pair of the supersolution side evaluates to NaN:
        # that row fails with no margin; only +inf is a vacuous pass
        def one_nan(*args):
            hvals = eval_radial_many(*args)
            hvals[0] = np.nan
            return hvals

        op, f, sol, _ = pucci_case
        monkeypatch.setattr(analysis, "eval_radial_many", one_nan)
        with np.errstate(invalid="ignore"):  # np.minimum.at carries the NaN
            report = check_viscosity(sol, op, f)
        path = tmp_path / "report.json"
        report.to_json(path)
        rows = {c["name"]: c for c in json.loads(path.read_text())["checks"]}
        assert rows["viscosity[supersolution]"]["pass"] is False
        assert rows["viscosity[supersolution]"]["margin"] is None
        assert rows["viscosity[subsolution]"]["pass"] is True

    def test_zero_quotient_is_not_tested(self, monkeypatch):
        # at alpha = -0.99 the slope floor h^100 underflows to 0 for
        # h = 2e-5; the nodes of a profile's flat run (first quotient
        # exactly 0) stay untested
        op = OperatorSpec.trace_normal_mix(-0.99, 1.0, 0.5, 4)
        u = sampled(lambda r: np.minimum(r - 5e-4, 0.0) ** 2, n=50, R=1e-3)
        q, _ = interior_quotients(u)
        assert np.any(q == 0.0)
        tested = []

        def recording(op, r, P, Q):
            tested.extend(r.tolist())
            return eval_radial_many(op, r, P, Q)

        monkeypatch.setattr(analysis, "eval_radial_many", recording)
        check_viscosity(u, op, SourceFunction.constant(1.0))
        flat = u.grid.nodes[1:-1][q == 0.0]
        assert tested and not set(tested) & set(flat.tolist())


class TestHolder:
    def test_pucci_power_alpha_one(self, pucci_case):
        _, _, sol, _ = pucci_case
        est = holder_exponent(sol, 0.0)
        assert est.beta_fit == pytest.approx(0.5, abs=0.025)
        assert est.r_star == 0.0

    def test_smooth_profile_linear_rate(self):
        u = sampled(lambda r: r ** 2, n=2000)
        est = holder_exponent(u, 0.0)
        assert est.beta_fit == pytest.approx(1.0, abs=0.01)

    def test_interior_zero(self):
        u = sampled(lambda r: (r - 0.5) ** 2, n=2000)
        est = holder_exponent(u, 0.5)
        assert est.beta_fit == pytest.approx(1.0, abs=0.02)
        assert est.r_star == pytest.approx(0.5)

    def test_not_a_zero(self):
        u = sampled(lambda r: r, n=200)
        with pytest.raises(NotAZero):
            holder_exponent(u, 0.5)

    def test_insufficient_data(self):
        u = sampled(lambda r: r ** 2, n=4)
        with pytest.raises((InsufficientData, NotAZero)):
            holder_exponent(u, 0.0)


class TestZeroCandidates:
    # dyadic nodes: the spacing is exactly uniform, so a first quotient is
    # exactly 0 where the values on either side of a node are equal
    @pytest.mark.parametrize("values, expected", [
        # a sign change across one zero quotient: one candidate, at its node
        ([4, 3, 2, 1, 0, 1, 2, 3, 4], [0.5]),
        # a run of zero quotients: one candidate, at its first node
        ([3, 2, 1, 1, 1, 1, 2, 3, 4], [0.375]),
        # a zero quotient without a sign change is still a candidate
        ([0, 1, 2, 3, 3.5, 3, 4, 5, 6], [0.5]),
        # a flip between nonzero quotients: the node before the flip
        ([4, 3, 2, 1, 0.5, 1.5, 2.5, 3.5, 4.5], [0.375]),
        ([1, 2, 3, 4, 5, 6, 7, 8, 9], [])])
    def test_one_candidate_per_zero(self, values, expected):
        u = DiscreteRadialFunction(RadialGrid(np.arange(9) / 8.0),
                                   np.array(values, dtype=float))
        assert derivative_zero_candidates(u, Domain.ball(1.0)) == (
            [0.0] + expected)
        assert derivative_zero_candidates(
            u, Domain.annulus(0.5, 1.0)) == expected


class TestC1Bound:
    def test_pucci_power_right_bound(self, pucci_case):
        op, f, sol, _ = pucci_case
        report = c1_bound_check(sol, op, f, 0.0)
        by_name = {c.name: c for c in report.checks}
        assert by_name["right-bound"].passed
        # no nodes to the left of the origin: the left readings are vacuous
        assert np.isinf(by_name["machin[display]"].margin)
        assert np.isinf(by_name["machin[proof]"].margin)

    def test_steep_zero_with_no_forcing_fails(self):
        # u = cos(pi r) has u'(0) = 0 yet |u'| reaches pi; with f = 0 the
        # growth bound collapses to the tolerance and must fail
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        u = sampled(lambda r: np.cos(np.pi * r), n=400)
        report = c1_bound_check(u, op, SourceFunction.constant(0.0), 0.0)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["right-bound"].passed

    def test_profile_above_the_bound_by_more_than_tol_fails(self):
        # the tolerance is counted once, in the pass test, not also in the
        # bound.  Right of a zero at the origin: u' = (2 + 1.5 tol) r
        # against the bound (1+alpha) |f|/a r = 2 r, a margin of
        # -1.5 tol r, past -tol near r = 1
        f = SourceFunction.constant(2.0)
        tol = 10.0 / 200
        u = sampled(lambda r: (1.0 + 0.75 * tol) * r ** 2, n=200)
        report = c1_bound_check(u, OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2),
                                f, 0.0)
        check = {c.name: c for c in report.checks}["right-bound"]
        assert check.margin == pytest.approx(-1.5 * tol * check.location)
        assert check.margin < -tol and not check.passed
        # left of a zero at r* = 1.9 in dim 1 (gamma = 0): |u'| =
        # (1 + 1.5 tol)(r* - r) against K (r* - r), K = |f| / 2 = 1 under
        # both denominators, past -tol once r* - r > 2/3
        tol = 10.0 * 2.0 / 200
        u = sampled(lambda r: (0.5 + 0.75 * tol) * (r - 1.9) ** 2, n=200,
                    R=2.0)
        report = c1_bound_check(u, OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 1),
                                f, 1.9)
        by_name = {c.name: c for c in report.checks}
        assert by_name["right-bound"].passed
        for name in ("machin[display]", "machin[proof]"):
            check = by_name[name]
            assert check.margin == pytest.approx(
                -1.5 * tol * (1.9 - check.location))
            assert check.margin < -tol and not check.passed

    def test_not_a_zero(self, pucci_case):
        op, f, sol, _ = pucci_case
        with pytest.raises(NotAZero):
            c1_bound_check(sol, op, f, 0.7)


class TestC1Modulus:
    def test_smooth_profile_passes(self):
        u = sampled(lambda r: r * (1.0 - r), n=300)
        report = c1_modulus_report(u, alpha=0.0)
        assert report.all_passed, [c.as_dict() for c in report.failures()]
        names = {c.name for c in report.checks}
        assert names == {"c1-spread", "interlace[Lg-ld]",
                         "interlace[Ld-lg]", "zero-derivative"}

    def test_pucci_power_passes(self, pucci_case):
        op, _, sol, _ = pucci_case
        report = c1_modulus_report(sol, alpha=op.alpha)
        assert report.all_passed, [c.as_dict() for c in report.failures()]

    def test_kink_fails_interlacing(self):
        u = sampled(lambda r: np.abs(r - 0.5), n=100)
        report = c1_modulus_report(u, alpha=0.0)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["interlace[Lg-ld]"].passed
        assert by_name["interlace[Lg-ld]"].margin == pytest.approx(-2.0,
                                                                   abs=1e-8)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.0])
    def test_tolerance_scale_is_h_to_capped_exponent(self, alpha):
        u = sampled(lambda r: r * (1.0 - r), n=300)
        scale = u.grid.max_spacing ** min(1.0, 1.0 / (1.0 + alpha))
        tols = {c.name: c.tolerance
                for c in c1_modulus_report(u, alpha=alpha).checks}
        assert tols == {"c1-spread": 20.0 * scale,
                        "interlace[Lg-ld]": 10.0 * scale,
                        "interlace[Ld-lg]": 10.0 * scale,
                        "zero-derivative": 10.0 * scale}

    def test_negative_alpha_reference_fails_the_old_scale_only(self):
        # PucciPlus alpha = -0.5: u' vanishes like r^2 at the origin and u''
        # is bounded, so the numbers spread by O(h), above the old scale
        # h^{1/(1+alpha)} = h^2
        op = OperatorSpec.pucci_plus(-0.5, 1.0, 2.0, 2)
        dom = Domain.ball(1.0, bc_outer=1.0)
        grid = RadialGrid.for_domain(dom, 200, Grading.GRADED_AT_ORIGIN)
        f = SourceFunction.constant(3.0)
        u = DiscreteRadialFunction(
            grid, reference_solution(op, dom, f, grid.nodes))
        report = c1_modulus_report(u, alpha=op.alpha)
        assert report.all_passed, [c.as_dict() for c in report.failures()]
        by_name = {c.name: c for c in report.checks}
        old = grid.max_spacing ** (1.0 / (1.0 + op.alpha))
        assert by_name["c1-spread"].margin < -20.0 * old
        assert by_name["interlace[Lg-ld]"].margin < -10.0 * old

    def test_negative_alpha_kink_fails(self):
        u = sampled(lambda r: np.abs(r - 0.5), n=100)
        report = c1_modulus_report(u, alpha=-0.5)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["c1-spread"].passed
        assert not by_name["interlace[Lg-ld]"].passed

    # a probe near a zero of u' (some number below tol) passes while every
    # number stays <= 2 tol: the two edges of the zero-derivative check
    @pytest.mark.parametrize("slope, passed", [(1.5, True), (2.5, False)])
    def test_zero_derivative_passes_up_to_twice_tol(self, slope, passed):
        tol = 10.0 * (1.0 / 200)
        u = sampled(lambda r: slope * tol * np.maximum(r - 0.5, 0.0), n=200)
        by_name = {c.name: c for c in c1_modulus_report(u, alpha=0.0).checks}
        zero = by_name["zero-derivative"]
        assert zero.tolerance == pytest.approx(tol, rel=1e-12)
        assert zero.location == 0.5
        assert zero.margin == pytest.approx((1.0 - slope) * tol, rel=1e-9)
        assert zero.passed is passed

    def test_two_node_profile_has_no_probe_point(self):
        # the window of 8 spacings reaches past both ends of the grid
        u = sampled(lambda r: r, n=1)
        with pytest.raises(WindowTooSmall):
            c1_modulus_report(u, alpha=0.0)


# -- certification checks against the per-node and pairwise loops -----------

def flux_threshold(u):
    """The |u'| threshold of verify_flux_inequalities' monotone intervals:
    max(FLUX_THRESHOLD_FLOOR, h_max) (1 + Lip u)."""
    profile, _ = _as_function(u)
    return (max(FLUX_THRESHOLD_FLOOR, profile.grid.max_spacing)
            * (1.0 + lipschitz_constant(profile)))


def reference_flux(u, op, f):
    """Pairwise loop form of verify_flux_inequalities.

    Returns the report of the all-pairs loop (worst pair in (i, j) order)
    and, per interval check, the minimum over left endpoints i < j of each
    right endpoint j with the i attaining it, and the tolerance scale
    max(1, max|flux|, (1+alpha) max|eps_cum|) on the interval.
    """
    profile, residual_sup = _as_function(u)
    nodes = profile.grid.nodes
    h = profile.grid.max_spacing
    tol = 10.0 * (h ** (1.0 / (1.0 + op.alpha)) + residual_sup)
    fvals = np.asarray(f(nodes), dtype=float)
    f_sup = float(np.max(np.abs(fvals)))
    q, _ = interior_quotients(profile)
    flux = np.zeros_like(nodes)
    flux[1:-1] = np.abs(q) ** op.alpha * q
    gamma, _ = gamma_exponent(op)
    one_p_a = 1.0 + op.alpha
    denoms = {"loose": op.A * (op.dim - 1) * one_p_a + op.a,
              "tight": op.A * (op.dim - 1) * one_p_a + op.A}

    report = VerificationReport()
    columns = []
    intervals = sign_intervals(profile, flux_threshold(profile))
    for itv in intervals:
        increasing = itv.sign is Sign.POSITIVE
        weights = (op.a, op.A) if increasing else (op.A, op.a)
        eps_cum = np.concatenate([[0.0], cumulative_trapezoid(
            epsilon_aA(fvals, *weights), nodes)])
        idx = np.arange(itv.i_lo, itv.i_hi + 1)
        keys = ("integral", "loose", "tight")
        worst = {key: (np.inf, nodes[idx[0]]) for key in keys}
        col_min = {key: np.full(len(idx) - 1, np.inf) for key in keys}
        col_left = {key: np.zeros(len(idx) - 1, dtype=int) for key in keys}
        for pos, i in enumerate(idx[:-1]):
            right = idx[pos + 1:]
            s = nodes[right]
            growth = one_p_a * (eps_cum[right] - eps_cum[i])
            if increasing:
                margins = {"integral": flux[i] + growth - flux[right]}
            else:
                margins = {"integral": flux[right] - flux[i] - growth}
            ratio = (nodes[i] / s) ** gamma
            decay = 1.0 - (nodes[i] / s) ** (gamma + 1.0)
            for key, denom in denoms.items():
                barrier = f_sup * one_p_a * s / denom * decay
                if increasing:
                    margins[key] = flux[right] - (ratio * flux[i] - barrier)
                else:
                    margins[key] = (ratio * flux[i] + barrier) - flux[right]
            for key, m in margins.items():
                w = int(np.argmin(m))
                if m[w] < worst[key][0]:
                    worst[key] = (float(m[w]), float(s[w]))
                lower = m < col_min[key][pos:]
                col_min[key][pos:][lower] = m[lower]
                col_left[key][pos:][lower] = i
        side, bar = ("eqA", "eqB") if increasing else ("eqC", "eqD")
        report.add(side, worst["integral"][1], worst["integral"][0], tol)
        report.add(bar + "[loose]", worst["loose"][1], worst["loose"][0], tol)
        report.add(bar + "[tight]", worst["tight"][1], worst["tight"][0], tol,
                   binding=False)
        scale = max(1.0, float(np.max(np.abs(flux[idx]))),
                    one_p_a * float(np.max(np.abs(eps_cum[idx]))))
        columns += [{"s": nodes[idx[1:]], "min": col_min[key],
                     "left": col_left[key], "scale": scale} for key in keys]
    if not intervals:
        report.add("flux[vacuous]", float(nodes[0]), np.inf, tol)
        columns.append(None)
    return report, columns


def assert_flux_matches_pairs(u, op, f, rel=1e-13):
    """The O(n) flux report against the pairwise loop, within rounding.

    Names and pass flags must be equal, margins within ``rel`` times the
    interval's scale, and each reported location must be a right endpoint
    whose pairwise minimum is within the same distance of the worst one.
    """
    got = verify_flux_inequalities(u, op, f)
    ref, columns = reference_flux(u, op, f)
    assert len(got.checks) == len(ref.checks)
    for g, r, col in zip(got.checks, ref.checks, columns):
        assert (g.name, g.passed, g.binding) == (r.name, r.passed, r.binding)
        if col is None:
            assert g.as_dict() == r.as_dict()
            continue
        tol = rel * col["scale"]
        assert abs(g.margin - r.margin) <= tol, (g, r)
        (j,) = np.flatnonzero(col["s"] == g.location)
        assert col["min"][j] - r.margin <= tol, (g, r)
    return got, ref, columns


def reference_viscosity(u, op, f, slopes=17, curvatures=9):
    """Per-node loop form of check_viscosity."""
    profile, residual_sup = _as_function(u)
    nodes = profile.grid.nodes
    vals = profile.values
    n = profile.grid.n
    h = profile.grid.max_spacing
    tol = 10.0 * h ** (1.0 / (1.0 + op.alpha)) + 10.0 * residual_sup
    lip = max(lipschitz_constant(profile), h)
    q_int, m_int = interior_quotients(profile)
    mmax = float(np.max(np.abs(m_int)))
    pos_slopes = _chebyshev(h, max(2.0 * lip, 2.0 * h),
                            max(3, (slopes + 1) // 2))
    slope_family = np.concatenate([-pos_slopes[::-1], pos_slopes])
    pos_curv = _chebyshev(0.0, max(4.0 * mmax, 1.0),
                          max(2, (curvatures + 1) // 2))
    curv_family = np.unique(np.concatenate([-pos_curv[::-1], pos_curv]))
    curv_offsets = np.array([-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0])
    fvals = np.asarray(f(nodes), dtype=float)
    eta = 1e-11 * max(1.0, float(np.max(np.abs(vals))))
    slope_floor = h ** (1.0 / (1.0 + op.alpha))

    worst_super = (np.inf, float(nodes[min(1, n)]))
    worst_sub = (np.inf, float(nodes[min(1, n)]))
    for i in range(1, n):
        if (nodes[i] <= 0.0 or q_int[i - 1] == 0.0
                or abs(q_int[i - 1]) < slope_floor):
            continue
        m_i = m_int[i - 1]
        local_curv = m_i + curv_offsets * max(abs(m_i), 1.0)
        P, Q = np.meshgrid(np.append(slope_family, q_int[i - 1]),
                           np.concatenate([curv_family, local_curv, [m_i]]),
                           indexing="ij")
        P = P.ravel()
        Q = Q.ravel()
        lo, hi = max(0, i - 2), min(n, i + 2)
        ds = nodes[lo:hi + 1] - nodes[i]
        du = vals[lo:hi + 1] - vals[i]
        w = P[:, None] * ds[None, :] + 0.5 * Q[:, None] * ds[None, :] ** 2
        below = np.all(w <= du[None, :] + eta, axis=1)
        above = np.all(w >= du[None, :] - eta, axis=1)
        dQ = Q - m_i
        for j in (i - 1, i + 1):
            dj = nodes[j] - nodes[i]
            hc2 = dj * dj
            gb = P * dj + 0.5 * Q * hc2 - (vals[j] - vals[i])
            denom = np.where(dQ != 0.0, dQ * hc2, 1.0)
            t_star = np.clip(0.5 - gb / denom, 0.0, 1.0)
            g_star = t_star * gb - 0.5 * dQ * hc2 * t_star * (1.0 - t_star)
            g_lo = np.minimum(np.minimum(0.0, gb), np.where(dQ > 0, g_star, 0.0))
            g_hi = np.maximum(np.maximum(0.0, gb), np.where(dQ < 0, g_star, 0.0))
            above &= g_lo >= -eta
            below &= g_hi <= eta
        if not (below.any() or above.any()):
            continue
        hvals = eval_radial_many(op, np.full_like(P, nodes[i]), P, Q)
        if below.any():
            m = float(np.min(fvals[i] - hvals[below]))
            if m < worst_super[0]:
                worst_super = (m, float(nodes[i]))
        if above.any():
            m = float(np.min(hvals[above] - fvals[i]))
            if m < worst_sub[0]:
                worst_sub = (m, float(nodes[i]))

    report = VerificationReport()
    report.add("viscosity[supersolution]", worst_super[1], worst_super[0], tol)
    report.add("viscosity[subsolution]", worst_sub[1], worst_sub[0], tol)
    return report


def matrix_viscosity(u, op, f):
    """check_viscosity without the slope window: the closed-form bounds of
    every tested node at all 19 of its slopes, as one (node, slope)
    matrix."""
    profile, residual_sup = _as_function(u)
    nodes, vals, n = profile.grid.nodes, profile.values, profile.grid.n
    h = profile.grid.max_spacing
    tol = 10.0 * (h ** (1.0 / (1.0 + op.alpha)) + residual_sup)
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
    eta = 1e-11 * max(1.0, float(np.max(np.abs(vals))))
    i = 1 + np.flatnonzero((nodes[1:n] > 0.0) & (q_int != 0.0) & (
        np.abs(q_int) >= h ** (1.0 / (1.0 + op.alpha))))
    r_i = nodes[i][:, None]
    m_i = m_int[i - 1][:, None]
    s_i = np.maximum(np.abs(m_i), 1.0)
    P = np.concatenate(
        [np.broadcast_to(slope_family, (len(i), len(slope_family))),
         q_int[i - 1][:, None]], axis=1)
    stencil = [(offset, nodes[j][:, None] - r_i,
                vals[j][:, None] - vals[i][:, None])
               for offset in (-2, -1, 1, 2)
               for j in [np.clip(i + offset, 0, n)]]
    margins = []
    for sign, bound in zip((1.0, -1.0),
                           _touching_bounds(P, m_i, stencil, eta)):
        family = curv_family if sign > 0 else -curv_family[::-1]
        lowest = np.minimum(family[0], _local_curvature(sign * m_i, s_i, 0))
        k, col = np.nonzero(sign * bound >= lowest)
        Q = sign * _largest_at_most(sign * bound[k, col], family,
                                    sign * m_i[k, 0], s_i[k, 0])
        H = eval_radial_many(op, r_i[k, 0], P[k, col], Q)
        gap = fvals[i][k] - H if sign > 0 else H - fvals[i][k]
        worst = np.full(len(i), np.inf)
        np.minimum.at(worst, k, gap)
        margins.append(worst)
    report = VerificationReport()
    for name, worst in zip(("viscosity[supersolution]",
                            "viscosity[subsolution]"), margins):
        k = int(np.argmin(worst)) if len(i) else 0
        if len(i) and worst[k] != np.inf:
            report.add(name, float(nodes[i[k]]), float(worst[k]), tol)
        else:
            report.add(name, float(nodes[min(1, n)]), np.inf, tol)
    return report


def reference_c1_modulus(u, alpha, stride=10):
    """Per-node loop form of c1_modulus_report, one call per node."""
    profile, _ = _as_function(u)
    grid = profile.grid
    nodes = grid.nodes
    h = grid.max_spacing
    beta = min(1.0, 1.0 / (1.0 + alpha))
    tol_spread = 20.0 * h ** beta
    tol_remark = 10.0 * h ** beta

    report = VerificationReport()
    worst = {"c1-spread": (np.inf, nodes[0]),
             "interlace[Lg-ld]": (np.inf, nodes[0]),
             "interlace[Ld-lg]": (np.inf, nodes[0]),
             "zero-derivative": (np.inf, nodes[0])}
    for i in range(0, grid.n + 1, stride):
        window = 8.0 * grid.local_spacing(np.array([i]))
        dn = derivative_numbers(profile, np.array([i]), window,
                                C1_MODULUS_SCALES)
        lg, Lg, ld, Ld = (float(x[0]) for x in (dn.lambda_g, dn.Lambda_g,
                                                dn.lambda_d, dn.Lambda_d))
        entries = {
            "c1-spread": -(max(Lg, Ld) - min(lg, ld)),
            "interlace[Lg-ld]": Lg - ld,
            "interlace[Ld-lg]": Ld - lg,
        }
        four = (lg, Lg, ld, Ld)
        if min(abs(v) for v in four) < tol_remark:
            entries["zero-derivative"] = tol_remark - max(abs(v) for v in four)
        for key, margin in entries.items():
            if margin < worst[key][0]:
                worst[key] = (margin, float(nodes[i]))
    for key, tol in (("c1-spread", tol_spread),
                     ("interlace[Lg-ld]", tol_remark),
                     ("interlace[Ld-lg]", tol_remark),
                     ("zero-derivative", tol_remark)):
        report.add(key, worst[key][1], worst[key][0], tol)
    return report


def _certification_cases():
    dyadic = RadialGrid.for_domain(Domain.ball(1.0), 256)
    cases = {
        # slope 2 at the origin: node 1 is tested with its 4-node stencil
        "graded-ball": (
            sampled(lambda r: 2.0 * r + r ** 2, n=150,
                    grading=Grading.GRADED_AT_ORIGIN),
            OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2),
            SourceFunction.constant(6.75)),
        "annulus": (
            DiscreteRadialFunction(
                RadialGrid.for_domain(Domain.annulus(0.5, 1.0), 120),
                np.sin(3.0 * np.pi * np.linspace(0.5, 1.0, 121))),
            OperatorSpec.pucci_minus(0.0, 1.0, 3.0, 3),
            SourceFunction.expression("sine", amplitude=2.0, frequency=5.0)),
        # a monotone run of about 300 tested nodes
        "multi-block": (
            sampled(lambda r: r ** 1.5 + 0.3 * r, n=300),
            OperatorSpec.trace_normal_mix(0.5, 1.0, 0.5, 2),
            SourceFunction.constant(2.0)),
        # exactly representable linear profile in dim 1: every node ties, and
        # the flux pairs (i, i+1) tie across several blocks
        "tied": (
            DiscreteRadialFunction(dyadic, 2.0 * dyadic.nodes),
            OperatorSpec.pucci_plus(0.0, 1.0, 2.0, 1),
            SourceFunction.constant(1.0)),
    }
    for alpha in (-0.5, 0.0, 2.0):
        cases[f"alpha={alpha:g}"] = (
            sampled(lambda r: np.cos(2.5 * r) + r ** 3, n=160,
                    grading=Grading.GRADED_AT_ORIGIN),
            OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2),
            SourceFunction.expression("step", left=-1.0, right=3.0))
    return cases


CERTIFICATION_CASES = _certification_cases()

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")


def _config(name):
    with open(os.path.join(CONFIG_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


SHIPPED_VERIFY_CONFIGS = sorted(
    name for name in os.listdir(CONFIG_DIR)
    if _config(name).get("command") == "verify")


def _shipped_solution(name, scale):
    """The solution of a shipped config at ``scale`` times its n, with its
    operator and forcing."""
    doc = _config(name)
    op = OperatorSpec.from_json_dict(doc["operator"])
    dom = Domain.from_json_dict(doc["domain"])
    grid = RadialGrid.for_domain(dom, doc["grid"]["n"] * scale,
                                 doc["grid"]["grading"])
    f = SourceFunction.from_json_dict(doc["f"])
    return solve_dirichlet(op, dom, f, grid), op, f


def _random_viscosity_case(seed):
    """A rough profile, an operator of any of the four variants with alpha
    in [-0.75, 4] and dim 1-4, and a sine forcing; annulus for odd seeds,
    graded ball for even ones."""
    rng = np.random.default_rng(100 + seed)
    alpha = float(rng.uniform(-0.75, 4.0))
    a = float(rng.uniform(0.5, 1.5))
    A = a * float(rng.uniform(1.0, 3.0))
    dim = int(rng.integers(1, 5))
    op = (OperatorSpec.pucci_plus(alpha, a, A, dim),
          OperatorSpec.pucci_minus(alpha, a, A, dim),
          OperatorSpec.alpha_laplacian(alpha, dim),
          OperatorSpec.trace_normal_mix(alpha, a, A - 1.5 * a, dim))[seed % 4]
    if seed % 2:
        dom = Domain.annulus(float(rng.uniform(0.1, 0.6)), 1.0)
        grid = RadialGrid.for_domain(dom, 150)
    else:
        grid = RadialGrid.for_domain(Domain.ball(1.0), 150,
                                     Grading.GRADED_AT_ORIGIN)
    r = grid.nodes
    values = sum(rng.normal() * np.sin(k * r + rng.uniform(0, np.pi))
                 for k in (1.0, 3.0, 7.0)) + rng.normal() * r ** 1.5
    f = SourceFunction.expression("sine", amplitude=rng.normal() * 5.0,
                                  frequency=float(rng.uniform(1, 9)),
                                  offset=rng.normal())
    return DiscreteRadialFunction(grid, values), op, f


def _sorted_paraboloid_families(u, op):
    """Per tested node of check_viscosity: its 19 slopes, its 18
    curvatures sorted, its second quotient and its stencil, all shaped to
    broadcast over (node, slope, curvature); and eta."""
    nodes, vals, n = u.grid.nodes, u.values, u.grid.n
    h = u.grid.max_spacing
    q_int, m_int = interior_quotients(u)
    lip = max(lipschitz_constant(u), h)
    pos_slopes = _chebyshev(h, 2.0 * lip, (VISCOSITY_SLOPES + 1) // 2)
    pos_curv = _chebyshev(0.0, max(4.0 * float(np.max(np.abs(m_int))), 1.0),
                          (VISCOSITY_CURVATURES + 1) // 2)
    i = 1 + np.flatnonzero((nodes[1:n] > 0.0) & (q_int != 0.0) & (
        np.abs(q_int) >= h ** (1.0 / (1.0 + op.alpha))))
    m = m_int[i - 1][:, None]
    P = np.concatenate([np.broadcast_to(np.concatenate(
        [-pos_slopes[::-1], pos_slopes]), (len(i), 18)),
        q_int[i - 1][:, None]], axis=1)
    Q = np.sort(np.concatenate([
        np.broadcast_to(np.unique(np.concatenate(
            [-pos_curv[::-1], pos_curv])), (len(i), 9)),
        m + _LOCAL_COEFS * np.maximum(np.abs(m), 1.0)], axis=1), axis=1)
    stencil = [(offset, (nodes[j] - nodes[i])[:, None, None],
                (vals[j] - vals[i])[:, None, None])
               for offset in (-2, -1, 1, 2)
               for j in [np.clip(i + offset, 0, n)]]
    eta = 1e-11 * max(1.0, float(np.max(np.abs(vals))))
    return (nodes[i][:, None, None], P[:, :, None], Q[:, None, :],
            m[:, :, None], stencil, eta)


def _reference_touching(P, Q, m, stencil, eta):
    """reference_viscosity's touching predicate from below and from above,
    on the broadcast (node, slope, curvature) triples of
    ``_sorted_paraboloid_families``: the node part on the stencil (offset
    0 always passes) and the sub-cell guard on the two adjacent cells."""
    below = above = True
    dQ = Q - m
    for offset, ds, du in stencil:
        w = P * ds + 0.5 * Q * ds ** 2
        below = below & (w <= du + eta)
        above = above & (w >= du - eta)
        if abs(offset) != 1:
            continue
        hc2 = ds * ds
        gb = P * ds + 0.5 * Q * hc2 - du
        denom = np.where(dQ != 0.0, dQ * hc2, 1.0)
        t_star = np.clip(0.5 - gb / denom, 0.0, 1.0)
        g_star = t_star * gb - 0.5 * dQ * hc2 * t_star * (1.0 - t_star)
        g_lo = np.minimum(np.minimum(0.0, gb), np.where(dQ > 0, g_star, 0.0))
        g_hi = np.maximum(np.maximum(0.0, gb), np.where(dQ < 0, g_star, 0.0))
        above = above & (g_lo >= -eta)
        below = below & (g_hi <= eta)
    return below, above


class TestBlockedCertification:
    @pytest.mark.parametrize("name", sorted(CERTIFICATION_CASES))
    def test_flux_matches_loop(self, name):
        u, op, f = CERTIFICATION_CASES[name]
        assert_flux_matches_pairs(u, op, f)

    @pytest.mark.parametrize("name", sorted(CERTIFICATION_CASES))
    def test_viscosity_matches_loop(self, name):
        u, op, f = CERTIFICATION_CASES[name]
        assert (check_viscosity(u, op, f).as_dict()
                == reference_viscosity(u, op, f).as_dict())

    def test_solved_and_perturbed_profiles_match_loop(self, pucci_case):
        op, f, sol, _ = pucci_case
        bumped = DiscreteRadialFunction(
            sol.u.grid, sol.u.values
            + 0.02 * np.sin(40.0 * sol.u.grid.nodes) * sol.u.grid.nodes)
        for u in (sol, bumped):
            assert_flux_matches_pairs(u, op, f)
            assert (check_viscosity(u, op, f).as_dict()
                    == reference_viscosity(u, op, f).as_dict())
        assert not check_viscosity(bumped, op, f).all_passed
        assert not verify_flux_inequalities(bumped, op, f).all_passed

    @pytest.mark.parametrize("name", sorted(CERTIFICATION_CASES))
    def test_c1_modulus_matches_loop(self, monkeypatch, name):
        u, op, _ = CERTIFICATION_CASES[name]
        for stride in (1, 10):
            monkeypatch.setattr(analysis, "C1_MODULUS_STRIDE", stride)
            got = c1_modulus_report(u, alpha=op.alpha)
            ref = reference_c1_modulus(u, alpha=op.alpha, stride=stride)
            # json keeps the sign of zero margins apart
            assert json.dumps(got.as_dict()) == json.dumps(ref.as_dict())

    def test_c1_modulus_matches_loop_on_solved_profile(self, pucci_case):
        op, _, sol, _ = pucci_case
        got = c1_modulus_report(sol, alpha=op.alpha)
        assert (json.dumps(got.as_dict())
                == json.dumps(reference_c1_modulus(sol, alpha=op.alpha)
                              .as_dict()))

    def test_ties_report_first_node(self):
        u, op, f = CERTIFICATION_CASES["tied"]
        nodes = u.grid.nodes
        for check in check_viscosity(u, op, f).checks:
            assert check.location == nodes[1]
        # every right endpoint ties exactly: the integral margin is one
        # spacing and the barrier margin c times one spacing (gamma = 0), so
        # the first right endpoint of the interval is reported
        h = nodes[1]
        got = verify_flux_inequalities(u, op, f).checks
        assert [(c.name, c.location, c.margin) for c in got] == [
            ("eqA", nodes[2], h), ("eqB[loose]", nodes[2], h),
            ("eqB[tight]", nodes[2], h / 2.0)]
        _, columns = reference_flux(u, op, f)
        assert np.all(columns[0]["min"] == h)

    @pytest.mark.parametrize("seed", range(8))
    def test_flux_matches_loop_on_random_profiles(self, seed):
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(-0.75, 4.0))
        a = float(rng.uniform(0.5, 1.5))
        A = a * float(rng.uniform(1.0, 3.0))
        dim = int(rng.integers(1, 5))
        op = (OperatorSpec.pucci_plus if rng.random() < 0.5
              else OperatorSpec.pucci_minus)(alpha, a, A, dim)
        if seed % 2:
            dom = Domain.annulus(float(rng.uniform(0.1, 0.6)), 1.0)
            grid = RadialGrid.for_domain(dom, 150)
        else:
            grid = RadialGrid.for_domain(Domain.ball(1.0), 150,
                                         Grading.GRADED_AT_ORIGIN)
        r = grid.nodes
        values = sum(rng.normal() * np.sin(k * r + rng.uniform(0, np.pi))
                     for k in (1.0, 3.0, 7.0))
        f = SourceFunction.expression("sine", amplitude=rng.normal() * 5.0,
                                      frequency=float(rng.uniform(1, 9)),
                                      offset=rng.normal())
        assert_flux_matches_pairs(DiscreteRadialFunction(grid, values), op,
                                  f)

    @pytest.mark.parametrize("seed", range(8))
    def test_viscosity_matches_loop_on_random_profiles(self, seed):
        u, op, f = _random_viscosity_case(seed)
        got = check_viscosity(u, op, f)
        assert got.as_dict() == reference_viscosity(u, op, f).as_dict()
        assert all(np.isfinite(c.margin) for c in got.checks)

    def test_window_matches_matrix_on_random_profiles_and_cases(self):
        cases = [_random_viscosity_case(seed) for seed in range(64)]
        cases += [case for _, case in sorted(CERTIFICATION_CASES.items())]
        for u, op, f in cases:
            assert (check_viscosity(u, op, f).as_dict()
                    == matrix_viscosity(u, op, f).as_dict())

    @pytest.mark.parametrize("scale", [1, 4, 16])
    @pytest.mark.parametrize("name", SHIPPED_VERIFY_CONFIGS)
    def test_window_matches_matrix_on_shipped_solutions(self, name, scale):
        sol, op, f = _shipped_solution(name, scale)
        got = check_viscosity(sol, op, f)
        assert got.as_dict() == matrix_viscosity(sol, op, f).as_dict()
        assert all(np.isfinite(c.margin) for c in got.checks)

    def test_window_holds_every_admitted_pair(self):
        # the admitted (node, slope) pairs of the bounds at all 19 slopes,
        # on either side, all lie in _slope_window's window with the
        # documented slack; the window leaves most pairs out
        cases = [_random_viscosity_case(seed)[:2] for seed in range(64)]
        cases += [case[:2] for _, case in sorted(CERTIFICATION_CASES.items())]
        cases += [_shipped_solution(name, scale)[:2]
                  for name in SHIPPED_VERIFY_CONFIGS for scale in (1, 4, 16)]
        admitted_total = outside_total = pairs_total = 0
        for u, op in cases:
            u = getattr(u, "u", u)
            _, P, Q, m, stencil, eta = _sorted_paraboloid_families(u, op)
            lo, hi = _touching_bounds(P, m, stencil, eta)
            admitted = ((lo[..., 0] >= Q[:, :, 0])
                        | (hi[..., 0] <= Q[:, :, -1]))
            h = u.grid.max_spacing
            _, m_int = interior_quotients(u)
            scale = (2.0 * max(lipschitz_constant(u), h) + P[0, -2, 0]
                     + eta / np.min(u.grid.spacing)
                     + 4.0 * h * max(float(np.max(np.abs(m_int))), 1.0))
            ds = np.stack([d[:, 0, 0] for _, d, _ in stencil])
            du = np.stack([v[:, 0, 0] for _, _, v in stencil])
            w_lo, w_hi = _slope_window(ds, du, eta, Q[:, 0, 0], Q[:, 0, -1],
                                       scale)
            inside = ((P[..., 0] >= w_lo[:, None])
                      & (P[..., 0] <= w_hi[:, None]))
            assert not np.any(admitted & ~inside)
            admitted_total += int(admitted.sum())
            outside_total += int((~inside).sum())
            pairs_total += inside.size
        assert admitted_total > 0
        assert outside_total > pairs_total / 2

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_window_ends_hold_every_admitted_slope(self, side):
        # on profiles the admitted slopes lie far inside the window.  Here
        # m lies beyond the family's extreme curvature, so the sub-cell
        # guard never binds at an admitted slope and the window of one side
        # (the other side's extreme set to an infinity) is exact up to
        # rounding: slopes a few rounding units either side of its
        # unwidened ends probe the slack
        rng = np.random.default_rng(5 if side == "below" else 6)
        count = 3000
        cells = 10.0 ** rng.uniform(-4.0, -1.0, (4, count))
        ds = np.stack([-cells[0] - cells[1], -cells[1], cells[2],
                       cells[2] + cells[3]])
        du = (rng.normal(size=count) * ds
              + rng.normal(size=(4, count)) * ds ** 2)
        eta = 1e-6
        extreme = rng.normal(size=count) * 10.0
        if side == "below":
            m = extreme - np.abs(rng.normal(size=count))
            lowest, highest = extreme, np.full(count, -np.inf)
        else:
            m = extreme + np.abs(rng.normal(size=count))
            lowest, highest = np.full(count, np.inf), extreme
        ends = np.stack(_slope_window(ds, du, eta, lowest, highest, 0.0))
        # steps of the rounding unit of the terms of each node's window
        unit = np.finfo(float).eps * np.max(
            np.abs(du / ds) + eta / np.abs(ds)
            + np.abs(ds) * np.abs(extreme) / 2.0, axis=0)
        steps = np.arange(-20, 21)[None, :] * unit[:, None]
        P = np.concatenate([ends[0][:, None] + steps,
                            ends[1][:, None] + steps], axis=1)
        scale = (np.max(np.abs(du / ds)) + np.max(np.abs(P))
                 + eta / np.min(np.abs(ds))
                 + np.max(np.abs(ds)) * np.max(np.abs(extreme)) / 2.0)
        lo, hi = _slope_window(ds, du, eta, lowest, highest, scale)
        stencil = [(offset, ds[row][:, None], du[row][:, None])
                   for row, offset in enumerate((-2, -1, 1, 2))]
        below, above = _touching_bounds(P, m[:, None], stencil, eta)
        admitted = (below >= extreme[:, None] if side == "below"
                    else above <= extreme[:, None])
        assert not np.any(admitted & ((P < lo[:, None]) | (P > hi[:, None])))
        # the ends are sharp: where the window is not empty, admitted and
        # rejected slopes lie within 20 rounding units of each end
        full = ends[0] < ends[1]
        assert full.sum() > count / 4
        for part in (admitted[full, :41], admitted[full, 41:]):
            assert np.all(part.any(axis=1) & ~part.all(axis=1))

    @pytest.mark.parametrize("seed", range(8))
    def test_touching_and_operator_are_monotone_in_curvature(self, seed):
        # the facts check_viscosity rests on, in floating point.  Touching:
        # on every (node, slope, curvature) triple of the families of
        # random profiles 8 seed .. 8 seed + 7 (0-63 over the eight runs),
        # the closed-form bounds admit exactly the triples that
        # reference_viscosity's predicate admits.  H is nondecreasing in Q
        # over the sorted curvature families
        for case in range(8 * seed, 8 * seed + 8):
            u, op, _ = _random_viscosity_case(case)
            r, P, Q, m, stencil, eta = _sorted_paraboloid_families(u, op)
            below, above = _reference_touching(P, Q, m, stencil, eta)
            lo, hi = _touching_bounds(P, m, stencil, eta)
            assert below.shape == (len(r), 19, 18)
            assert below.any() and above.any()
            assert np.array_equal(Q <= lo, below)
            assert np.array_equal(Q >= hi, above)
        u, op, _ = _random_viscosity_case(seed)
        r, P, Q, _, _, _ = _sorted_paraboloid_families(u, op)
        hvals = eval_radial_many(op, r, P, Q)
        assert np.all(np.isfinite(hvals))
        assert np.all(hvals[..., 1:] >= hvals[..., :-1])

    def test_extreme_curvature_next_to_the_node_bound(self):
        # bounds a few ulps either side of family values, so that rounding
        # decides the pick: it must be what comparing every family value
        # with the bound picks, from below and, through the mirrored
        # family as check_viscosity uses it, from above.  Besides bounds
        # next to a node's own values: next to a shared value, a node's own
        # value equal to a shared one, m on the bound, no value touching and
        # every value touching
        rng = np.random.default_rng(7)
        rows = np.arange(300)
        for case in ("own", "near-shared", "shared", "m", "none",
                     "all") * 20:
            m = rng.normal(size=300) * 10.0 ** rng.uniform(-2.0, 2.0, 300)
            # an integer m with |m| >= 1 makes m - s an exact zero
            m[::5] = np.round(m[::5])
            s = np.maximum(np.abs(m), 1.0)
            own = np.where(_LOCAL_COEFS == 0.0, m[:, None],
                           m[:, None] + _LOCAL_COEFS * s[:, None])
            shared = np.sort(rng.normal(size=9) * 10.0)
            bound = own[rows, rng.integers(9, size=300)]
            if case == "near-shared":
                bound = shared[rng.integers(9, size=300)]
            elif case == "shared":
                shared = np.sort(own[rng.integers(300, size=9),
                                     rng.integers(9, size=9)])
            elif case == "m":
                bound = m.copy()
            elif case == "none":
                bound = np.minimum(shared[0], own[:, 0])
            elif case == "all":
                bound = np.maximum(shared[-1], own[:, -1])
            for _ in range(3):
                step = {"none": -1, "all": 1}.get(
                    case, rng.integers(-1, 2, size=300))
                bound = np.nextafter(bound, bound + step)
            family = np.concatenate(
                [np.broadcast_to(shared, (300, 9)), own], axis=1)
            below = _largest_at_most(bound, shared, m, s)
            above = -_largest_at_most(-bound, -shared[::-1], -m, s)
            assert np.array_equal(below, np.where(
                family <= bound[:, None], family, -np.inf).max(axis=1))
            assert np.array_equal(above, np.where(
                family >= bound[:, None], family, np.inf).min(axis=1))
            if case == "none":
                assert np.all(below == -np.inf)
            elif case == "all":
                assert np.all(above == np.inf)

    def test_large_gamma_barrier_near_origin(self):
        # gamma = (A/a)(N-1)(1+alpha) = 100: near the origin of a graded
        # ball r_i**gamma underflows, so the barrier must not be formed
        # from separate powers of r_i and s_j
        op = OperatorSpec.pucci_plus(4.0, 1.0, 5.0, 5)
        gamma, _ = gamma_exponent(op)
        assert gamma == 100.0
        _, c = closed_form_pucci_power(op)
        grid = RadialGrid.for_domain(Domain.ball(1.0), 6400,
                                     Grading.GRADED_AT_ORIGIN)
        u = DiscreteRadialFunction(grid, pucci_power_profile(op)(grid.nodes))
        got, _, columns = assert_flux_matches_pairs(
            u, op, SourceFunction.constant(c))
        for check, col in zip(got.checks[1:], columns[1:]):
            (j,) = np.flatnonzero(col["s"] == check.location)
            assert grid.nodes[col["left"][j]] ** gamma == 0.0
            assert check.location ** gamma == 0.0

    @pytest.mark.parametrize("mmax", [0.0, 1e-3, 0.25, 1.0, 3.7, 1e5])
    def test_curvature_family_matches_unique(self, mmax):
        # one zero, the -0.0 that np.unique keeps of the two halves
        pos = _chebyshev(0.0, max(4.0 * mmax, 1.0),
                         (VISCOSITY_CURVATURES + 1) // 2)
        want = np.unique(np.concatenate([-pos[::-1], pos]))
        got = _curvature_family(mmax)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.count_nonzero(got == 0.0) == 1

    def test_median_matches_numpy(self):
        rng = np.random.default_rng(13)
        for size in (1, 2, 3, 4, 7, 10, 101, 1000):
            for values in (rng.normal(size=size),
                           np.abs(rng.normal(size=size)) * 1e300,
                           rng.integers(0, 3, size=size).astype(float)):
                assert (np.float64(_median(values)).tobytes()
                        == np.median(values).tobytes())

    def test_trapezoid_helper_matches_scipy(self):
        for n in (201, 1601):
            x = np.linspace(0.0, 1.0, n) ** 1.5
            y = np.sin(7.0 * x) - 0.3
            assert np.array_equal(
                _cumulative_trapezoid(y, x),
                np.concatenate([[0.0], cumulative_trapezoid(y, x)]))

    def test_peak_memory_is_bounded(self):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        f = SourceFunction.constant(6.75)
        u = sampled(lambda r: r ** 1.5 + r, n=6400)
        tracemalloc.start()
        try:
            verify_flux_inequalities(u, op, f)
            check_viscosity(u, op, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
