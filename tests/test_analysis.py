import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from radelliptic.analysis import (_BLOCK_ELEMS, Sign, _as_function,
                                  _chebyshev, _cumulative_trapezoid,
                                  c1_bound_check, c1_modulus_report,
                                  check_viscosity, epsilon_aA, gamma_exponent,
                                  holder_exponent, sign_intervals,
                                  verify_flux_inequalities)
from radelliptic.errors import (InsufficientData, InvalidSpec, NotAZero,
                                NotConverged)
from radelliptic.grid import (DiscreteRadialFunction, Domain, Grading,
                              RadialGrid, interior_quotients,
                              lipschitz_constant)
from radelliptic.operators import (OperatorSpec, closed_form_pucci_power,
                                   eval_radial_many, pucci_power_profile)
from radelliptic.report import VerificationReport
from radelliptic.solver import Solution, SourceFunction, solve_dirichlet


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


class TestFluxInequalities:
    def test_pucci_power_passes(self, pucci_case):
        op, f, sol, _ = pucci_case
        report = verify_flux_inequalities(sol, op, f, threshold=0.05)
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
                                          SourceFunction.constant(-6.75),
                                          threshold=0.05)
        assert report.all_passed, [c.as_dict() for c in report.failures()]
        names = {c.name for c in report.checks}
        assert {"eqC", "eqD[loose]", "eqD[tight]"} <= names

    def test_vacuous_on_flat_profile(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        u = sampled(lambda r: np.ones_like(r))
        report = verify_flux_inequalities(u, op, SourceFunction.constant(0.0),
                                          threshold=1e-3)
        assert [c.name for c in report.checks] == ["flux[vacuous]"]
        assert report.all_passed

    def test_eqA_margin_matches_brute_force(self, pucci_case):
        op, f, sol, _ = pucci_case
        report = verify_flux_inequalities(sol, op, f, threshold=0.05)
        got = next(c for c in report.checks if c.name == "eqA").margin

        # independent all-pairs oracle on the same interval
        u = sol.u
        nodes = u.grid.nodes
        itv = sign_intervals(u, 0.05)[0]
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

    def test_unconverged_solution_rejected(self, pucci_case):
        op, f, sol, _ = pucci_case
        bad = Solution(sol.u, 1.0, 1e-8, 1, converged=False)
        with pytest.raises(NotConverged):
            verify_flux_inequalities(bad, op, f, threshold=0.05)


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

    def test_family_sizes_validated(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        u = sampled(lambda r: r)
        with pytest.raises(InvalidSpec):
            check_viscosity(u, op, SourceFunction.constant(0.0), slopes=2)
        with pytest.raises(InvalidSpec):
            check_viscosity(u, op, SourceFunction.constant(0.0), curvatures=1)


class TestHolder:
    def test_pucci_power_alpha_one(self, pucci_case):
        _, _, sol, _ = pucci_case
        est = holder_exponent(sol, 0.0, decades=1.5)
        assert est.beta_fit == pytest.approx(0.5, abs=0.025)
        assert est.r_star == 0.0

    def test_smooth_profile_linear_rate(self):
        u = sampled(lambda r: r ** 2, n=2000)
        est = holder_exponent(u, 0.0, decades=1.5)
        assert est.beta_fit == pytest.approx(1.0, abs=0.01)

    def test_interior_zero(self):
        u = sampled(lambda r: (r - 0.5) ** 2, n=2000)
        est = holder_exponent(u, 0.5, decades=1.0)
        assert est.beta_fit == pytest.approx(1.0, abs=0.02)
        assert est.r_star == pytest.approx(0.5)

    def test_not_a_zero(self):
        u = sampled(lambda r: r, n=200)
        with pytest.raises(NotAZero):
            holder_exponent(u, 0.5)

    def test_insufficient_data(self):
        u = sampled(lambda r: r ** 2, n=4)
        with pytest.raises((InsufficientData, NotAZero)):
            holder_exponent(u, 0.0, decades=1.0)

    def test_decades_validated(self, pucci_case):
        _, _, sol, _ = pucci_case
        with pytest.raises(InvalidSpec):
            holder_exponent(sol, 0.0, decades=0.5)


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
        report = c1_modulus_report(u, alpha=0.0, stride=10)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["interlace[Lg-ld]"].passed
        assert by_name["interlace[Lg-ld]"].margin == pytest.approx(-2.0,
                                                                   abs=1e-8)


# -- blocked certification against the per-node loops it replaced -----------

def reference_flux(u, op, f, threshold):
    """Per-left-endpoint loop form of verify_flux_inequalities."""
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

    report = VerificationReport(
        tolerance_model="10*(h^(1/(1+alpha)) + residual_sup); "
                        "tight barrier reading advisory at the same tolerance")
    intervals = sign_intervals(profile, threshold)
    for itv in intervals:
        increasing = itv.sign is Sign.POSITIVE
        weights = (op.a, op.A) if increasing else (op.A, op.a)
        eps_cum = np.concatenate([[0.0], cumulative_trapezoid(
            epsilon_aA(fvals, *weights), nodes)])
        idx = np.arange(itv.i_lo, itv.i_hi + 1)
        worst = {key: (np.inf, nodes[idx[0]])
                 for key in ("integral", "loose", "tight")}
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
        side, bar = ("eqA", "eqB") if increasing else ("eqC", "eqD")
        report.add(side, worst["integral"][1], worst["integral"][0], tol)
        report.add(bar + "[loose]", worst["loose"][1], worst["loose"][0], tol)
        report.add(bar + "[tight]", worst["tight"][1], worst["tight"][0], tol)
    if not intervals:
        report.add("flux[vacuous]", float(nodes[0]), np.inf, tol)
    return report


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
        if nodes[i] <= 0.0 or abs(q_int[i - 1]) < slope_floor:
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

    report = VerificationReport(
        tolerance_model="10*h^(1/(1+alpha)) + 10*residual_sup")
    report.add("viscosity[supersolution]", worst_super[1], worst_super[0], tol)
    report.add("viscosity[subsolution]", worst_sub[1], worst_sub[0], tol)
    return report


def _certification_cases():
    dyadic = RadialGrid.for_domain(Domain.ball(1.0), 256)
    cases = {
        # slope 2 at the origin: node 1 is tested with its 4-node stencil
        "graded-ball": (
            sampled(lambda r: 2.0 * r + r ** 2, n=150,
                    grading=Grading.GRADED_AT_ORIGIN),
            OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2),
            SourceFunction.constant(6.75), 0.05),
        "annulus": (
            DiscreteRadialFunction(
                RadialGrid.for_domain(Domain.annulus(0.5, 1.0), 120),
                np.sin(3.0 * np.pi * np.linspace(0.5, 1.0, 121))),
            OperatorSpec.pucci_minus(0.0, 1.0, 3.0, 3),
            SourceFunction.expression("sine", amplitude=2.0, frequency=5.0),
            0.1),
        # a monotone run longer than one block in both checks
        "multi-block": (
            sampled(lambda r: r ** 1.5 + 0.3 * r, n=300),
            OperatorSpec.trace_normal_mix(0.5, 1.0, 0.5, 2),
            SourceFunction.constant(2.0), 1e-3),
        # exactly representable linear profile in dim 1: every node ties, and
        # the flux pairs (i, i+1) tie across several blocks
        "tied": (
            DiscreteRadialFunction(dyadic, 2.0 * dyadic.nodes),
            OperatorSpec.pucci_plus(0.0, 1.0, 2.0, 1),
            SourceFunction.constant(1.0), 0.1),
    }
    for alpha in (-0.5, 0.0, 2.0):
        cases[f"alpha={alpha:g}"] = (
            sampled(lambda r: np.cos(2.5 * r) + r ** 3, n=160,
                    grading=Grading.GRADED_AT_ORIGIN),
            OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2),
            SourceFunction.expression("step", left=-1.0, right=3.0), 0.05)
    return cases


CERTIFICATION_CASES = _certification_cases()


class TestBlockedCertification:
    @pytest.mark.parametrize("name", sorted(CERTIFICATION_CASES))
    def test_flux_matches_loop(self, name):
        u, op, f, threshold = CERTIFICATION_CASES[name]
        got = verify_flux_inequalities(u, op, f, threshold).as_dict()
        assert got == reference_flux(u, op, f, threshold).as_dict()

    @pytest.mark.parametrize("name", sorted(CERTIFICATION_CASES))
    def test_viscosity_matches_loop(self, name):
        u, op, f, _ = CERTIFICATION_CASES[name]
        assert (check_viscosity(u, op, f).as_dict()
                == reference_viscosity(u, op, f).as_dict())

    def test_solved_and_perturbed_profiles_match_loop(self, pucci_case):
        op, f, sol, _ = pucci_case
        bumped = DiscreteRadialFunction(
            sol.u.grid, sol.u.values
            + 0.02 * np.sin(40.0 * sol.u.grid.nodes) * sol.u.grid.nodes)
        for u in (sol, bumped):
            assert (verify_flux_inequalities(u, op, f, 0.05).as_dict()
                    == reference_flux(u, op, f, 0.05).as_dict())
            assert (check_viscosity(u, op, f).as_dict()
                    == reference_viscosity(u, op, f).as_dict())
        assert not check_viscosity(bumped, op, f).all_passed
        assert not verify_flux_inequalities(bumped, op, f, 0.05).all_passed

    def test_multi_block_case_spans_blocks(self):
        u, _, _, threshold = CERTIFICATION_CASES["multi-block"]
        (itv,) = sign_intervals(u, threshold)
        length = itv.i_hi - itv.i_lo + 1
        rows = _BLOCK_ELEMS // length
        assert length - 1 > rows and (length - 1) % rows != 0

    def test_ties_report_first_node(self):
        u, op, f, threshold = CERTIFICATION_CASES["tied"]
        nodes = u.grid.nodes
        for check in check_viscosity(u, op, f).checks:
            assert check.location == nodes[1]
        eqA = verify_flux_inequalities(u, op, f, threshold).checks[0]
        assert (eqA.name, eqA.location) == ("eqA", nodes[2])

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
            verify_flux_inequalities(u, op, f, threshold=1e-3)
            check_viscosity(u, op, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
