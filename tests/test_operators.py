import dataclasses
import json

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from radelliptic import operators
from radelliptic.errors import InvalidSpec
from radelliptic.operators import (OperatorSpec, closed_form_alpha_laplacian,
                                   closed_form_pucci_power, eval_radial_many,
                                   pucci_power_profile, validate_hypotheses)
from structure import TOLERANCE, h1_defect, h2_defect, jets


def dense_pucci(a, A, alpha, dim, r, q, m):
    """Oracle: assemble the radial Hessian eigenvalues and apply the
    extremal formula directly."""
    eigs = np.array([m] + [q / r] * (dim - 1))
    val = A * np.sum(np.maximum(eigs, 0)) - a * np.sum(np.maximum(-eigs, 0))
    return abs(q) ** alpha * val


def pucci_envelopes(op, r, q, m):
    """Oracle: the envelopes (lower, upper) with lower <= H <= upper, the
    Pucci operators of the pair (a, A) on the radial Hessian eigenvalues m
    and q/r, times |q|^alpha."""
    lam_pos = np.maximum(m, 0.0) + (op.dim - 1) * np.maximum(q, 0.0) / r
    lam_neg = np.maximum(-m, 0.0) + (op.dim - 1) * np.maximum(-q, 0.0) / r
    factor = np.abs(q) ** op.alpha
    return (factor * (op.a * lam_pos - op.A * lam_neg),
            factor * (op.A * lam_pos - op.a * lam_neg))


class TestEvalRadial:
    def test_pucci_plus_dense_oracle(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 2.0, 3)
        got = eval_radial_many(op, [1.0], [2.0], [-1.0])
        assert got.shape == (1,)
        assert got[0] == pytest.approx(7.0, abs=1e-14)

    def test_zero_gradient_kills_value(self):
        for op in (OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 3),
                   OperatorSpec.alpha_laplacian(2.0, 2),
                   OperatorSpec.trace_normal_mix(0.5, 1.0, -0.5, 2)):
            assert eval_radial_many(op, [1.0], [0.0], [5.0])[0] == 0.0

    def test_alpha_laplacian_expansion(self):
        op = OperatorSpec.alpha_laplacian(2.0, 2)
        got = eval_radial_many(op, [1.0], [1.0], [1.0])
        assert got[0] == pytest.approx(4.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
    def test_matches_dense_oracle_on_random_jets(self, alpha):
        rng = np.random.default_rng(7)
        op = OperatorSpec.pucci_plus(alpha, 0.7, 2.3, 4)
        r = rng.uniform(1e-3, 10.0, 200)
        q = rng.normal(size=200) * 10 ** rng.uniform(-3, 3, 200)
        m = rng.normal(size=200) * 10 ** rng.uniform(-3, 3, 200)
        got = eval_radial_many(op, r, q, m)
        for k in range(200):
            want = dense_pucci(0.7, 2.3, alpha, 4, r[k], q[k], m[k])
            assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_pucci_duality(self):
        rng = np.random.default_rng(3)
        plus = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 3)
        minus = OperatorSpec.pucci_minus(1.0, 1.0, 2.0, 3)
        r = rng.uniform(0.1, 5.0, 100)
        q = rng.normal(size=100)
        m = rng.normal(size=100)
        lhs = eval_radial_many(minus, r, q, m)
        rhs = -eval_radial_many(plus, r, -q, -m)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


class TestSandwich:
    """H lies between the Pucci envelopes of its ellipticity pair."""

    def test_zero_gradient_gives_zero_pair(self):
        op = OperatorSpec.alpha_laplacian(0.0, 2)
        lo, hi = pucci_envelopes(op, 1.0, 0.0, 3.0)
        assert lo <= hi
        # the |q|^alpha factor vanishes in the q-dependent terms
        assert lo <= eval_radial_many(op, 1.0, 0.0, 3.0) <= hi

    def test_pucci_membership_example(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 2.0, 2)
        lo, hi = pucci_envelopes(op, 1.0, 1.0, 1.0)
        val = eval_radial_many(op, 1.0, 1.0, 1.0)
        assert val == pytest.approx(4.0)
        assert lo <= 4.0 <= hi

    def test_alpha_laplacian_membership_example(self):
        op = OperatorSpec.alpha_laplacian(2.0, 2)
        lo, hi = pucci_envelopes(op, 1.0, 1.0, 1.0)
        assert lo <= eval_radial_many(op, 1.0, 1.0, 1.0) <= hi

    @pytest.mark.parametrize("make_op", [
        lambda: OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 3),
        lambda: OperatorSpec.pucci_minus(0.5, 0.5, 1.5, 2),
        lambda: OperatorSpec.alpha_laplacian(2.0, 3),
        lambda: OperatorSpec.trace_normal_mix(1.5, 1.0, -0.5, 3),
    ])
    def test_sandwich_property_random_jets(self, make_op):
        op = make_op()
        rng = np.random.default_rng(11)
        n = 10_000
        r = rng.uniform(1e-3, 10.0, n)
        q = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
        m = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
        lo, hi = pucci_envelopes(op, r, q, m)
        val = eval_radial_many(op, r, q, m)
        slack = 1e-12 * np.maximum(1.0, np.abs(val))
        assert np.all(lo - slack <= val) and np.all(val <= hi + slack)


class TestClosedForms:
    @pytest.mark.parametrize("alpha,A,dim,want_expo,want_c", [
        (1.0, 2.0, 2, 1.5, 6.75),
        (0.0, 1.0, 1, 2.0, 2.0),
        (0.0, 1.0, 3, 2.0, 6.0),
    ])
    def test_pucci_power_constants(self, alpha, A, dim, want_expo, want_c):
        op = OperatorSpec.pucci_plus(alpha, 1.0, A, dim)
        expo, c = closed_form_pucci_power(op)
        assert expo == pytest.approx(want_expo)
        assert c == pytest.approx(want_c)

    def test_pucci_power_profile_solves_equation(self):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
        expo, c = closed_form_pucci_power(op)
        profile = pucci_power_profile(op)
        r = np.linspace(1e-3, 1.0, 1000)
        q = profile.derivative(r)
        m = expo * (expo - 1.0) * r ** (expo - 2.0)
        vals = eval_radial_many(op, r, q, m)
        assert np.max(np.abs(vals - c)) <= 1e-10 * abs(c)

    def test_pucci_power_wrong_variant(self):
        with pytest.raises(InvalidSpec):
            closed_form_pucci_power(OperatorSpec.alpha_laplacian(1.0, 2))

    def test_alpha_laplacian_n2_reduces_to_laplacian(self):
        op = OperatorSpec.alpha_laplacian(0.0, 2)
        g = closed_form_alpha_laplacian(op, 4.0)
        r = np.linspace(0.0, 1.0, 101)
        assert np.allclose(g(r), r ** 2, atol=1e-14)

    def test_alpha_laplacian_n1_cube_root(self):
        op = OperatorSpec.alpha_laplacian(2.0, 1)
        g = closed_form_alpha_laplacian(op, 1.0)
        r = np.linspace(0.0, 1.0, 101)
        assert np.allclose(g(r), 0.75 * r ** (4.0 / 3.0), rtol=1e-13)
        assert np.allclose(g.derivative(r[1:]), r[1:] ** (1.0 / 3.0), rtol=1e-13)

    def test_alpha_laplacian_zero_forcing(self):
        op = OperatorSpec.alpha_laplacian(1.5, 3)
        g = closed_form_alpha_laplacian(op, 0.0)
        assert np.all(g(np.linspace(0, 1, 11)) == 0.0)


# eight draws in [0, 1] make one jet of structure.jets
UNIT_JET = st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8)


def assert_h1_h2(op, unit):
    r, q, m, t, mu, s = jets(op.alpha, unit)
    assert h1_defect(op, r, q, m, t, mu) <= TOLERANCE
    assert h2_defect(op, r, q, m, s) <= TOLERANCE


def h4_width(alpha):
    """Half-width w of (H4)'s range of gradient steps [-w, w]."""
    return 0.5 * min(1.0, 200.0 / (9.0 * alpha)) if alpha > 0 else 0.5


def decoupled(op, m, t, g):
    """Oracle: the operator with gradient g, radial Hessian eigenvalue m
    and tangential eigenvalue t (N-1 times), the gradient decoupled from
    the Hessian."""
    cmp_, cmm, ctp, ctm = op.bracket_coefficients()
    bracket = (cmp_ * np.maximum(m, 0.0) - cmm * np.maximum(-m, 0.0)
               + (op.dim - 1) * (ctp * np.maximum(t, 0.0)
                                 - ctm * np.maximum(-t, 0.0)))
    return np.abs(g) ** op.alpha * bracket


def dense_h4_sup(op, points=20_001):
    """The largest |F(1+x) - F(1)| / |x|^kappa over a dense grid of steps x
    (both ends included) and the corners of the unit (m, t) box."""
    w = h4_width(op.alpha)
    x = np.linspace(-w, w, points)
    x = x[x != 0.0]
    corners = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]
    return max(np.max(np.abs(decoupled(op, m, t, 1.0 + x)
                             - decoupled(op, m, t, 1.0))
                      / np.abs(x) ** op.kappa) for m, t in corners)


def sampled_h4_margin(op, samples=2000, seed=0):
    """(H4)'s margin on seeded random jets: Hessian eigenvalues in the
    unit box, gradient +-1 and a step in [-w, w]."""
    rng = np.random.default_rng(seed)
    m, t = rng.uniform(-1.0, 1.0, (2, samples))
    g = rng.choice([-1.0, 1.0], samples)
    x = rng.uniform(-1.0, 1.0, samples) * h4_width(op.alpha)
    lhs = np.abs(decoupled(op, m, t, g + x) - decoupled(op, m, t, g))
    bound = op.nu * np.abs(x) ** op.kappa * np.maximum(np.abs(m), np.abs(t))
    return 1.0 - float(np.max(lhs / bound))


def modulus_op(variant, alpha, dim, nu, kappa):
    return [OperatorSpec.pucci_plus(alpha, 1.0, 2.0, dim, nu=nu, kappa=kappa),
            OperatorSpec.pucci_minus(alpha, 0.5, 3.0, dim, nu=nu, kappa=kappa),
            OperatorSpec.alpha_laplacian(alpha, dim, nu=nu, kappa=kappa),
            OperatorSpec.trace_normal_mix(alpha, 1.0, -0.5, dim, nu=nu,
                                          kappa=kappa)][variant]


MODULUS_OPS = st.builds(
    modulus_op, st.integers(0, 3), st.floats(-0.99, 1e4), st.integers(1, 4),
    st.floats(0.01, 100.0), st.floats(0.5, 1.0, exclude_min=True))


class TestHypotheses:
    # (H1) and (H2) hold by construction, so validate_hypotheses does not
    # check them; these property tests check the construction
    @pytest.mark.parametrize("make_op", [
        lambda: OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 3),
        lambda: OperatorSpec.pucci_minus(2.0, 0.5, 3.0, 2),
        lambda: OperatorSpec.alpha_laplacian(1.5, 3),
        lambda: OperatorSpec.trace_normal_mix(0.5, 1.0, -0.5, 2),
    ])
    @given(unit=UNIT_JET)
    def test_all_variants_clean(self, make_op, unit):
        assert_h1_h2(make_op(), unit)

    # H2 bounds the increment by [a, A] |q|^alpha s; for alpha < 0 the
    # factor |q|^alpha is far from 1
    @pytest.mark.parametrize("alpha", [-0.75, -0.5])
    @pytest.mark.parametrize("make_op", [
        lambda alpha: OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 3),
        lambda alpha: OperatorSpec.pucci_minus(alpha, 0.5, 3.0, 2),
        lambda alpha: OperatorSpec.alpha_laplacian(alpha, 3),
        lambda alpha: OperatorSpec.trace_normal_mix(alpha, 1.0, -0.5, 2),
    ])
    @given(unit=UNIT_JET)
    def test_h1_h2_hold_for_negative_alpha(self, make_op, alpha, unit):
        assert_h1_h2(make_op(alpha), unit)

    # past alpha = 200/9 the jets' gradients shrink, so every operator
    # value stays finite; the scalings are exact, so the defects stay at
    # rounding even at alpha = 1e6
    @pytest.mark.parametrize("alpha", [40.0, 60.0, 100.0, 1e6])
    @pytest.mark.parametrize("make_op", [
        lambda alpha: OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2),
        lambda alpha: OperatorSpec.pucci_minus(alpha, 0.5, 3.0, 3),
        lambda alpha: OperatorSpec.alpha_laplacian(alpha, 3),
        lambda alpha: OperatorSpec.trace_normal_mix(alpha, 1.0, -0.5, 2),
    ])
    @given(unit=UNIT_JET)
    def test_large_alpha_margins_are_finite(self, make_op, alpha, unit):
        op = make_op(alpha)
        r, q, m, t, mu, s = jets(alpha, unit)
        assert np.isfinite(eval_radial_many(op, r * t / mu, t * q, mu * m))
        assert_h1_h2(op, unit)

    @staticmethod
    def _non_homogeneous_h1(monkeypatch, alpha):
        """A jet on which (H1)'s check catches a factor off by (1 + |q|)."""
        monkeypatch.setattr(operators, "_degenerate_factor",
                            lambda q, alpha: np.abs(q) ** alpha
                            * (1.0 + np.abs(q)))
        op = OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2)
        return find(UNIT_JET,
                    lambda unit: h1_defect(op, *jets(alpha, unit)[:5])
                    > TOLERANCE,
                    settings=settings(database=None, derandomize=True))

    def test_non_homogeneous_factor_fails_h1_at_large_alpha(self,
                                                            monkeypatch):
        self._non_homogeneous_h1(monkeypatch, 40.0)

    def test_non_homogeneous_factor_fails_h1_at_huge_alpha(self,
                                                           monkeypatch):
        self._non_homogeneous_h1(monkeypatch, 1e6)

    def test_h4_reported_when_modulus_given(self):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2, nu=4.0, kappa=1.0)
        assert [c.name for c in validate_hypotheses(op).checks] == ["H4"]
        assert validate_hypotheses(
            OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)).checks == []

    # |p|^alpha is not Lipschitz with constant nu = 4 near |p| = 1 for
    # alpha >= 5, so (H4) fails; past alpha = 200/9 its range of gradient
    # steps shrinks, which keeps |1 + x|^alpha finite.  At alpha = 5:
    # C = A + A = 4, S = (1.5^5 - 1) / 0.5 = 13.1875, 1 - C S / 4 = -12.1875
    @pytest.mark.parametrize("alpha", [5.0, 2000.0])
    def test_h4_fails_with_a_finite_margin(self, alpha):
        op = OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2, nu=4.0, kappa=1.0)
        h4, = validate_hypotheses(op).checks
        assert np.isfinite(h4.margin) and not h4.passed
        if alpha == 5.0:
            assert h4.margin == pytest.approx(-12.1875, rel=1e-14)
            assert h4.location == 0.5

    @settings(max_examples=60, deadline=None)
    @given(op=MODULUS_OPS)
    def test_h4_never_above_sampled_margin(self, op):
        h4, = validate_hypotheses(op).checks
        sampled = sampled_h4_margin(op)
        assert h4.margin <= sampled + 1e-12 * max(1.0, abs(sampled))

    @settings(max_examples=30, deadline=None)
    @given(op=MODULUS_OPS)
    def test_h4_matches_dense_evaluation(self, op):
        h4, = validate_hypotheses(op).checks
        dense = 1.0 - dense_h4_sup(op) / op.nu
        assert abs(h4.margin - dense) <= 1e-9 * max(1.0, abs(dense))

    # the check fails exactly when nu is below the sup C S
    @pytest.mark.parametrize("variant, alpha, dim, kappa", [
        (0, -0.5, 2, 0.75), (1, 0.5, 3, 0.6), (2, 1.0, 1, 1.0),
        (3, 5.0, 2, 0.9), (0, 2000.0, 4, 1.0)])
    def test_h4_fails_exactly_below_the_sup(self, variant, alpha, dim,
                                            kappa):
        sup = dense_h4_sup(modulus_op(variant, alpha, dim, 1.0, kappa))
        for factor, passed in [(1 + 1e-9, True), (1 - 1e-9, False)]:
            op = modulus_op(variant, alpha, dim, sup * factor, kappa)
            h4, = validate_hypotheses(op).checks
            assert h4.passed is passed, h4


class TestSpecValidation:
    def test_ellipticity_order_enforced(self):
        with pytest.raises(InvalidSpec):
            OperatorSpec.pucci_plus(0.0, 2.0, 1.0, 2)
        with pytest.raises(InvalidSpec):
            OperatorSpec.pucci_plus(0.0, -1.0, 1.0, 2)

    def test_bool_parameters_rejected(self):
        # read like a config's numbers: a bool is not one, nor is 2.9 a dim
        with pytest.raises(InvalidSpec) as info:
            OperatorSpec.pucci_plus(True, True, 2.0, 2.9)
        assert str(info.value) == ("operator.alpha must be a finite "
                                   "number, got True")
        with pytest.raises(InvalidSpec) as info:
            OperatorSpec.pucci_plus(0.0, 1.0, 2.0, 2.9)
        assert str(info.value) == "operator.dim must be an integer, got 2.9"

    def test_nan_alpha_rejected(self):
        with pytest.raises(InvalidSpec) as info:
            OperatorSpec.pucci_plus(float("nan"), 1.0, 2.0, 2)
        assert str(info.value) == ("operator.alpha must be a finite "
                                   "number, got nan")

    def test_trace_normal_mix_constraints(self):
        with pytest.raises(InvalidSpec):
            OperatorSpec.trace_normal_mix(0.0, -1.0, 0.5, 2)
        with pytest.raises(InvalidSpec):
            OperatorSpec.trace_normal_mix(0.0, 1.0, -1.5, 2)

    def test_alpha_laplacian_induced_constants(self):
        op = OperatorSpec.alpha_laplacian(2.0, 2)
        assert op.a == pytest.approx(1.0)
        assert op.A == pytest.approx(3.0)
        shrink = OperatorSpec.alpha_laplacian(-0.5, 2)
        assert shrink.a == pytest.approx(0.5)
        assert shrink.A == pytest.approx(1.0)

    def test_trace_normal_mix_effective_constants(self):
        op = OperatorSpec.trace_normal_mix(0.0, 1.0, -0.5, 2)
        assert op.a == pytest.approx(0.5)
        assert op.A == pytest.approx(1.0)

    def test_json_round_trip(self):
        # the spec's fields as JSON text, the way a config holds them
        op = OperatorSpec.trace_normal_mix(0.5, 1.0, -0.25, 3, nu=2.0, kappa=0.75)
        text = json.dumps(dataclasses.asdict(op))
        back = OperatorSpec.from_json_dict(json.loads(text))
        assert back == op
