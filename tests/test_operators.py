import json

import numpy as np
import pytest

from radelliptic.errors import InvalidSpec, NonPositiveRadius
from radelliptic.operators import (OperatorSpec, RadialJet, Variant,
                                   closed_form_alpha_laplacian,
                                   closed_form_pucci_power, eval_radial,
                                   eval_radial_many, pucci_power_profile,
                                   sandwich_bounds, validate_hypotheses)


def dense_pucci(a, A, alpha, dim, r, q, m):
    """Oracle: assemble the radial Hessian eigenvalues and apply the
    extremal formula directly."""
    eigs = np.array([m] + [q / r] * (dim - 1))
    val = A * np.sum(np.maximum(eigs, 0)) - a * np.sum(np.maximum(-eigs, 0))
    return abs(q) ** alpha * val


class TestEvalRadial:
    def test_pucci_plus_dense_oracle(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 2.0, 3)
        jet = RadialJet(r=1.0, q=2.0, m=-1.0)
        assert eval_radial(op, jet) == pytest.approx(7.0, abs=1e-14)

    def test_zero_gradient_kills_value(self):
        for op in (OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 3),
                   OperatorSpec.alpha_laplacian(2.0, 2),
                   OperatorSpec.trace_normal_mix(0.5, 1.0, -0.5, 2)):
            assert eval_radial(op, RadialJet(1.0, 0.0, 5.0)) == 0.0

    def test_alpha_laplacian_expansion(self):
        op = OperatorSpec.alpha_laplacian(2.0, 2)
        assert eval_radial(op, RadialJet(1.0, 1.0, 1.0)) == pytest.approx(4.0)

    def test_nonpositive_radius_rejected(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 2.0, 3)
        with pytest.raises(NonPositiveRadius):
            eval_radial(op, RadialJet(0.0, 1.0, 1.0))
        with pytest.raises(NonPositiveRadius):
            eval_radial(op, RadialJet(-1.0, 1.0, 1.0))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
    def test_matches_dense_oracle_on_random_jets(self, alpha):
        rng = np.random.default_rng(7)
        op = OperatorSpec.pucci_plus(alpha, 0.7, 2.3, 4)
        for _ in range(200):
            r = rng.uniform(1e-3, 10.0)
            q = rng.normal() * 10 ** rng.uniform(-3, 3)
            m = rng.normal() * 10 ** rng.uniform(-3, 3)
            want = dense_pucci(0.7, 2.3, alpha, 4, r, q, m)
            got = eval_radial(op, RadialJet(r, q, m))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_pucci_duality(self):
        rng = np.random.default_rng(3)
        plus = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 3)
        minus = OperatorSpec.pucci_minus(1.0, 1.0, 2.0, 3)
        for _ in range(100):
            r = rng.uniform(0.1, 5.0)
            q = rng.normal()
            m = rng.normal()
            lhs = eval_radial(minus, RadialJet(r, q, m))
            rhs = -eval_radial(plus, RadialJet(r, -q, -m))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


class TestSandwich:
    def test_zero_gradient_gives_zero_pair(self):
        op = OperatorSpec.alpha_laplacian(0.0, 2)
        lo, hi = sandwich_bounds(op, RadialJet(1.0, 0.0, 3.0))
        assert lo <= hi
        # the |q|^alpha factor vanishes in the q-dependent terms
        assert lo <= eval_radial(op, RadialJet(1.0, 0.0, 3.0)) <= hi

    def test_pucci_membership_example(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 2.0, 2)
        jet = RadialJet(1.0, 1.0, 1.0)
        lo, hi = sandwich_bounds(op, jet)
        val = eval_radial(op, jet)
        assert val == pytest.approx(4.0)
        assert lo <= 4.0 <= hi

    def test_alpha_laplacian_membership_example(self):
        op = OperatorSpec.alpha_laplacian(2.0, 2)
        jet = RadialJet(1.0, 1.0, 1.0)
        lo, hi = sandwich_bounds(op, jet)
        assert lo <= eval_radial(op, jet) <= hi

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
        for i in range(n):
            jet = RadialJet(r[i], q[i], m[i])
            lo, hi = sandwich_bounds(op, jet)
            val = eval_radial(op, jet)
            slack = 1e-12 * max(1.0, abs(val))
            assert lo - slack <= val <= hi + slack


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


class TestHypotheses:
    @pytest.mark.parametrize("make_op", [
        lambda: OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 3),
        lambda: OperatorSpec.pucci_minus(2.0, 0.5, 3.0, 2),
        lambda: OperatorSpec.alpha_laplacian(1.5, 3),
        lambda: OperatorSpec.trace_normal_mix(0.5, 1.0, -0.5, 2),
    ])
    def test_all_variants_clean(self, make_op):
        report = validate_hypotheses(make_op(), 10_000, seed=1234)
        assert report.all_passed, [c.as_dict() for c in report.failures()]

    # H2 bounds the increment by [a, A] |q|^alpha s; for alpha < 0 the
    # factor |q|^alpha is far from 1
    @pytest.mark.parametrize("alpha", [-0.75, -0.5])
    @pytest.mark.parametrize("make_op", [
        lambda alpha: OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 3),
        lambda alpha: OperatorSpec.pucci_minus(alpha, 0.5, 3.0, 2),
        lambda alpha: OperatorSpec.alpha_laplacian(alpha, 3),
        lambda alpha: OperatorSpec.trace_normal_mix(alpha, 1.0, -0.5, 2),
    ])
    def test_h1_h2_hold_for_negative_alpha(self, make_op, alpha):
        report = validate_hypotheses(make_op(alpha), 10_000, seed=1234)
        assert [c.name for c in report.checks] == ["H1", "H2"]
        assert report.all_passed, [c.as_dict() for c in report.failures()]

    def test_h4_reported_when_modulus_given(self):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2, nu=4.0, kappa=1.0)
        report = validate_hypotheses(op, 500, seed=0)
        assert any(c.name == "H4" for c in report.checks)

    def test_sample_count_validated(self):
        op = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
        with pytest.raises(InvalidSpec):
            validate_hypotheses(op, 0, seed=0)


class TestSpecValidation:
    def test_ellipticity_order_enforced(self):
        with pytest.raises(InvalidSpec):
            OperatorSpec.pucci_plus(0.0, 2.0, 1.0, 2)
        with pytest.raises(InvalidSpec):
            OperatorSpec.pucci_plus(0.0, -1.0, 1.0, 2)

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
        op = OperatorSpec.trace_normal_mix(0.5, 1.0, -0.25, 3, nu=2.0, kappa=0.75)
        doc = op.to_json_dict()
        text = json.dumps(doc)
        back = OperatorSpec.from_json_dict(json.loads(text))
        assert back == op

    def test_json_omits_absent_optionals(self):
        doc = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2).to_json_dict()
        assert "nu" not in doc and "kappa" not in doc
        assert doc["variant"] == Variant.PUCCI_PLUS.value
