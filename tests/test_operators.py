import dataclasses
import json
import warnings

import numpy as np
import pytest

from radelliptic import operators
from radelliptic.errors import InvalidSpec
from radelliptic.operators import (OperatorSpec, closed_form_alpha_laplacian,
                                   closed_form_pucci_power, eval_radial_many,
                                   pucci_power_profile, validate_hypotheses)


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

    # past alpha = 200/9 the jet decades shrink, so both sides of (H1)
    # and (H2) stay finite; at alpha = 1e6 the rounding of t q, raised to
    # the power alpha, passes 1e-10 and (H1) needs its alpha eps tolerance
    @pytest.mark.parametrize("alpha", [40.0, 60.0, 100.0, 1e6])
    @pytest.mark.parametrize("make_op", [
        lambda alpha: OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2),
        lambda alpha: OperatorSpec.pucci_minus(alpha, 0.5, 3.0, 3),
        lambda alpha: OperatorSpec.alpha_laplacian(alpha, 3),
        lambda alpha: OperatorSpec.trace_normal_mix(alpha, 1.0, -0.5, 2),
    ])
    def test_large_alpha_margins_are_finite(self, make_op, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = validate_hypotheses(make_op(alpha), 2000, seed=0)
        assert [c.name for c in report.checks] == ["H1", "H2"]
        assert all(np.isfinite(c.margin) for c in report.checks)
        assert report.all_passed, [c.as_dict() for c in report.failures()]

    @staticmethod
    def _non_homogeneous_h1(monkeypatch, alpha):
        monkeypatch.setattr(operators, "_degenerate_factor",
                            lambda q, alpha: np.abs(q) ** alpha
                            * (1.0 + np.abs(q)))
        op = OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = validate_hypotheses(op, 2000, seed=0)
        return next(c for c in report.checks if c.name == "H1")

    def test_non_homogeneous_factor_fails_h1_at_large_alpha(self,
                                                            monkeypatch):
        h1 = self._non_homogeneous_h1(monkeypatch, 40.0)
        assert np.isfinite(h1.margin) and not h1.passed

    # the alpha eps tolerance of (H1) does not hide a factor that is off
    # by (1 + |q|)
    def test_non_homogeneous_factor_fails_h1_at_huge_alpha(self,
                                                           monkeypatch):
        h1 = self._non_homogeneous_h1(monkeypatch, 1e6)
        assert np.isfinite(h1.margin) and not h1.passed

    def test_h4_reported_when_modulus_given(self):
        op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2, nu=4.0, kappa=1.0)
        report = validate_hypotheses(op, 500, seed=0)
        assert any(c.name == "H4" for c in report.checks)

    # |p|^alpha is not Lipschitz with constant nu = 4 near |p| = 1 for
    # alpha >= 5, so (H4) fails; past alpha = 200/9 its gradient step
    # shrinks, which keeps |1 + dq|^alpha finite.  Below that the draws do
    # not depend on alpha: the alpha = 5 margin is the one written before
    # the step shrank
    @pytest.mark.parametrize("alpha", [5.0, 2000.0])
    def test_h4_fails_with_a_finite_margin(self, alpha):
        op = OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2, nu=4.0, kappa=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = validate_hypotheses(op, 2000, seed=0)
        h4 = next(c for c in report.checks if c.name == "H4")
        assert np.isfinite(h4.margin) and not h4.passed
        if alpha == 5.0:
            assert h4.margin == -10.04652627712055

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

    def test_bool_parameters_rejected(self):
        # read like a config's numbers: a bool is not one, nor is 2.9 a dim
        with pytest.raises(InvalidSpec) as info:
            OperatorSpec.pucci_plus(True, True, 2.0, 2.9)
        assert str(info.value) == "alpha must be a finite number, got True"
        with pytest.raises(InvalidSpec) as info:
            OperatorSpec.pucci_plus(0.0, 1.0, 2.0, 2.9)
        assert str(info.value) == "dim must be an integer, got 2.9"

    def test_nan_alpha_rejected(self):
        with pytest.raises(InvalidSpec) as info:
            OperatorSpec.pucci_plus(float("nan"), 1.0, 2.0, 2)
        assert str(info.value) == "alpha must be a finite number, got nan"

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
