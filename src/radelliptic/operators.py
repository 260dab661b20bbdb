"""Degenerate elliptic operator families and their radial reduction.

All operators have the form |grad u|^alpha * (elliptic part of the Hessian)
and, on radial functions u(x) = g(|x|), reduce to a scalar relation
H(r, g'', g') built from the Hessian eigenvalues g'' (once) and g'/r
(N-1 times).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidSpec, config_number
from .report import VerificationReport


class Variant(str, enum.Enum):
    PUCCI_PLUS = "PucciPlus"
    PUCCI_MINUS = "PucciMinus"
    ALPHA_LAPLACIAN = "AlphaLaplacian"
    TRACE_NORMAL_MIX = "TraceNormalMix"


@dataclass(frozen=True)
class OperatorSpec:
    """Parameters of one operator from the supported family.

    For AlphaLaplacian and TraceNormalMix the ellipticity pair (a, A) is
    induced by the other parameters and is filled in automatically.
    """

    alpha: float
    a: float | None
    A: float | None
    dim: int
    variant: Variant
    p1: float | None = None
    p2: float | None = None
    nu: float | None = None
    kappa: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        if self.alpha <= -1:
            raise InvalidSpec("alpha must exceed -1")
        if self.dim < 1:
            raise InvalidSpec("dim must be a positive integer")
        if self.variant is Variant.ALPHA_LAPLACIAN:
            object.__setattr__(self, "a", min(1.0, 1.0 + self.alpha))
            object.__setattr__(self, "A", max(1.0, 1.0 + self.alpha))
        elif self.variant is Variant.TRACE_NORMAL_MIX:
            if self.p1 is None or self.p2 is None:
                raise InvalidSpec("TraceNormalMix requires p1 and p2")
            if self.p1 <= 0 or self.p1 + self.p2 <= 0:
                raise InvalidSpec("TraceNormalMix requires p1 > 0 and p1 + p2 > 0")
            object.__setattr__(self, "a", self.p1 + min(self.p2, 0.0))
            object.__setattr__(self, "A", self.p1 + max(self.p2, 0.0))
        if self.a is None or self.A is None:
            raise InvalidSpec("Pucci variants require explicit a and A")
        if not (self.a > 0 and self.A >= self.a):
            raise InvalidSpec("need a > 0 and A >= a")
        if self.nu is not None and self.nu <= 0:
            raise InvalidSpec("nu must be positive")
        if self.kappa is not None and not (0.5 < self.kappa <= 1.0):
            raise InvalidSpec("kappa must lie in (1/2, 1]")

    # -- convenience constructors ------------------------------------------

    @classmethod
    def pucci_plus(cls, alpha, a, A, dim, **kw):
        return cls(alpha, a, A, dim, Variant.PUCCI_PLUS, **kw)

    @classmethod
    def pucci_minus(cls, alpha, a, A, dim, **kw):
        return cls(alpha, a, A, dim, Variant.PUCCI_MINUS, **kw)

    @classmethod
    def alpha_laplacian(cls, alpha, dim, **kw):
        return cls(alpha, None, None, dim, Variant.ALPHA_LAPLACIAN, **kw)

    @classmethod
    def trace_normal_mix(cls, alpha, p1, p2, dim, **kw):
        return cls(alpha, None, None, dim, Variant.TRACE_NORMAL_MIX, p1=p1, p2=p2, **kw)

    # -- structure ---------------------------------------------------------

    def bracket_coefficients(self):
        """Coefficients (cmp, cmm, ctp, ctm) of the radial reduction.

        H(r, m, q) = |q|^alpha * [cmp*m+ - cmm*m-
                                  + (N-1)/r * (ctp*q+ - ctm*q-)]
        with x+ = max(x,0), x- = max(-x,0).
        """
        v = self.variant
        if v is Variant.PUCCI_PLUS:
            return self.A, self.a, self.A, self.a
        if v is Variant.PUCCI_MINUS:
            return self.a, self.A, self.a, self.A
        if v is Variant.ALPHA_LAPLACIAN:
            c = 1.0 + self.alpha
            return c, c, 1.0, 1.0
        c = self.p1 + self.p2
        return c, c, self.p1, self.p1

    def dual(self) -> "OperatorSpec":
        """The operator G with G[v] = -F[-v]."""
        if self.variant is Variant.PUCCI_PLUS:
            return replace(self, variant=Variant.PUCCI_MINUS)
        if self.variant is Variant.PUCCI_MINUS:
            return replace(self, variant=Variant.PUCCI_PLUS)
        return self

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_json_dict(cls, doc: dict) -> "OperatorSpec":
        """The operator of a config's ``operator`` section, each number
        read by ``config_number``; an optional one may be absent or null."""
        def optional(key):
            value = doc.get(key)
            return (None if value is None
                    else config_number(value, "operator." + key))

        return cls(
            alpha=config_number(doc["alpha"], "operator.alpha"),
            a=optional("a"),
            A=optional("A"),
            dim=config_number(doc["dim"], "operator.dim", int),
            variant=Variant(doc["variant"]),
            p1=optional("p1"),
            p2=optional("p2"),
            nu=optional("nu"),
            kappa=optional("kappa"),
        )


def _degenerate_factor(q, alpha):
    # |q|^alpha; for alpha = 0 it is 1 everywhere, since 0.0 ** 0.0 == 1.0
    return np.abs(q) ** alpha


def _bracket(coefs, m, t, c=None):
    """The operator without its degenerate factor.

    ``cmp*m+ - cmm*m- + c*(ctp*t+ - ctm*t-)`` for ``coefs = (cmp, cmm, ctp,
    ctm)``, a second derivative ``m``, a transport quotient ``t`` and its
    coefficient ``c`` ((N-1)/r or N-1); ``c=None`` leaves the transport term
    out.
    """
    cmp_, cmm, ctp, ctm = coefs
    bracket = cmp_ * np.maximum(m, 0.0) - cmm * np.maximum(-m, 0.0)
    if c is None:
        return bracket
    return bracket + c * (ctp * np.maximum(t, 0.0) - ctm * np.maximum(-t, 0.0))


def eval_radial_many(op: OperatorSpec, r, q, m):
    """Vectorized H(r, m, q); all inputs broadcastable, r > 0 assumed."""
    r = np.asarray(r, dtype=float)
    q = np.asarray(q, dtype=float)
    m = np.asarray(m, dtype=float)
    c = (op.dim - 1) / r if op.dim > 1 else None
    return _degenerate_factor(q, op.alpha) * _bracket(
        op.bracket_coefficients(), m, q, c)


def eval_decoupled(op: OperatorSpec, m, tangential, grad):
    """Operator value with the gradient decoupled from the Hessian.

    ``tangential`` is the tangential Hessian eigenvalue and ``grad`` the
    signed gradient magnitude along the radial direction.  All four variants
    depend on the gradient direction only through even expressions, so this
    is well defined; eval_radial_many(op, r, q, m) equals
    eval_decoupled(op, m, q/r, q).
    """
    m = np.asarray(m, dtype=float)
    tangential = np.asarray(tangential, dtype=float)
    return _degenerate_factor(grad, op.alpha) * _bracket(
        op.bracket_coefficients(), m, tangential, op.dim - 1)


def closed_form_pucci_power(op: OperatorSpec) -> tuple[float, float]:
    """Exponent and constant of the explicit power-profile solution.

    u(r) = r^{(alpha+2)/(alpha+1)} solves |grad u|^alpha M+_{a,A}(D^2 u) = c
    with c = ((alpha+2)/(alpha+1))^{alpha+1} * A * (1/(1+alpha) + N - 1).
    """
    if op.variant is not Variant.PUCCI_PLUS:
        raise InvalidSpec("closed-form power profile is for PucciPlus")
    if op.alpha < 0:
        raise InvalidSpec("requires alpha >= 0")
    exponent = (op.alpha + 2.0) / (op.alpha + 1.0)
    c = exponent ** (op.alpha + 1.0) * op.A * (1.0 / (1.0 + op.alpha) + op.dim - 1)
    return exponent, c


class AnalyticRadialProfile:
    """Closed-form radial profile with value and derivative callables."""

    def __init__(self, value, derivative):
        self._value = value
        self._derivative = derivative

    def __call__(self, r):
        return self._value(np.asarray(r, dtype=float))

    def derivative(self, r):
        return self._derivative(np.asarray(r, dtype=float))


def pucci_power_profile(op: OperatorSpec) -> AnalyticRadialProfile:
    """The explicit solution r^{(alpha+2)/(alpha+1)} as a profile object."""
    exponent, _ = closed_form_pucci_power(op)
    return AnalyticRadialProfile(
        lambda r: r ** exponent,
        lambda r: exponent * r ** (exponent - 1.0),
    )


def closed_form_alpha_laplacian(op: OperatorSpec, c: float) -> AnalyticRadialProfile:
    """Radial profile g with Delta_{alpha+2} g = c and g(0) = 0.

    g'(r) = sign(c) (|c| r / N)^{1/(1+alpha)}.
    """
    if op.variant is not Variant.ALPHA_LAPLACIAN:
        raise InvalidSpec("closed-form profile is for AlphaLaplacian")
    if c == 0:
        return AnalyticRadialProfile(lambda r: np.zeros_like(r),
                                     lambda r: np.zeros_like(r))
    sign = math.copysign(1.0, c)
    inv = 1.0 / (1.0 + op.alpha)
    amp = (abs(c) / op.dim) ** inv
    exponent = (2.0 + op.alpha) / (1.0 + op.alpha)

    def value(r):
        return sign * amp / exponent * r ** exponent

    def derivative(r):
        return sign * amp * r ** inv

    return AnalyticRadialProfile(value, derivative)


def validate_hypotheses(op: OperatorSpec, sample_count: int, seed: int) -> VerificationReport:
    """Check (H1), (H2) and, when nu/kappa are set, (H4) on random jets.

    Jets are drawn log-uniform in magnitude over [1e-6, 1e6] so that
    homogeneity defects show at extreme scales.  Margins are relative; a
    hypothesis holds when its worst margin stays >= -1e-10, and (H1) when
    it stays >= -max(1e-10, 4 alpha eps): the left side raises the rounded
    t q to the power alpha, which turns its relative rounding error of up
    to eps/2 into about alpha eps/2.

    The gradient scalings t and q span 9 decades each way in |t q|, so the
    degenerate factor |t q|^alpha spans 9 alpha.  Above alpha = 200/9 their
    decades shrink by the factor 200/(9 alpha): the factor then stays
    within 10^+-200 and no operator value overflows.  (H4)'s gradient
    step dq, drawn from [-1/2, 1/2] around a unit gradient, shrinks by the
    same factor, so |1 + dq|^alpha stays below e^(100/9).  Below
    alpha = 200/9 the draws do not depend on alpha.
    """
    if sample_count < 1:
        raise InvalidSpec("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    shrink = min(1.0, 200.0 / (9.0 * op.alpha)) if op.alpha > 0 else 1.0

    def log_uniform(lo, hi, size, scale=1.0):
        return np.exp(scale * rng.uniform(math.log(lo), math.log(hi), size))

    n = sample_count
    r = log_uniform(1e-3, 1e1, n)
    q = log_uniform(1e-6, 1e6, n, shrink) * rng.choice([-1.0, 1.0], n)
    m = log_uniform(1e-6, 1e6, n) * rng.choice([-1.0, 1.0], n)
    report = VerificationReport()

    # (H1): F(x, t p, mu M) = |t|^alpha mu F(x, p, M).  Scaling the gradient
    # by t and the Hessian by mu maps the radial jet (r, q, m) to the jet
    # (r t/mu, t q, mu m): the tangential eigenvalue q/r then scales by mu.
    t = log_uniform(1e-3, 1e3, n, shrink)
    mu = log_uniform(1e-3, 1e3, n)
    # the operator at the base jets, shared by (H1) and (H2)
    base = eval_radial_many(op, r, q, m)
    lhs = eval_radial_many(op, r * t / mu, t * q, mu * m)
    rhs = np.abs(t) ** op.alpha * mu * base
    scale = np.maximum(np.abs(rhs), 1e-300)
    h1 = np.max(np.abs(lhs - rhs) / scale)
    report.add("H1", float(r[np.argmax(np.abs(lhs - rhs) / scale)]), -h1,
               max(1e-10, 4.0 * op.alpha * np.finfo(float).eps))

    # (H2): H(r, m+s, q) - H(r, m, q) in [a, A] * |q|^alpha * s for s > 0.
    # The increment spans three decades around the bracket magnitude
    # (|m| or the tangential part, whichever dominates): far below that
    # the difference of the two evaluations is pure cancellation noise.
    bracket_mag = np.maximum(np.abs(m), (op.dim - 1) * np.abs(q) / r)
    s = bracket_mag * log_uniform(1e-3, 1e3, n)
    inc = eval_radial_many(op, r, q, m + s) - base
    factor = _degenerate_factor(q, op.alpha)
    lo = op.a * factor * s
    hi = op.A * factor * s
    scale = np.maximum(hi, 1e-300)
    h2 = np.max(np.maximum(lo - inc, inc - hi) / scale)
    report.add("H2", float(r[np.argmax(np.maximum(lo - inc, inc - hi) / scale)]),
               -h2, 1e-10)

    # (H4): gradient modulus at |p| = 1, checked with the Hessian held fixed.
    if op.nu is not None and op.kappa is not None:
        tang = log_uniform(1e-3, 1e3, n) * rng.choice([-1.0, 1.0], n)
        m4 = log_uniform(1e-3, 1e3, n) * rng.choice([-1.0, 1.0], n)
        g = rng.choice([-1.0, 1.0], n)
        dq = rng.uniform(-0.5, 0.5, n) * shrink
        lhs = np.abs(eval_decoupled(op, m4, tang, g + dq)
                     - eval_decoupled(op, m4, tang, g))
        norm = np.maximum(np.abs(m4), np.abs(tang))
        bound = op.nu * np.abs(dq) ** op.kappa * norm
        scale = np.maximum(bound, 1e-300)
        h4 = np.max((lhs - bound) / scale)
        report.add("H4", float(r[np.argmax((lhs - bound) / scale)]), -h4, 1e-10)

    return report
