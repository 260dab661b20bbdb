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
        # each number is read as a config's is; an optional one may be None
        for name in ("alpha", "a", "A", "p1", "p2", "nu", "kappa"):
            value = getattr(self, name)
            if name == "alpha" or value is not None:
                object.__setattr__(self, name, config_number(value, name))
        object.__setattr__(self, "dim", config_number(self.dim, "dim", int))
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


def validate_hypotheses(op: OperatorSpec) -> VerificationReport:
    """Check (H4), the gradient modulus, when ``nu`` and ``kappa`` are set.

    (H1), homogeneity, and (H2), uniform ellipticity, hold by construction
    for every operator this module builds, so they are not checked here
    (the property tests of ``eval_radial_many`` hold them).  The operator
    is |q|^alpha times a bracket that is positively homogeneous and
    piecewise linear in the Hessian eigenvalues, which makes (H1) an
    identity; and ``OperatorSpec`` sets (a, A) to the range of the
    bracket's second-order coefficients (Pucci: those coefficients;
    AlphaLaplacian: 1+alpha in [min(1, 1+alpha), max(1, 1+alpha)];
    TraceNormalMix: p1+p2 in [p1 + min(p2, 0), p1 + max(p2, 0)]), so the
    increment of H in m is in [a, A] |q|^alpha times the step: (H2).

    (H4) is taken at |p| = 1 with the Hessian held fixed: for every
    gradient step x in [-w, w] and Hessian eigenvalues (m, t) with
    |m|, |t| <= 1,

        | |1+x|^alpha - 1 | * |bracket(m, t)| <= nu |x|^kappa,

    with w = min(1, 200/(9 alpha))/2 for alpha > 0 and 1/2 otherwise, so
    that |1+x|^alpha <= e^(100/9) stays finite.  The sup of |bracket| over
    the unit box is C = max(cmp + (N-1) ctp, cmm + (N-1) ctm), at a corner
    where m and t share a sign.  The sup over x of the ratio
    ||1+x|^alpha - 1| / |x|^kappa is

        S = max(|(1+w)^alpha - 1|, |(1-w)^alpha - 1|) / w^kappa.

    Proof: with s(x) = ((1+x)^alpha - 1)/x, the chord slope of y^alpha
    from 1, the ratio is |s(x)| |x|^(1-kappa).  The second factor grows
    with |x| (kappa <= 1).  For alpha >= 1, y^alpha is convex and
    increasing, so s >= 0 grows with x and both factors peak at x = +w;
    for 0 <= alpha < 1 it is concave and increasing (s >= 0 falls with
    x), and for alpha < 0 convex and decreasing (s <= 0 grows with x), so
    |s| and with it the ratio peak at x = -w.  Either way the sup is the
    larger of the two end values.

    The row's margin is 1 - C S / nu and its location the step x = +-w
    where the sup sits; (H4) holds when the margin is >= -1e-10.
    """
    report = VerificationReport()
    if op.nu is None or op.kappa is None:
        return report
    alpha = op.alpha
    w = 0.5 * min(1.0, 200.0 / (9.0 * alpha)) if alpha > 0 else 0.5
    # the larger |(1+x)^alpha - 1| of the two ends, x = +w on a tie
    rise, x = max((abs(math.expm1(alpha * math.log1p(x))), x)
                  for x in (w, -w))
    cmp_, cmm, ctp, ctm = op.bracket_coefficients()
    c = max(cmp_ + (op.dim - 1) * ctp, cmm + (op.dim - 1) * ctm)
    report.add("H4", x, 1.0 - c * rise / w ** op.kappa / op.nu, 1e-10)
    return report
