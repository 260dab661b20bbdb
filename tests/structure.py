"""The structure hypotheses (H1) and (H2) as defects of ``eval_radial_many``.

``validate_hypotheses`` does not check (H1) or (H2): they hold by
construction.  These helpers check that construction on radial jets
(r, q, m): a radius, a signed gradient and a second derivative.

The jets are built so that every scaling the checks apply is exact in
float64: r, q, m, t and s are rounded to float32 (a product of two has at
most 48 bits), and mu is a power of two.  What is left is the rounding of
the operator itself, a few ulps of the sum of the magnitudes of its terms,
``terms``; both defects are measured against that sum, so no tolerance
grows with alpha.
"""

import numpy as np

from radelliptic.operators import eval_radial_many

# a defect above this many times the terms' magnitude is not rounding
TOLERANCE = 1e-13


def jets(alpha, unit):
    """Jets from draws ``unit[..., 0:8]`` in [0, 1], as (r, q, m, t, mu, s).

    r is in [1e-3, 10], |m| in [1e-6, 1e6], mu a power of two in
    [2^-10, 2^10], and s > 0 within three decades of the bracket's size
    at (r, q, m).  |q| spans 1e+-6 and t 1e+-3, both shrunk by
    min(1, 200/(9 alpha)) for alpha > 0, so |t q|^alpha stays within
    10^+-200 and every operator value is finite.
    """
    u = np.asarray(unit, dtype=float)
    shrink = min(1.0, 200.0 / (9.0 * alpha)) if alpha > 0 else 1.0

    def exact(x):
        return np.float32(x).astype(float)

    def sign(v):
        return np.where(v < 0.5, -1.0, 1.0)

    def decades(v, span):
        """10^x for x in [-span, span] as v goes from 0 to 1."""
        return 10.0 ** (span * (2.0 * v - 1.0))

    r = exact(10.0 ** (4.0 * u[..., 0] - 3.0))
    q = sign(u[..., 6]) * exact(decades(u[..., 1], 6.0 * shrink))
    m = sign(u[..., 7]) * exact(decades(u[..., 2], 6.0))
    t = exact(decades(u[..., 3], 3.0 * shrink))
    mu = 2.0 ** np.round(20.0 * u[..., 4] - 10.0)
    size = np.maximum(np.abs(m), np.abs(q) / r)
    s = exact(size * decades(u[..., 5], 3.0))
    return r, q, m, t, mu, s


def terms(op, r, q, m):
    """|q|^alpha (A |m| + (N-1)/r max(ctp, ctm) |q|), a bound on the sum of
    the magnitudes of the operator's terms at (r, q, m)."""
    _, _, ctp, ctm = op.bracket_coefficients()
    return np.abs(q) ** op.alpha * (
        op.A * np.abs(m) + (op.dim - 1) / r * max(ctp, ctm) * np.abs(q))


def h1_defect(op, r, q, m, t, mu):
    """(H1), F(x, t p, mu M) = |t|^alpha mu F(x, p, M) for t, mu > 0.

    Scaling the gradient by t and the Hessian by mu maps the radial jet
    (r, q, m) to (r t / mu, t q, mu m): the tangential eigenvalue q/r then
    scales by mu.  Returns |lhs - rhs| over the scaled ``terms``.
    """
    lhs = eval_radial_many(op, r * t / mu, t * q, mu * m)
    scale = t ** op.alpha * mu
    rhs = scale * eval_radial_many(op, r, q, m)
    return np.abs(lhs - rhs) / (scale * terms(op, r, q, m))


def h2_defect(op, r, q, m, s):
    """(H2), H(r, q, m + s) - H(r, q, m) in [a, A] |q|^alpha s for s > 0.

    Returns the distance of the increment from that interval over the
    ``terms`` of both evaluations.
    """
    inc = eval_radial_many(op, r, q, m + s) - eval_radial_many(op, r, q, m)
    factor = np.abs(q) ** op.alpha
    outside = np.maximum(np.maximum(op.a * factor * s - inc,
                                    inc - op.A * factor * s), 0.0)
    return outside / (terms(op, r, q, m) + terms(op, r, q, m + s))
