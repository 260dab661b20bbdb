"""Assembly of the upwinded residual and its tridiagonal linearization.

This is the package's one assembly kernel, in numpy.  The solver calls it
through the module attribute ``_kernels.assemble_system``; the boundary
rows are added by the caller.
"""

import numpy as np

from .grid import ThreePoint
from .operators import _bracket


def assemble_system(nodes, u, fvals, alpha, eps, cmp_, cmm, ctp, ctm, dim,
                    freeze_factor):
    """Residual and tridiagonal linearization at the interior nodes.

    Returns arrays (res, lo, di, up) of length n+1; entries 0 and n are left
    zero for the caller to fill with boundary rows.  ``lo[i]``, ``di[i]``,
    ``up[i]`` are the derivatives of row i with respect to u[i-1], u[i],
    u[i+1].  With ``freeze_factor`` the derivative of the degenerate factor
    (q^2+eps^2)^{alpha/2} is dropped, which leaves the monotone elliptic part
    of the linearization.

    The first-difference used for the transport term (N-1)/r * q is the
    second-order centered quotient wherever that keeps the off-diagonal signs
    monotone, and the forward quotient otherwise (the transport coefficient
    is nonnegative for every variant).
    """
    r = np.asarray(nodes, dtype=float)
    u = np.asarray(u, dtype=float)
    f = np.asarray(fvals, dtype=float)
    n = len(r) - 1

    res = np.zeros(n + 1)
    lo = np.zeros(n + 1)
    di = np.zeros(n + 1)
    up = np.zeros(n + 1)

    st = ThreePoint(r)
    hp = st.hp
    q = st.q(u)
    m = st.m(u)
    ri = r[1:-1]
    coef_r = (dim - 1) / ri if dim > 1 else np.zeros_like(ri)
    cm_act = np.where(m >= 0.0, cmp_, cmm)

    # centered transport keeps the lower off-diagonal monotone iff
    # coef_r * ct * hp <= 2 * cm_act (worst transport branch)
    centered = coef_r * max(ctp, ctm) * hp <= 2.0 * cm_act
    fwd = (u[2:] - u[1:-1]) / hp
    t = np.where(centered, q, fwd)
    ct_act = np.where(t >= 0.0, ctp, ctm)

    bracket = _bracket((cmp_, cmm, ctp, ctm), m, t, coef_r)

    if alpha == 0.0:
        factor = np.ones_like(q)
        dfactor = np.zeros_like(q)
    else:
        q2e = q * q + eps * eps
        factor = q2e ** (0.5 * alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            dfactor = np.where(q2e > 0.0,
                               alpha * q * q2e ** (0.5 * alpha - 1.0), 0.0)

    res[1:-1] = factor * bracket - f[1:-1]

    # rows lo, di, up: weights on u[i-1], u[i], u[i+1]
    chain = None if freeze_factor else dfactor * bracket
    fwd_w = (0.0, -1.0 / hp, 1.0 / hp)
    for row, dm, dq, dfwd in zip((lo, di, up), st.m_weights(), st.q_weights(),
                                 fwd_w):
        dt = np.where(centered, dq, dfwd)
        row[1:-1] = factor * (cm_act * dm + coef_r * ct_act * dt)
        if chain is not None:
            row[1:-1] += chain * dq
    return res, lo, di, up
