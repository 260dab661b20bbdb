"""Assembly of the upwinded residual and its tridiagonal linearization.

This is the package's one assembly kernel, in numpy.  The solver calls it
through the module attribute ``_kernels.assemble_system``; the boundary
rows are added by the caller.  What depends only on the mesh (the stencil,
its weights, ``1/hp`` and ``(N-1)/r``) is a ``NodeData``, which the caller
builds once per mesh and passes to every call.

One call returns an ``Assembly``: everything the solver needs of one
iterate, so that nothing later assembles the same iterate again.
"""

from typing import NamedTuple

import numpy as np

from .grid import ThreePoint
from .operators import _bracket


class NodeData:
    """The node-only data of the assembly on one mesh in dimension ``dim``."""

    def __init__(self, nodes, dim):
        r = np.asarray(nodes, dtype=float)
        self.stencil = ThreePoint(r)
        self.q_weights = self.stencil.q_weights()
        self.m_weights = self.stencil.m_weights()
        # weights of the forward quotient (u[i+1] - u[i]) / hp
        inv_hp = 1.0 / self.stencil.hp
        self.fwd_weights = (0.0, -inv_hp, inv_hp)
        ri = r[1:-1]
        self.coef_r = (dim - 1) / ri if dim > 1 else np.zeros_like(ri)


class Assembly(NamedTuple):
    """One iterate's residual and linearization.

    ``res``, ``lo``, ``di`` and ``up`` have length n+1, with entries 0 and n
    left zero for the caller's boundary rows.  The bands are the frozen
    linearization: the derivative of the degenerate factor
    (q^2+eps^2)^{alpha/2} is dropped, which leaves the monotone elliptic
    part.  The Newton bands add ``chain`` times the stencil's q weights.
    The other fields hold the interior nodes 1..n-1: ``hval`` is the
    operator value, so ``res[1:-1] == hval - f[1:-1]``, and ``factor`` is
    the degenerate factor.
    """

    res: np.ndarray
    lo: np.ndarray
    di: np.ndarray
    up: np.ndarray
    chain: np.ndarray
    hval: np.ndarray
    factor: np.ndarray


def assemble_system(nodes, node_data, u, fvals, alpha, eps, cmp_, cmm, ctp,
                    ctm):
    """Residual and tridiagonal linearization at the interior nodes.

    ``node_data`` is the ``NodeData`` of ``nodes`` and the dimension.
    Returns an ``Assembly``; ``lo[i]``, ``di[i]``, ``up[i]`` are the frozen
    derivatives of row i with respect to u[i-1], u[i], u[i+1].

    The first-difference used for the transport term (N-1)/r * q is the
    second-order centered quotient wherever that keeps the off-diagonal signs
    monotone, and the forward quotient otherwise (the transport coefficient
    is nonnegative for every variant).
    """
    u = np.asarray(u, dtype=float)
    f = np.asarray(fvals, dtype=float)
    n = len(nodes) - 1

    st = node_data.stencil
    hp = st.hp
    q = st.q(u)
    m = st.m(u)
    coef_r = node_data.coef_r
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

    hval = factor * bracket
    res = np.zeros(n + 1)
    res[1:-1] = hval - f[1:-1]

    # rows lo, di, up: weights on u[i-1], u[i], u[i+1]
    ct_coef = coef_r * ct_act
    bands = []
    for dm, dq, dfwd in zip(node_data.m_weights, node_data.q_weights,
                            node_data.fwd_weights):
        band = np.zeros(n + 1)
        band[1:-1] = factor * (cm_act * dm + ct_coef * np.where(centered, dq,
                                                                dfwd))
        bands.append(band)
    return Assembly(res, *bands, dfactor * bracket, hval, factor)
