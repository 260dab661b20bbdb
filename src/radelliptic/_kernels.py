"""The flux rows of the radial scheme as affine maps.

With the flux ``phi[i]`` at r_{i+1/2}, interior row i (1 <= i <= n-1) is

    B1((phi[i] - phi[i-1]) a[i]) + c[i] B2(wy[i] phi[i] + wx[i] phi[i-1]) = f[i]

with ``a = 1/((1+alpha) (r_{i+1/2} - r_{i-1/2}))``, ``c = (N-1)/r`` and
the increasing piecewise-linear bracket halves B1, B2.  The transport
argument is centered (``wy = wx = 1/2``) wherever that keeps the row
nonincreasing in ``phi[i-1]``, and ``(r_i / r_{i+1/2}) phi[i]``, exact for
the ``phi ~ kappa r`` of the origin, elsewhere.  On the branch its inflow
selects, a row is the map ``phi[i] = A phi[i-1] + b`` with 0 <= A <= 1.
The kernel has two halves: ``branch_keys`` tells which branch each row's
inflow selects, and ``assemble_system`` forms the maps on given branches.
"""

from typing import NamedTuple

import numpy as np

from .operators import _bracket


class RowData:
    """The node-only data of the interior flux rows 1..n-1 on one mesh."""

    def __init__(self, nodes, dim, alpha, coefs):
        r = np.asarray(nodes, dtype=float)
        mid = 0.5 * (r[1:] + r[:-1])
        self.coefs = coefs
        self.a = 1.0 / ((1.0 + alpha) * (mid[1:] - mid[:-1]))
        ri = r[1:-1]
        self.c = (dim - 1) / ri if dim > 1 else np.zeros_like(ri)
        centered = 0.5 * self.c * max(coefs[2:]) <= min(coefs[:2]) * self.a
        self.wy = np.where(centered, 0.5, ri / mid[1:])
        self.wx = np.where(centered, 0.5, 0.0)
        # at the row's kinks, as multiples of the inflow x: the transport
        # argument is tau x where the second difference vanishes, and the
        # second difference is -kink x where the transport argument does
        self.tau = self.wy + self.wx
        self.kink = self.a * self.tau / self.wy


class RowMaps(NamedTuple):
    """Rows ``phi[i] = A phi[i-1] + b`` on given branches."""

    A: np.ndarray
    b: np.ndarray


def branch_keys(rows, x, f):
    """The branches of rows 1..n-1 at the inflow fluxes ``x``.

    ``rows`` is the mesh's ``RowData``, ``x[i-1]`` the inflow and
    ``f[i-1]`` the forcing of row i.  A key has bit 1 set where the second
    difference is nonnegative on the branch, and bit 0 where the transport
    argument is.  The row is increasing in ``phi[i]``, so comparing f with
    its value at a kink tells on which side of the kink the row's solution
    lies.
    """
    up = f >= _bracket(rows.coefs, 0.0, rows.tau * x, rows.c)
    out = f >= _bracket(rows.coefs, -rows.kink * x, 0.0)
    return 2 * up.astype(np.int8) + out


def assemble_system(nodes, rows, key, f):
    """The affine maps of rows 1..n-1 of the mesh ``nodes`` on the
    branches ``key`` (see ``branch_keys``).

    ``rows`` is the ``RowData`` of ``nodes`` and holds all the kernel
    reads of the mesh (perfbench's tracer counts ``nodes``); ``f[i-1]`` is
    the forcing of row i.  A row's map depends on its own key only.
    """
    cmp_, cmm, ctp, ctm = rows.coefs
    cm_a = np.where(key >= 2, cmp_, cmm) * rows.a
    ct_c = np.where(key & 1, ctp, ctm) * rows.c
    den = cm_a + ct_c * rows.wy
    return RowMaps((cm_a - ct_c * rows.wx) / den, f / den)
