"""The flux rows of the radial scheme as affine maps.

With the flux ``phi[i]`` at r_{i+1/2}, interior row i (1 <= i <= n-1) is

    B1((phi[i] - phi[i-1]) a[i]) + c[i] B2(wy[i] phi[i] + wx[i] phi[i-1]) = f[i]

with ``a = 1/((1+alpha) (r_{i+1/2} - r_{i-1/2}))``, ``c = (N-1)/r`` and
the increasing piecewise-linear bracket halves B1, B2.  The transport
argument is centered (``wy = wx = 1/2``) wherever that keeps the row
nonincreasing in ``phi[i-1]``, and ``(r_i / r_{i+1/2}) phi[i]``, exact for
the ``phi ~ kappa r`` of the origin, elsewhere.  On the branch its inflow
selects, a row is the map ``phi[i] = A phi[i-1] + f[i] / den`` with 0 <=
A <= 1.  The kernel has two halves: ``branch_keys`` tells which branch
each row's inflow selects, and ``assemble_system`` forms ``A`` and ``den``
on given branches.  Both depend on the row's key alone, so the kernel
never reads the forcing: the solver divides it by ``den`` itself.  A
guessed solve keeps its last assembled scan as a record on the mesh's
``RowData`` (``RowData.memo``, see ``solver``).
"""

from typing import NamedTuple

import numpy as np

from .operators import _bracket


class RowData:
    """The node-only data of the interior flux rows 1..n-1 on one mesh.

    ``h`` holds the spacings and ``origin`` the ball's origin row at the
    first fluxes 1 and -1 (see ``origin_row``).  ``memo`` is None until a
    guessed solve assembles a scan on the mesh; it then holds the
    forcing-free record of the last such scan, a ``solver._ScanMemo`` of
    its branch key, denominators, window products and prefix products.
    """

    def __init__(self, nodes, dim, alpha, coefs):
        r = np.asarray(nodes, dtype=float)
        self.h = np.diff(r)
        mid = 0.5 * (r[1:] + r[:-1])
        self.coefs = coefs
        self.dim, self.alpha = dim, alpha
        self.a = 1.0 / ((1.0 + alpha) * (mid[1:] - mid[:-1]))
        ri = r[1:-1]
        self.c = (dim - 1) / ri if dim > 1 else np.zeros_like(ri)
        centered = 0.5 * self.c * max(coefs[2:]) <= min(coefs[:2]) * self.a
        self.wy = np.where(centered, 0.5, ri / mid[1:])
        self.wx = np.where(centered, 0.5, 0.0)
        # at the row's kinks, as multiples of the inflow x: the transport
        # argument is tau x where the second difference vanishes, and the
        # second difference is kink x where the transport argument does
        self.tau = self.wy + self.wx
        self.kink = -self.a * self.tau / self.wy
        # the origin row is linear on each side of a zero first flux
        self.origin = (origin_row(self, 1.0), origin_row(self, -1.0))
        self.memo = None


def origin_row(rows, p0):
    """The ball's origin row B1(2 p0 / ((1+alpha) h0)) + (N-1) B2(2 p0 /
    h0) at the first flux ``p0``."""
    x = 2.0 * p0 / rows.h[0]
    return _bracket(rows.coefs, x / (1.0 + rows.alpha), x, rows.dim - 1)


class RowMaps(NamedTuple):
    """Rows ``phi[i] = A phi[i-1] + f / den`` on given branches."""

    A: np.ndarray
    den: np.ndarray


def branch_keys(rows, x, f):
    """The branches of rows 1..n-1 at the inflow fluxes ``x``.

    ``rows`` is the mesh's ``RowData``, ``x[i-1]`` the inflow and
    ``f[i-1]`` the forcing of row i.  A key has bit 1 set where the second
    difference is nonnegative on the branch, and bit 0 where the transport
    argument is.  The row is increasing in ``phi[i]``, so comparing f with
    its value at a kink tells on which side of the kink the row's solution
    lies.

    The kink values are ``_bracket(coefs, 0, t, c)`` at ``t = tau x`` and
    ``_bracket(coefs, m, 0)`` at ``m = kink x``, each evaluated on the side
    of 0 that x picks.  ``ctp t+ - ctm t-`` is ``ctp t`` for t > 0 and
    ``ctm t`` otherwise (``0 - ctm (-t)`` is ``ctm t`` exactly), and ``cmp
    m+ - cmm m-`` is ``cmp m`` for m > 0 and ``cmm m`` otherwise.  As tau >
    0 and kink < 0, t has the sign of x and m the other one, unless the
    product underflows to a zero, where both coefficients give a zero; and
    the bracket's vanishing term adds a zero, which changes a value only
    in the sign of a zero.  So the two forms differ at most in the sign of
    a zero, which no comparison sees: at x = +-0 too; at a NaN x both are
    NaN and the comparison is false; at x = +-inf both are infinite, or
    NaN where c = 0 (dimension 1), 0 inf being NaN in both.
    """
    cmp_, cmm, ctp, ctm = rows.coefs
    pos = x > 0.0
    up = f >= rows.c * (np.where(pos, ctp, ctm) * (rows.tau * x))
    out = f >= np.where(pos, cmm, cmp_) * (rows.kink * x)
    return 2 * up.astype(np.int8) + out


def assemble_system(nodes, rows, key):
    """The affine maps of rows 1..n-1 of the mesh ``nodes`` on the
    branches ``key`` (see ``branch_keys``).

    ``rows`` is the ``RowData`` of ``nodes`` and holds all the kernel
    reads of the mesh (perfbench's tracer counts ``nodes``).  A row's map
    depends on its own key only.
    """
    cmp_, cmm, ctp, ctm = rows.coefs
    cm_a = np.where(key >= 2, cmp_, cmm) * rows.a
    ct_c = np.where(key & 1, ctp, ctm) * rows.c
    den = cm_a + ct_c * rows.wy
    return RowMaps((cm_a - ct_c * rows.wx) / den, den)
