import numpy as np
import pytest

from radelliptic import _kernels, solver
from radelliptic.grid import RadialGrid
from radelliptic.operators import OperatorSpec, _bracket


def test_numpy_backend_residual_shape():
    rng = np.random.default_rng(1)
    nodes = 1e-3 + np.linspace(0.0, 1.0, 21)  # r > 0: finite transport
    x = rng.normal(size=19)
    f = rng.normal(size=19)
    rows = _kernels.RowData(nodes, 2, 1.0, (1.0, 1.0, 1.0, 1.0))
    key = _kernels.branch_keys(rows, x, f)
    maps = _kernels.assemble_system(nodes, rows, key, f)
    assert maps.A.shape == maps.b.shape == key.shape == (19,)
    assert np.all((maps.A >= 0.0) & (maps.A <= 1.0))
    assert set(key.tolist()) <= {0, 1, 2, 3}
    # a row's map depends on its own key only
    rows = _kernels.RowData(nodes, 2, 1.0, (2.0, 1.0, 3.0, 0.5))
    maps = _kernels.assemble_system(nodes, rows, key, f)
    other = key.copy()
    other[4] = 3 - other[4]
    changed = _kernels.assemble_system(nodes, rows, other, f)
    for got, want in zip(changed, maps):
        assert got[4] != want[4]
        assert np.array_equal(np.delete(got, 4), np.delete(want, 4))


@pytest.mark.parametrize("coefs", [(1.0, 1.0, 1.0, 1.0), (2.0, 1.0, 3.0, 0.5)])
def test_maps_on_the_keys_of_their_inflows_solve_the_rows(coefs):
    # on the branch its inflow selects, a row's outflow A x + b is the root
    # of the row
    rng = np.random.default_rng(3)
    nodes = 1e-3 + np.linspace(0.0, 1.0, 201) ** 1.5
    x = rng.normal(size=199)
    f = rng.normal(size=199)
    rows = _kernels.RowData(nodes, 3, 0.5, coefs)
    key = _kernels.branch_keys(rows, x, f)
    maps = _kernels.assemble_system(nodes, rows, key, f)
    y = maps.A * x + maps.b
    res = _bracket(rows.coefs, (y - x) * rows.a, rows.wy * y + rows.wx * x,
                   rows.c)
    scale = np.abs(f) + np.abs(x * rows.a) + np.abs(y * rows.a)
    assert np.all(np.abs(res - f) <= 1e-13 * scale)
    # every branch of rows of both signs is met
    assert set(key.tolist()) == {0, 1, 2, 3}


def test_numpy_backend_linear_case_matches_hand_assembly():
    # alpha = 0, a = A = 1, one dimension: the row is (phi[i] - phi[i-1])
    # / hbar = f, so each map has factor 1 and offset f hbar
    n = 16
    nodes = np.linspace(0.0, 1.0, n + 1) + 0.5
    rows = _kernels.RowData(nodes, 1, 0.0, (1.0, 1.0, 1.0, 1.0))
    f = np.full(n - 1, 2.0)
    key = _kernels.branch_keys(rows, np.zeros(n - 1), f)
    maps = _kernels.assemble_system(nodes, rows, key, f)
    assert np.array_equal(maps.A, np.ones(n - 1))
    assert np.allclose(maps.b, 2.0 / n, rtol=1e-14)


def smooth_mesh(graded, n=60):
    s = np.linspace(0.0, 1.0, n + 1)
    if graded:
        s = s ** 1.5
    # starting near the origin puts both transport rules on the mesh
    # when dim > 1: upwind rows at the first nodes, centered elsewhere
    return 1e-3 + s


# forcings of one sign keep every flux and every flux difference of one
# sign, so no branch switch lies inside a difference step
FORCINGS = (lambda r: 2.0 + np.sin(3.0 * r), lambda r: -2.0 - np.sin(3.0 * r))


@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.5])
def test_jacobian_matches_central_differences(graded, dim, alpha):
    # the Jacobian of the fluxes in the first flux, which the annulus
    # shooting's Newton step uses, is the scan's product of row factors
    nodes = smooth_mesh(graded)
    op = OperatorSpec.pucci_plus(alpha, 1.0, 2.0, dim)
    grid = RadialGrid(nodes)
    for forcing in FORCINGS:
        fvals = forcing(nodes)
        s = float(np.sign(fvals[0]))
        rec = solver._Recurrence(op, grid, fvals)
        p = rec.fluxes(s)
        deriv = rec.P.copy()
        delta = 1e-6
        fd = (solver._Recurrence(op, grid, fvals).fluxes(s + delta)
              - solver._Recurrence(op, grid, fvals).fluxes(s - delta)) / (
                  2.0 * delta)
        assert np.max(np.abs(fd - deriv)) <= 1e-7
        assert deriv[0] == 1.0 and np.all(np.diff(deriv) <= 0.0)
        # every row holds at the fluxes, to roundoff
        rows = rec.rows
        res = _bracket(rows.coefs, (p[1:] - p[:-1]) * rows.a,
                       rows.wy * p[1:] + rows.wx * p[:-1], rows.c)
        scale = np.abs(fvals[1:-1]) + np.abs(p[1:] * rows.a)
        assert np.all(np.abs(res - fvals[1:-1]) <= 1e-12 * scale)


def test_jacobian_meshes_cover_both_transport_branches():
    # the upwind argument has no phi[i-1] weight, so it is used exactly
    # where wx is 0
    upwind = centered = 0
    for graded in (False, True):
        nodes = smooth_mesh(graded)
        for dim in (1, 3):
            rows = _kernels.RowData(nodes, dim, 1.0, (2.0, 1.0, 2.0, 1.0))
            upwind += int(np.sum(rows.wx == 0.0))
            centered += int(np.sum(rows.wx == 0.5))
            assert np.all((rows.wx == 0.0) | (rows.wx == 0.5))
            # the upwind argument is exact for the flux kappa r
            up = rows.wx == 0.0
            r = nodes[1:-1][up]
            mid = 0.5 * (nodes[2:] + nodes[1:-1])[up]
            assert np.allclose(rows.wy[up] * mid, r, rtol=1e-15)
    assert upwind >= 3 and centered > 0
