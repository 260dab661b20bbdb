import numpy as np
import pytest

from radelliptic import _kernels


def test_numpy_backend_residual_shape():
    rng = np.random.default_rng(1)
    nodes = 1e-3 + np.linspace(0.0, 1.0, 21)  # r > 0: finite transport
    u = rng.normal(size=21)
    fvals = rng.normal(size=21)
    rec = _kernels.assemble_system(
        nodes, _kernels.NodeData(nodes, 2), u, fvals, 1.0, 1e-6,
        1.0, 1.0, 1.0, 1.0)
    assert rec.res.shape == rec.lo.shape == rec.di.shape == rec.up.shape
    assert rec.res.shape == nodes.shape
    interior = (len(nodes) - 2,)
    assert rec.chain.shape == rec.hval.shape == rec.factor.shape == interior
    # the residual is the operator value minus f, bit for bit
    assert np.array_equal(rec.res[1:-1], rec.hval - fvals[1:-1])
    assert rec.res[0] == rec.res[-1] == 0.0


def test_numpy_backend_linear_case_matches_hand_assembly():
    # alpha = 0, a = A = 1, one dimension: H = u'' and the residual at an
    # interior node is just the second quotient minus f
    n = 16
    nodes = np.linspace(0.0, 1.0, n + 1) + 0.5
    u = nodes ** 2
    fvals = np.zeros(n + 1)
    res = _kernels.assemble_system(
        nodes, _kernels.NodeData(nodes, 1), u, fvals, 0.0, 0.0,
        1.0, 1.0, 1.0, 1.0).res
    assert np.allclose(res[1:-1], 2.0, atol=1e-10)


def central_difference_jacobian(assemble, u, delta):
    """(lo, di, up) of d res / d u by central differences.

    The Jacobian is tridiagonal, so the nodes j = k mod 3 are perturbed
    together: each row then sees exactly one perturbed neighbour.
    """
    idx = np.arange(len(u))
    rows = idx[1:-1]
    bands = [np.zeros(len(u)) for _ in range(3)]
    for k in range(3):
        e = np.where(idx % 3 == k, delta, 0.0)
        d = (assemble(u + e).res - assemble(u - e).res) / (2.0 * delta)
        for band, cols in zip(bands, (rows - 1, rows, rows + 1)):
            hit = rows[cols % 3 == k]
            band[hit] = d[hit]
    return bands


def smooth_mesh(graded, n=60):
    s = np.linspace(0.0, 1.0, n + 1)
    if graded:
        s = s ** 1.5
    # starting near the origin puts both transport branches on the mesh
    # when dim > 1: forward quotients at the first nodes, centered elsewhere
    return 1e-3 + s


# m, the transport quotient and q keep the sign of the profile's
# derivatives everywhere, so no upwind or branch switch lies inside a step
SMOOTH_PROFILES = (np.exp, lambda r: -np.exp(r))
COEFS = (2.0, 1.0, 2.0, 1.0)


@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.5])
def test_jacobian_matches_central_differences(graded, dim, alpha):
    nodes = smooth_mesh(graded)
    fvals = np.sin(3.0 * nodes)
    node_data = _kernels.NodeData(nodes, dim)
    for eps in (1e-4, 1e-1):
        for profile in SMOOTH_PROFILES:
            u = profile(nodes)

            def assemble(v):
                return _kernels.assemble_system(nodes, node_data, v, fvals,
                                                alpha, eps, *COEFS)

            rec = assemble(u)
            # the Newton bands: the frozen bands plus the chain rule term
            newton = []
            for frozen, dq in zip((rec.lo, rec.di, rec.up),
                                  node_data.q_weights):
                band = frozen.copy()
                band[1:-1] += rec.chain * dq
                newton.append(band)
            fd = central_difference_jacobian(assemble, u, 1e-7)
            scale = np.maximum.reduce([np.abs(b) for b in newton])
            for got, want in zip(newton, fd):
                err = np.abs(got - want)[1:-1] / scale[1:-1]
                assert np.max(err) <= 1e-6
            assert np.array_equal(rec.res[1:-1], rec.hval - fvals[1:-1])
            q = node_data.stencil.q(u)
            assert np.array_equal(rec.factor,
                                  (q * q + eps * eps) ** (0.5 * alpha))
            if alpha == 0.0:
                # no degenerate factor: the frozen bands are the Jacobian
                assert not np.any(rec.chain)


def test_jacobian_meshes_cover_both_transport_branches():
    # the forward quotient has no u[i-1] weight, so the transport term
    # leaves the lower band unchanged exactly where it is used
    forward = centered = 0
    for graded in (False, True):
        nodes = smooth_mesh(graded)
        for profile in SMOOTH_PROFILES:
            u = profile(nodes)
            lower = [_kernels.assemble_system(
                nodes, _kernels.NodeData(nodes, dim), u, np.zeros_like(u),
                0.0, 0.0, *COEFS).lo[1:-1] for dim in (1, 3)]
            same = lower[0] == lower[1]
            forward += int(same.sum())
            centered += int((~same).sum())
    assert forward >= 3 and centered > 0
