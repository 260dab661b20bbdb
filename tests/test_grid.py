import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from radelliptic.errors import (GridMismatch, InvalidSpec, OutsideDomain,
                                WindowTooSmall)
from radelliptic.grid import (_CSV_CHUNK, DerivativeNumbers,
                              DiscreteRadialFunction, Domain, DomainKind,
                              Grading, RadialGrid, derivative_numbers,
                              interior_quotients, lipschitz_constant)


def uniform_profile(fn, a=0.0, b=1.0, n=100):
    grid = RadialGrid.for_domain(Domain(DomainKind.BALL, b) if a == 0.0
                                 else Domain.annulus(a, b), n)
    return DiscreteRadialFunction(grid, fn(grid.nodes))


# finite floats of every kind, +-0 and subnormals included, with the range
# of fixed notation and values at its edges drawn more often
CSV_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e17, 1e17),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-4, 9.9999999999999991e-05, 1e17,
                     99999999999999984.0, 99.99999999999999, 1 + 2 ** -17]))
# nodes a grid accepts: far enough from the float range that their spacing
# stays finite
CSV_NODES = st.one_of(st.floats(-1e307, 1e307), CSV_VALUES.filter(
    lambda x: abs(x) <= 1e307))


class TestDomain:
    def test_ball_validation(self):
        with pytest.raises(InvalidSpec):
            Domain.ball(-1.0)
        with pytest.raises(InvalidSpec):
            Domain(DomainKind.BALL, 1.0, R1=0.5)
        with pytest.raises(InvalidSpec, match="bc_inner"):
            Domain(DomainKind.BALL, 1.0, bc_inner=5.0)

    def test_infinite_radius_rejected(self):
        with pytest.raises(InvalidSpec) as info:
            Domain.ball(float("inf"))
        assert str(info.value) == "R must be a finite number, got inf"

    def test_text_radius_rejected(self):
        # was a bare TypeError from comparing a str with 0
        with pytest.raises(InvalidSpec) as info:
            Domain.ball("1")
        assert str(info.value) == "R must be a finite number, got '1'"

    def test_annulus_validation(self):
        with pytest.raises(InvalidSpec):
            Domain.annulus(0.0, 1.0)
        with pytest.raises(InvalidSpec):
            Domain.annulus(1.0, 0.5)

    def test_json_round_trip(self):
        # the domain's fields, the way a config holds them
        dom = Domain.annulus(0.25, 2.0, bc_inner=-1.0, bc_outer=3.0)
        assert Domain.from_json_dict(dataclasses.asdict(dom)) == dom


class TestRadialGrid:
    def test_uniform_spacing(self):
        grid = RadialGrid.for_domain(Domain.ball(2.0), 10)
        assert grid.n == 10
        assert np.allclose(grid.spacing, 0.2)
        assert grid.max_spacing == pytest.approx(0.2)

    def test_graded_clusters_at_origin(self):
        grid = RadialGrid.for_domain(Domain.ball(1.0), 100,
                                     Grading.GRADED_AT_ORIGIN)
        h = grid.spacing
        assert h[0] < h[-1]
        assert np.all(np.diff(grid.nodes) > 0)
        assert grid.nodes[0] == 0.0 and grid.nodes[-1] == pytest.approx(1.0)

    def test_annulus_endpoints(self):
        grid = RadialGrid.for_domain(Domain.annulus(0.5, 1.5), 20)
        assert grid.nodes[0] == pytest.approx(0.5)
        assert grid.nodes[-1] == pytest.approx(1.5)
        assert grid.spans(Domain.annulus(0.5, 1.5))
        assert not grid.spans(Domain.ball(1.5))

    def test_rejects_bad_nodes(self):
        with pytest.raises(InvalidSpec):
            RadialGrid(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(InvalidSpec):
            RadialGrid(np.array([1.0]))

    # the spacing of finite nodes may overflow; pytest makes numpy's
    # overflow warning an error, so none may be raised on the way
    @pytest.mark.parametrize("nodes, message", [
        ([0.0, np.inf], "nodes must be finite"),
        ([0.0, np.nan, 1.0], "nodes must be finite"),
        ([-np.inf, 0.0], "nodes must be finite"),
        ([-1e308, 1e308], "spacing must be finite")])
    def test_rejects_non_finite_nodes_and_spacing(self, nodes, message):
        with pytest.raises(InvalidSpec, match=message):
            RadialGrid(nodes)

    def test_nodes_are_a_read_only_copy(self):
        # data derived from the nodes is kept on the grid, so neither the
        # caller's array nor the grid's may change them afterwards
        given = np.linspace(0.0, 1.0, 5)
        grid = RadialGrid(given)
        given[1] = 0.9
        assert grid.nodes[1] == 0.25
        with pytest.raises(ValueError):
            grid.nodes[1] = 0.5

    def test_derived_builds_once_per_key(self):
        grid = RadialGrid.for_domain(Domain.ball(1.0), 8)
        builds = []

        def build():
            builds.append(1)
            return object()

        first = grid.derived("a", build)
        assert grid.derived("a", build) is first
        assert grid.derived("b", build) is not first
        assert len(builds) == 2
        # another grid of the same nodes keeps its own data
        assert RadialGrid(grid.nodes).derived("a", build) is not first


class TestDifferenceQuotients:
    def test_exact_on_quadratics_nonuniform(self):
        nodes = np.array([0.0, 0.1, 0.35, 0.6, 1.0])
        grid = RadialGrid(nodes)
        u = DiscreteRadialFunction(grid, 3.0 * nodes ** 2 - 2.0 * nodes + 1.0)
        q, m = interior_quotients(u)
        assert q.shape == m.shape == (3,)
        assert np.allclose(q, 6.0 * nodes[1:-1] - 2.0, rtol=0.0, atol=1e-12)
        assert np.allclose(m, 6.0, rtol=0.0, atol=1e-10)

    def test_cubic_truncation_on_uniform_grid(self):
        # for u = r^3 on a uniform grid the centered first quotient carries
        # an exact h^2 truncation term: q = 3 r^2 + h^2
        n = 50
        grid = RadialGrid.for_domain(Domain.ball(1.0), n)
        h = 1.0 / n
        u = DiscreteRadialFunction(grid, grid.nodes ** 3)
        q, m = interior_quotients(u)
        r = grid.nodes[1:-1]
        assert np.allclose(q, 3.0 * r ** 2 + h ** 2, rtol=1e-12, atol=0.0)
        assert np.allclose(m, 6.0 * r, rtol=1e-10, atol=0.0)


class TestDerivativeNumbers:
    def test_smooth_function_tight_spread(self):
        n = 10_000
        grid = RadialGrid.for_domain(Domain.ball(1.0), n)
        u = DiscreteRadialFunction(grid, np.sin(grid.nodes))
        dn = derivative_numbers(u, [0.5], window=[1e-2], scales=4)
        assert dn.spread.shape == (1,)
        assert dn.spread[0] <= 1e-2
        mid = 0.5 * (dn.lambda_g[0] + dn.Lambda_d[0])
        assert mid == pytest.approx(np.cos(0.5), abs=1e-2)

    def test_kink_separates_sides(self):
        u = uniform_profile(lambda r: np.abs(r - 0.5), n=1000)
        dn = derivative_numbers(u, [0.5], window=[0.05], scales=3)
        assert dn.lambda_g[0] == pytest.approx(-1.0, abs=1e-8)
        assert dn.Lambda_d[0] == pytest.approx(1.0, abs=1e-8)
        assert dn.spread[0] == pytest.approx(2.0, abs=1e-8)

    def test_left_endpoint_mirrors_right(self):
        u = uniform_profile(lambda r: r ** 2, n=100)
        dn = derivative_numbers(u, [0.0], window=[0.1], scales=3)
        assert dn.lambda_g[0] == dn.lambda_d[0]
        assert dn.Lambda_g[0] == dn.Lambda_d[0]
        # the right numbers are the quotients u(s) / s at s = 0.1 / 2^k
        s = 0.1 * 2.0 ** -np.arange(3)
        assert dn.lambda_d[0] == pytest.approx(np.min(u(s) / s))
        assert dn.Lambda_d[0] == pytest.approx(np.max(u(s) / s))

    def test_window_too_small(self):
        u = uniform_profile(lambda r: r, n=10)
        with pytest.raises(WindowTooSmall):
            derivative_numbers(u, [0.5], window=[0.05], scales=2)

    def test_outside_domain(self):
        u = uniform_profile(lambda r: r, n=10)
        with pytest.raises(OutsideDomain):
            derivative_numbers(u, [2.0], window=[0.5], scales=2)

    def test_scales_validated(self):
        u = uniform_profile(lambda r: r, n=10)
        with pytest.raises(InvalidSpec):
            derivative_numbers(u, [0.5], window=[0.5], scales=1)

    def test_spread_property(self):
        dn = DerivativeNumbers(*np.array([[-1.0], [-0.5], [0.25], [1.0]]))
        assert dn.spread == pytest.approx([2.0])

    def test_spread_matches_builtin_max_min_on_signed_zeros(self):
        # the built-ins keep the first of equal arguments: -0.0 - 0.0
        lg, Lg, ld, Ld = 0.0, -0.0, -0.0, 0.0
        dn = DerivativeNumbers(*np.array([[lg], [Lg], [ld], [Ld]]))
        spread = max(Lg, Ld) - min(lg, ld)
        assert bits(*dn.spread) == bits(spread) == bits(-0.0)


def bits(*values):
    """Bit patterns of floats, so that -0.0 and 0.0 differ."""
    return np.array(values, dtype=float).view(np.int64).tolist()


def reference_derivative_numbers(u, r, window, scales):
    """Scalar form of derivative_numbers, one probe point per call."""
    nodes = u.grid.nodes
    if r < nodes[0] - 1e-12 or r > nodes[-1] + 1e-12:
        raise OutsideDomain("derivative numbers requested outside the grid")
    if scales < 2:
        raise InvalidSpec("need at least two scales")
    i = int(np.argmin(np.abs(nodes - r)))
    r = float(nodes[i])
    h = u.grid.spacing
    local = h[0] if i == 0 else h[-1] if i == u.grid.n else max(h[i - 1], h[i])
    if window < 2 * local * (1 - 1e-12):
        raise WindowTooSmall("window below twice the local spacing")
    ur = u.values[i]
    offsets = window * 2.0 ** (-np.arange(scales))

    def one_side(sign):
        s = r + sign * offsets
        s = s[(s >= nodes[0] - 1e-15) & (s <= nodes[-1] + 1e-15)]
        if len(s) == 0:
            return None
        quot = (u(s) - ur) / (s - r)
        return float(np.min(quot)), float(np.max(quot))

    right = one_side(+1.0)
    left = one_side(-1.0)
    if right is None:
        right = left
    if left is None:
        left = right
    return DerivativeNumbers(lambda_g=left[0], Lambda_g=left[1],
                             lambda_d=right[0], Lambda_d=right[1])


def _probe_profiles():
    rng = np.random.default_rng(7)
    graded = RadialGrid.for_domain(Domain.ball(1.0), 90,
                                   Grading.GRADED_AT_ORIGIN)
    annulus = RadialGrid.for_domain(Domain.annulus(0.4, 1.3), 70)
    return {
        "uniform-ball": uniform_profile(lambda r: np.abs(r - 0.37) ** 0.6,
                                        n=80),
        "graded-ball": DiscreteRadialFunction(
            graded, np.sin(5.0 * graded.nodes) + rng.normal(
                scale=1e-3, size=graded.nodes.shape)),
        "annulus": DiscreteRadialFunction(
            annulus, np.cos(4.0 * annulus.nodes) * annulus.nodes),
        # flat pieces give quotients of both zero signs
        "flat": uniform_profile(lambda r: np.minimum(r, 0.5), n=64),
    }


class TestVectorizedDerivativeNumbers:
    @pytest.mark.parametrize("name", sorted(_probe_profiles()))
    def test_array_call_equals_scalar_calls(self, name):
        u = _probe_profiles()[name]
        grid = u.grid
        nodes = grid.nodes
        # every node, both grid ends included, with windows reaching past
        # the ends so that one side is mirrored
        idx = np.arange(grid.n + 1)
        window = 8.0 * np.maximum(np.concatenate([grid.spacing[:1],
                                                  grid.spacing]),
                                  np.concatenate([grid.spacing,
                                                  grid.spacing[-1:]]))
        for scales in (2, 3, 5):
            dn = derivative_numbers(u, nodes[idx], window, scales)
            for k in idx:
                # a call at the one point
                one = derivative_numbers(u, nodes[k:k + 1], window[k:k + 1],
                                         scales)
                ref = reference_derivative_numbers(
                    u, float(nodes[k]), float(window[k]), scales)
                assert bits(one.lambda_g[0], one.Lambda_g[0], one.lambda_d[0],
                            one.Lambda_d[0]) == bits(ref.lambda_g, ref.Lambda_g,
                                                     ref.lambda_d, ref.Lambda_d)
                got = bits(dn.lambda_g[k], dn.Lambda_g[k], dn.lambda_d[k],
                           dn.Lambda_d[k], dn.spread[k])
                assert got == bits(one.lambda_g[0], one.Lambda_g[0],
                                   one.lambda_d[0], one.Lambda_d[0],
                                   one.spread[0])

    def test_off_node_points_snap_like_scalar_calls(self):
        u = _probe_profiles()["annulus"]
        nodes = u.grid.nodes
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        r = np.concatenate([mids, nodes[:-1] + 0.3 * np.diff(nodes),
                            [nodes[0] - 1e-13, nodes[-1] + 1e-13]])
        dn = derivative_numbers(u, r, 0.2, 3)
        for k, rk in enumerate(r):
            ref = reference_derivative_numbers(u, float(rk), 0.2, 3)
            assert bits(dn.lambda_g[k], dn.Lambda_g[k], dn.lambda_d[k],
                        dn.Lambda_d[k]) == bits(ref.lambda_g, ref.Lambda_g,
                                                ref.lambda_d, ref.Lambda_d)
        assert np.array_equal(u.grid.nearest_index(r),
                              [int(np.argmin(np.abs(nodes - rk))) for rk in r])

    def test_array_call_validates_every_point(self):
        u = uniform_profile(lambda r: r, n=10)
        with pytest.raises(OutsideDomain):
            derivative_numbers(u, np.array([0.5, 2.0]), 0.5, 2)
        with pytest.raises(WindowTooSmall):
            derivative_numbers(u, np.array([0.5, 0.6]),
                               np.array([0.5, 0.05]), 2)


class TestDiscreteRadialFunction:
    def test_interpolation(self):
        u = uniform_profile(lambda r: 2.0 * r, n=10)
        assert u(0.05) == pytest.approx(0.1)
        assert np.allclose(u(np.array([0.0, 1.0])), [0.0, 2.0])

    def test_outside_domain_raises(self):
        u = uniform_profile(lambda r: r, n=10)
        with pytest.raises(OutsideDomain):
            u(1.5)

    def test_length_mismatch(self):
        grid = RadialGrid.for_domain(Domain.ball(1.0), 10)
        with pytest.raises(GridMismatch):
            DiscreteRadialFunction(grid, np.zeros(5))

    def test_nonfinite_rejected(self):
        grid = RadialGrid.for_domain(Domain.ball(1.0), 4)
        vals = np.zeros(5)
        vals[2] = np.nan
        with pytest.raises(InvalidSpec):
            DiscreteRadialFunction(grid, vals)

    def test_holds_a_copy_of_its_values(self):
        grid = RadialGrid.for_domain(Domain.ball(1.0), 16)
        vals = np.sin(grid.nodes)
        u = DiscreteRadialFunction(grid, vals)
        q, m = interior_quotients(u)
        lip = lipschitz_constant(u)
        vals[:] = 7.0
        fresh = DiscreteRadialFunction(grid, np.sin(grid.nodes))
        assert np.array_equal(u.values, fresh.values)
        assert interior_quotients(u) == (q, m)
        assert np.array_equal(q, interior_quotients(fresh)[0])
        assert np.array_equal(m, interior_quotients(fresh)[1])
        assert lipschitz_constant(u) == lip == lipschitz_constant(fresh)

    def test_kept_arrays_are_read_only(self):
        grid = RadialGrid.for_domain(Domain.ball(1.0), 16)
        u = DiscreteRadialFunction(grid, grid.nodes ** 2)
        q, m = interior_quotients(u)
        # the quotients are kept, not rebuilt
        assert interior_quotients(u)[0] is q
        for array in (u.values, q, m, grid.nodes, grid.spacing):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_csv_round_trip(self, tmp_path):
        # "%.17g" keeps every bit: the file reads back to the same floats
        grid = RadialGrid.for_domain(Domain.ball(1.0), 20,
                                     Grading.GRADED_AT_ORIGIN)
        u = DiscreteRadialFunction(grid, np.exp(grid.nodes) / 3.0)
        path = tmp_path / "u.csv"
        u.to_csv(path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(rows[:, 0], u.grid.nodes)
        assert np.array_equal(rows[:, 1], u.values)

    def test_csv_bytes_match_row_by_row_format(self, tmp_path):
        # the array-at-a-time writer against the row-by-row "%.17g" on
        # signed zeros, a subnormal and values near the float range
        nodes = np.array([-1e300, -0.0, 5e-324, 0.1, 1.0 / 3.0, 1e300])
        values = np.array([-0.0, 5e-324, 1e300, -1e300, 0.0, -2.0 / 3.0])
        text = _written(tmp_path, nodes, values)
        assert text == _row_by_row(nodes, values)
        assert b"\n-0,4.9406564584124654e-324\n" in text
        # ties to even, where floor(log10) is one too high (the double
        # below each power of ten), either side of the ends of fixed
        # notation, and trailing zeros; each value also negated
        below = np.nextafter(10.0 ** np.arange(-4, 18), 0.0)
        edge = np.unique(np.concatenate([
            [1 + 2 ** -17, 1 + 3 * 2 ** -17, 0.5 + 2 ** -18],
            below, [1e-4, np.nextafter(1e-4, 1.0), 1e17,
                    np.nextafter(1e17, np.inf)],
            [0.5, 0.25, 1.0, 100.0, 123456.0, 2.0 ** 53, 1e16]]))
        nodes = np.concatenate([-edge[::-1], edge])
        values = np.roll(nodes, 7)
        text = _written(tmp_path, nodes, values)
        assert text == _row_by_row(nodes, values)
        for row in (b"1.0000076293945312,", b"99.999999999999986,",
                    b"9.9999999999999991e-05,", b"-0.00010000000000000002,",
                    b"1e+17,", b"99999999999999984,", b"0.5,", b"-100,",
                    b"10000000000000000,"):
            assert b"\n" + row in text
        # a profile written in more than one array of values
        nodes = np.linspace(0.0, 1.0, 2500) ** 1.5
        values = np.sin(40.0 * nodes) * 10.0 ** np.arange(-6, 19)[
            np.arange(2500) % 25]
        assert _written(tmp_path, nodes, values) == _row_by_row(nodes, values)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(CSV_NODES, CSV_VALUES), min_size=2,
                         max_size=40, unique_by=lambda row: row[0]))
    def test_csv_bytes_match_row_by_row_format_on_any_floats(self, tmp_path,
                                                               rows):
        rows.sort()
        nodes, values = (np.array(column) for column in zip(*rows))
        assert _written(tmp_path, nodes, values) == _row_by_row(nodes, values)

    @pytest.mark.parametrize("count", [4, _CSV_CHUNK - 2, _CSV_CHUNK,
                                       _CSV_CHUNK + 2, 2 * _CSV_CHUNK])
    def test_csv_bytes_match_row_by_row_format_at_chunk_ends(self, tmp_path,
                                                             count):
        # profiles of count values: two nodes, exactly one chunk, one node
        # either side of it, and exactly two chunks
        nodes = np.linspace(0.0, 1.0, count // 2) ** 1.5
        values = np.sin(40.0 * nodes) * 10.0 ** np.arange(-6, 19)[
            np.arange(count // 2) % 25]
        text = _written(tmp_path, nodes, values)
        assert text == _row_by_row(nodes, values)
        assert text.startswith(b"r,u\n")
        assert text.endswith(b"\n") and not text.endswith(b"\n\n")

    def test_csv_bytes_match_row_by_row_format_on_every_exponent(self,
                                                                 tmp_path):
        # one chunk that holds every exponent e of fixed notation in both
        # signs, integral values whose integer part keeps its zeros, and
        # values whose 16 digits after the first are all zero
        mantissas = np.random.default_rng(5).uniform(1.5, 9.5, 4)
        edge = np.unique(np.concatenate(
            [mantissas * 10.0 ** e for e in range(-4, 17)]
            + [[100.0, 1000.0, 120000.5, 1e16, 99999999999999984.0, 0.5,
                0.25, 0.001, 1.0, 10.0, 1.5]]))
        nodes = np.concatenate([-edge[::-1], edge])
        values = np.roll(nodes, 13)
        assert 2 * len(nodes) <= _CSV_CHUNK
        text = _written(tmp_path, nodes, values)
        assert text == _row_by_row(nodes, values)
        for row in (b"100,", b"-1000,", b"120000.5,", b"10000000000000000,",
                    b"-99999999999999984,", b"0.5,", b"-0.25,", b"0.001,",
                    b"-1,", b"10,", b"1.5,"):
            assert b"\n" + row in text

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(CSV_NODES, CSV_VALUES), min_size=1,
                         max_size=40, unique_by=lambda row: row[0]),
           shift=st.integers(0, 40))
    def test_csv_bytes_match_row_by_row_format_across_a_chunk_end(
            self, tmp_path, rows, shift):
        # the drawn rows follow rows of fixed notation, so that they start
        # at or straddle the end of the first chunk
        rows.sort()
        nodes, values = (np.array(column) for column in zip(*rows))
        lead = _CSV_CHUNK // 2 - min(shift, len(rows))
        step = max(1.0, abs(nodes[0])) / 1024
        nodes = np.concatenate([nodes[0] - step * np.arange(lead, 0, -1),
                                nodes])
        values = np.concatenate([np.linspace(1e-3, 0.5, lead), values])
        assert _written(tmp_path, nodes, values) == _row_by_row(nodes, values)


def _written(tmp_path, nodes, values) -> bytes:
    path = tmp_path / "u.csv"
    DiscreteRadialFunction(RadialGrid(nodes), values).to_csv(path)
    return path.read_bytes()


def _row_by_row(nodes, values) -> bytes:
    rows = zip(nodes.tolist(), values.tolist())
    return ("r,u\n" + "".join("%.17g,%.17g\n" % row for row in rows)).encode()


class TestLipschitz:
    def test_linear(self):
        u = uniform_profile(lambda r: -3.0 * r, n=17)
        assert lipschitz_constant(u) == pytest.approx(3.0)

    def test_quadratic_attains_near_boundary(self):
        # |(u(r+h)-u(r))/h| for u = r^2 peaks on the last cell: 2 - h
        n = 50
        u = uniform_profile(lambda r: r * (2.0 - r), n=n)
        assert lipschitz_constant(u) == pytest.approx(2.0 - 1.0 / n, rel=1e-12)
