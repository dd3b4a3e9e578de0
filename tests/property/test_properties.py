"""Property-based tests (hypothesis) for core invariants.

Covers the contracts the rest of the library leans on: geometry identities,
codec round-trips, index-vs-brute-force agreement, error-bounded
simplification, monotone timestamp repair, and probability-model sanity.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.cleaning import isotonic_repair, order_violations
from repro.core import BBox, Point, Trajectory, TrajectoryPoint
from repro.core.geometry import (
    interpolate,
    point_segment_distance,
    perpendicular_distance,
    polyline_length,
    project_point_to_segment,
)
from repro.querying import (
    GridIndex,
    RTree,
    brute_force_knn,
    brute_force_range,
    build_entries,
)
from repro.reduction import (
    SquishE,
    compress_series_lossless,
    decompress_series_lossless,
    ltc_compress,
    ltc_decompress,
    max_sed_error,
    opening_window,
    suppress_constant,
    td_tr,
)
from repro.reduction.stid_codec import (
    decode_varint,
    encode_varint,
    zigzag_decode,
    zigzag_encode,
)

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
small_coords = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)


def points(draw_coords=coords):
    return st.builds(Point, draw_coords, draw_coords)


class TestGeometryProperties:
    @given(points(), points())
    def test_distance_symmetry(self, a, b):
        assert a.distance_to(b) == b.distance_to(a)

    @given(points(), points(), points())
    @settings(max_examples=200)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6

    @given(points(), points(), st.floats(min_value=0, max_value=1))
    def test_interpolation_between_endpoints(self, a, b, f):
        p = interpolate(a, b, f)
        d = a.distance_to(b)
        assert a.distance_to(p) <= d * 1.0000001 + 1e-9
        assert b.distance_to(p) <= d * 1.0000001 + 1e-9

    @given(points(), points(), points())
    def test_projection_minimizes_distance(self, p, a, b):
        q, t = project_point_to_segment(p, a, b)
        assert 0.0 <= t <= 1.0
        # The projection is no farther than either endpoint.
        assert p.distance_to(q) <= p.distance_to(a) + 1e-6
        assert p.distance_to(q) <= p.distance_to(b) + 1e-6

    @given(points(), points(), points())
    # A subnormal segment: without normalizing its direction first, the
    # cross product loses its precision and reads 2.0 here, not 1.5.
    @example(Point(0.0, 1.5), Point(0.0, 0.0), Point(5e-324, 0.0))
    def test_perpendicular_le_segment_distance(self, p, a, b):
        assert (
            perpendicular_distance(p, a, b)
            <= point_segment_distance(p, a, b) + 1e-6
        )

    @given(st.lists(points(small_coords), min_size=2, max_size=20))
    def test_polyline_length_ge_endpoint_distance(self, pts):
        assert polyline_length(pts) >= pts[0].distance_to(pts[-1]) - 1e-6

    @given(st.lists(points(small_coords), min_size=1, max_size=30))
    def test_bbox_contains_all_points(self, pts):
        box = BBox.from_points(pts)
        assert all(box.contains(p) for p in pts)


class TestCodecProperties:
    @given(st.integers(min_value=0, max_value=2**50))
    def test_varint_roundtrip(self, v):
        buf = bytearray()
        encode_varint(v, buf)
        out, _ = decode_varint(bytes(buf), 0)
        assert out == v

    @given(st.integers(min_value=-(2**40), max_value=2**40))
    def test_zigzag_roundtrip(self, v):
        assert zigzag_decode(zigzag_encode(v)) == v

    @given(
        st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), max_size=200
        )
    )
    @settings(max_examples=50)
    def test_lossless_series_roundtrip(self, values):
        vals = np.round(np.array(values), 2)
        back = decompress_series_lossless(compress_series_lossless(vals, 100.0))
        assert np.allclose(back, vals, atol=1e-6)

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=2,
            max_size=100,
        ),
        st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=50)
    def test_ltc_error_bound(self, values, eps):
        t = np.arange(float(len(values)))
        vals = np.array(values)
        knots = ltc_compress(t, vals, eps)
        recon = ltc_decompress(knots, t)
        assert np.max(np.abs(recon - vals)) <= eps + 1e-6

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=100,
        ),
        st.floats(min_value=0.01, max_value=20.0),
    )
    @settings(max_examples=50)
    def test_suppression_error_bound(self, values, tol):
        vals = np.array(values)
        res = suppress_constant(vals, tol)
        assert res.max_error(vals) <= tol + 1e-9


def trajectories(min_size=2, max_size=60):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=min_size, max_value=max_size))
        xs = draw(
            st.lists(small_coords, min_size=n, max_size=n)
        )
        ys = draw(
            st.lists(small_coords, min_size=n, max_size=n)
        )
        return Trajectory(
            [TrajectoryPoint(x, y, float(i)) for i, (x, y) in enumerate(zip(xs, ys))]
        )

    return build()


class TestSimplificationProperties:
    @given(trajectories(), st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_tdtr_sed_bound(self, traj, eps):
        out = td_tr(traj, eps)
        assert max_sed_error(traj, out) <= eps + 1e-6

    @given(trajectories(), st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_opening_window_sed_bound(self, traj, eps):
        out = opening_window(traj, eps)
        assert max_sed_error(traj, out) <= eps + 1e-6

    @given(trajectories(), st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_squish_sed_bound(self, traj, eps):
        out = SquishE(eps).simplify(traj)
        assert max_sed_error(traj, out) <= eps + 1e-6

    @given(trajectories(), st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_simplification_keeps_endpoints(self, traj, eps):
        for out in (td_tr(traj, eps), opening_window(traj, eps)):
            assert out[0] == traj[0]
            assert out[-1] == traj[-1]


class TestRepairProperties:
    @given(
        st.lists(
            st.floats(min_value=-1e5, max_value=1e5, allow_nan=False), max_size=100
        )
    )
    def test_isotonic_output_monotone(self, times):
        out = isotonic_repair(np.array(times))
        assert order_violations(out) == 0

    @given(
        st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    def test_isotonic_preserves_mean(self, times):
        """PAVA block means equal the data means -> total sum preserved."""
        t = np.array(times)
        out = isotonic_repair(t)
        assert abs(np.sum(out) - np.sum(t)) < 1e-6 * max(1.0, np.abs(t).sum())


class TestIndexProperties:
    @given(
        st.lists(points(small_coords), min_size=1, max_size=120),
        points(small_coords),
        st.floats(min_value=1.0, max_value=500.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_rtree_range_equals_brute_force(self, pts, q, radius):
        entries = build_entries(pts)
        tree = RTree(entries, leaf_capacity=4)
        assert sorted(tree.range_query(q, radius)) == sorted(
            brute_force_range(entries, q, radius)
        )

    @given(
        st.lists(points(small_coords), min_size=1, max_size=120),
        points(small_coords),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_rtree_knn_equals_brute_force(self, pts, q, k):
        entries = build_entries(pts)
        tree = RTree(entries, leaf_capacity=4)
        got = tree.knn(q, k)
        want = brute_force_knn(entries, q, k)
        # Distances must agree (ids may tie at equal distance).
        got_d = [entries[i].point.distance_to(q) for i in got]
        want_d = [entries[i].point.distance_to(q) for i in want]
        assert np.allclose(got_d, want_d)

    @given(
        st.lists(points(small_coords), min_size=1, max_size=120),
        points(small_coords),
        st.floats(min_value=1.0, max_value=500.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_grid_range_equals_brute_force(self, pts, q, radius):
        entries = build_entries(pts)
        grid = GridIndex(BBox(0, 0, 1000, 1000), 100.0)
        for e in entries:
            grid.insert(e)
        assert sorted(grid.range_query(q, radius)) == sorted(
            brute_force_range(entries, q, radius)
        )


class TestNewModuleProperties:
    @given(points(small_coords), st.binary(min_size=1, max_size=16))
    @settings(max_examples=60)
    def test_grid_shuffle_roundtrip(self, p, key):
        from repro.querying import GridShuffleScheme

        scheme = GridShuffleScheme(BBox(0, 0, 1000, 1000), 16, key)
        tp = scheme.transform(p, 0)
        assert scheme.recover(tp).distance_to(p) < 1e-6

    @given(trajectories(min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_trajectory_codec_roundtrip(self, traj):
        from repro.reduction import decode_trajectory, encode_trajectory

        back = decode_trajectory(encode_trajectory(traj, 10.0, 10.0))
        assert len(back) == len(traj)
        for a, b in zip(traj.points, back.points):
            assert a.point.distance_to(b.point) <= 0.08
            assert abs(a.t - b.t) <= 0.051

    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=80,
        ),
        st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=60)
    def test_screen_repair_satisfies_constraints(self, values, s_max):
        from repro.cleaning import screen_repair, speed_violations

        t = np.arange(float(len(values)))
        out = screen_repair(t, np.array(values), -s_max, s_max)
        assert speed_violations(t, out, -s_max, s_max) == 0

    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=40)
    )
    @settings(max_examples=60)
    def test_poisson_binomial_pmf_valid(self, probs):
        from repro.querying import count_distribution

        pmf = count_distribution(np.array(probs))
        assert pmf.sum() == pytest_approx(1.0)
        assert (pmf >= -1e-12).all()

    @given(
        points(st.floats(min_value=1.0, max_value=39.0)),
        points(st.floats(min_value=1.0, max_value=39.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_walking_distance_dominates_euclidean(self, a, b):
        from repro.indoor import grid_floor

        floor = grid_floor(4, 4, 10.0)
        assert floor.walking_distance(a, b) >= a.distance_to(b) - 1e-9


def pytest_approx(v):
    import pytest

    return pytest.approx(v, abs=1e-9)
