"""Property-based equivalence suite: vectorized kernels vs scalar references.

Every batched path introduced by ``repro.kernels`` must return *exactly*
what the retained scalar loop returns — same ids, same order under the
``(distance, item_id)`` tie rule — on random, collinear, duplicate-point,
and empty inputs.  The scalar references live in
:mod:`repro.kernels.reference`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.cleaning import heading_outliers, speed_outliers, zscore_outliers
from repro.core import BBox, Point, Trajectory, TrajectoryPoint, haversine_m
from repro.kernels import reference
from repro.querying import (
    GridIndex,
    RTree,
    brute_force_knn,
    brute_force_knn_many,
    brute_force_range,
    brute_force_range_many,
    build_entries,
)

settings.register_profile("kernels", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("kernels")

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def coords_strategy(min_size=0, max_size=60):
    """Point lists biased toward degeneracy: duplicates and collinear runs."""
    random_pts = st.lists(st.tuples(finite, finite), min_size=min_size, max_size=max_size)
    collinear = st.builds(
        lambda xs, slope, b: [(x, slope * x + b) for x in xs],
        st.lists(finite, min_size=min_size, max_size=max_size),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        finite,
    )
    duplicated = st.builds(
        lambda pts, reps: [p for p in pts for _ in range(reps)],
        st.lists(st.tuples(finite, finite), min_size=max(1, min_size), max_size=12),
        st.integers(min_value=1, max_value=4),
    )
    return st.one_of(random_pts, collinear, duplicated)


def as_points(raw):
    return [Point(float(x), float(y)) for x, y in raw]


# ---------------------------------------------------------------------------
# Brute-force query kernels vs scalar linear scans
# ---------------------------------------------------------------------------


class TestBruteForceEquivalence:
    @given(raw=coords_strategy(), cx=finite, cy=finite, radius=st.floats(0, 2e6))
    def test_range_matches_scalar(self, raw, cx, cy, radius):
        entries = build_entries(as_points(raw))
        center = Point(cx, cy)
        assert brute_force_range(entries, center, radius) == reference.scalar_range(
            entries, center, radius
        )

    @given(raw=coords_strategy(), cx=finite, cy=finite, k=st.integers(0, 70))
    def test_knn_matches_scalar(self, raw, cx, cy, k):
        entries = build_entries(as_points(raw))
        center = Point(cx, cy)
        assert brute_force_knn(entries, center, k) == reference.scalar_knn(
            entries, center, k
        )

    def test_empty_entries(self):
        assert brute_force_range([], Point(0, 0), 10.0) == []
        assert brute_force_knn([], Point(0, 0), 3) == []
        assert brute_force_range_many([], [Point(0, 0)], 1.0) == [[]]
        assert brute_force_knn_many([], [Point(0, 0)], 3) == [[]]

    @given(
        raw=coords_strategy(min_size=1),
        centers=st.lists(st.tuples(finite, finite), min_size=1, max_size=8),
        radius=st.floats(0, 2e6),
        k=st.integers(1, 20),
    )
    def test_batch_matches_per_query(self, raw, centers, radius, k):
        entries = build_entries(as_points(raw))
        pts = as_points(centers)
        assert brute_force_range_many(entries, pts, radius) == [
            brute_force_range(entries, c, radius) for c in pts
        ]
        assert brute_force_knn_many(entries, pts, k) == [
            brute_force_knn(entries, c, k) for c in pts
        ]

    def test_per_query_radii(self):
        entries = build_entries([Point(0, 0), Point(3, 4), Point(6, 8)])
        out = brute_force_range_many(entries, [Point(0, 0), Point(0, 0)], [1.0, 5.0])
        assert out == [[0], [0, 1]]


# ---------------------------------------------------------------------------
# Indexes vs scalar baselines (shared (distance, id) tie rule)
# ---------------------------------------------------------------------------


class TestIndexEquivalence:
    @given(
        raw=st.lists(
            st.tuples(st.floats(0, 1000, allow_nan=False), st.floats(0, 1000, allow_nan=False)),
            min_size=0,
            max_size=80,
        ),
        cx=st.floats(-200, 1200, allow_nan=False),
        cy=st.floats(-200, 1200, allow_nan=False),
        radius=st.floats(0, 1500, allow_nan=False),
        k=st.integers(1, 30),
    )
    def test_grid_and_rtree_match_scalar(self, raw, cx, cy, radius, k):
        pts = as_points(raw)
        entries = build_entries(pts)
        center = Point(cx, cy)
        grid = GridIndex(BBox(0, 0, 1000, 1000), 100.0)
        for e in entries:
            grid.insert(e)
        tree = RTree(entries)
        assert sorted(grid.range_query(center, radius)) == sorted(
            reference.scalar_range(entries, center, radius)
        )
        assert sorted(tree.range_query(center, radius)) == sorted(
            reference.scalar_range(entries, center, radius)
        )
        assert grid.knn(center, k) == reference.scalar_knn(entries, center, k)
        assert tree.knn(center, k) == reference.scalar_knn(entries, center, k)


# ---------------------------------------------------------------------------
# Motion and screen kernels vs scalar loops
# ---------------------------------------------------------------------------


def traj_strategy(min_size=0, max_size=50):
    return st.lists(
        st.tuples(finite, finite, st.floats(0.05, 10, allow_nan=False)),
        min_size=min_size,
        max_size=max_size,
    ).map(
        lambda rows: Trajectory(
            [
                TrajectoryPoint(x, y, float(t))
                for (x, y, _), t in zip(rows, np.cumsum([dt for _, _, dt in rows]))
            ]
        )
    )


class TestMotionKernels:
    @given(traj=traj_strategy())
    def test_speeds_match_scalar(self, traj):
        assert traj.speeds().tolist() == pytest.approx(
            reference.scalar_speeds(traj.points), abs=0, rel=1e-12
        )

    @given(traj=traj_strategy())
    def test_headings_match_scalar(self, traj):
        assert traj.headings().tolist() == pytest.approx(
            reference.scalar_headings(traj.points), abs=1e-15
        )

    @given(traj=traj_strategy(min_size=2))
    def test_intervals_positive(self, traj):
        gaps = traj.sampling_intervals()
        assert gaps.shape == (len(traj) - 1,)
        assert (gaps > 0).all()

    def test_empty_trajectory(self):
        t = Trajectory([])
        assert t.as_xyt().shape == (0, 3)
        assert t.speeds().shape == (0,)
        assert t.headings().shape == (0,)

    @given(traj=traj_strategy())
    def test_derived_arrays_cached_and_frozen(self, traj):
        a, b = traj.as_xyt(), traj.as_xyt()
        assert a is b and not a.flags.writeable
        assert traj.speeds() is traj.speeds()

    @given(
        lon1=st.floats(-180, 180), lat1=st.floats(-90, 90),
        lon2=st.floats(-180, 180), lat2=st.floats(-90, 90),
    )
    def test_haversine_matches_scalar(self, lon1, lat1, lon2, lat2):
        batch = kernels.haversine_m_many([lon1], [lat1], [lon2], [lat2])
        assert float(batch[0]) == pytest.approx(haversine_m(lon1, lat1, lon2, lat2), rel=1e-12)


class TestScreenKernels:
    @given(traj=traj_strategy(), max_speed=st.floats(0.1, 1e4))
    def test_speed_screen_matches_scalar(self, traj, max_speed):
        assert speed_outliers(traj, max_speed) == reference.scalar_speed_outliers(
            traj, max_speed
        )

    @given(traj=traj_strategy(), max_turn=st.floats(0.1, 3.1))
    def test_heading_screen_matches_scalar(self, traj, max_turn):
        assert heading_outliers(traj, max_turn) == reference.scalar_heading_outliers(
            traj, max_turn
        )

    @given(traj=traj_strategy(), window=st.integers(3, 15), threshold=st.floats(0.5, 5))
    def test_zscore_screen_matches_scalar(self, traj, window, threshold):
        assert zscore_outliers(traj, window, threshold) == reference.scalar_zscore_outliers(
            traj, window, threshold
        )

    @given(values=st.lists(finite, min_size=0, max_size=80), half=st.integers(1, 7))
    def test_windowed_medians_match_scalar(self, values, half):
        v = np.asarray(values, dtype=float)
        got = kernels.windowed_medians(v, half)
        want = [
            float(np.median(v[max(0, i - half) : min(len(v), i + half + 1)]))
            for i in range(len(v))
        ]
        assert got.tolist() == want


# ---------------------------------------------------------------------------
# Distance kernel algebra
# ---------------------------------------------------------------------------


class TestDistanceKernels:
    @given(raw=coords_strategy(min_size=1), cx=finite, cy=finite)
    def test_dists_match_scalar_hypot_closely(self, raw, cx, cy):
        coords = kernels.coords_of(as_points(raw))
        d = kernels.dists_to(coords, Point(cx, cy))
        want = [math.hypot(x - cx, y - cy) for x, y in raw]
        assert d.tolist() == pytest.approx(want, rel=1e-15, abs=1e-15)

    @given(raw=coords_strategy(min_size=1, max_size=20))
    def test_cross_dists_symmetry(self, raw):
        coords = kernels.coords_of(as_points(raw))
        d = kernels.cross_dists(coords, coords)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_knn_select_tie_rule(self):
        dists = np.array([1.0, 1.0, 0.5, 1.0, 2.0])
        ids = np.array([9, 2, 7, 4, 1], dtype=np.int64)
        assert kernels.knn_select(dists, ids, 3).tolist() == [7, 2, 4]
        assert kernels.knn_select(dists, ids, 10).tolist() == [7, 2, 4, 9, 1]
        assert kernels.knn_select(dists, ids, 0).tolist() == []

    def test_empty_inputs(self):
        empty = np.zeros((0, 2))
        assert kernels.dists_to(empty, Point(0, 0)).shape == (0,)
        assert kernels.cross_dists(empty, empty).shape == (0, 0)
        assert kernels.paired_dists(empty, empty).shape == (0,)
        assert kernels.knn_select(np.zeros(0), np.zeros(0, dtype=np.int64), 5).shape == (0,)
        assert kernels.box_min_dists(np.zeros((0, 4)), Point(0, 0)).shape == (0,)
        assert kernels.box_min_dists_many(np.zeros((0, 4)), np.ones((3, 2))).shape == (3, 0)
        assert kernels.box_min_dists_many(np.ones((5, 4)), empty).shape == (0, 5)

    @given(raw=coords_strategy(min_size=1, max_size=30), centers=coords_strategy(min_size=1, max_size=8))
    def test_batched_forms_bit_identical_to_per_query(self, raw, centers):
        """The batch routers lean on exact equality, not closeness: each row
        of a batched kernel must equal the per-query kernel bit for bit."""
        coords = kernels.coords_of(as_points(raw))
        c = kernels.coords_of(as_points(centers))
        lo = np.minimum(coords, coords[::-1])
        boxes = np.hstack([lo, lo + np.abs(coords - coords[::-1])])
        many = kernels.box_min_dists_many(boxes, c)
        cross = kernels.cross_dists(c, coords)
        for q in range(c.shape[0]):
            assert np.array_equal(many[q], kernels.box_min_dists(boxes, c[q]))
            assert np.array_equal(cross[q], kernels.dists_to(coords, c[q]))
            rep = np.repeat(c[q : q + 1], coords.shape[0], axis=0)
            assert np.array_equal(kernels.paired_dists(coords, rep), kernels.dists_to(coords, c[q]))

    @given(
        bx=st.tuples(finite, finite, finite, finite),
        cx=finite,
        cy=finite,
    )
    def test_box_dists_match_bbox_methods(self, bx, cx, cy):
        x0, y0, x1, y1 = bx
        box = BBox(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
        rows = np.array([[box.min_x, box.min_y, box.max_x, box.max_y]])
        c = Point(cx, cy)
        assert float(kernels.box_min_dists(rows, c)[0]) == pytest.approx(
            box.min_distance_to(c), rel=1e-15, abs=1e-15
        )
        assert float(kernels.box_max_dists(rows, c)[0]) == pytest.approx(
            box.max_distance_to(c), rel=1e-15, abs=1e-15
        )


# ---------------------------------------------------------------------------
# Same-named reference twins: every public kernel vs its scalar twin (R3)
# ---------------------------------------------------------------------------


def _twin_rng():
    return np.random.default_rng(20260806)


def _twin_coords(rng, n=40):
    pts = rng.uniform(-200.0, 200.0, size=(n, 2))
    pts[5] = pts[4]  # duplicate rows exercise the (distance, id) tie rule
    pts[6] = pts[4]
    return pts


def _twin_xyt(rng, n=30):
    xy = np.cumsum(rng.normal(0.0, 5.0, size=(n, 2)), axis=0)
    t = np.cumsum(rng.uniform(0.5, 2.0, size=n))
    return np.column_stack([xy, t])


def _twin_boxes(rng, n=12):
    lo = rng.uniform(-100.0, 100.0, size=(n, 2))
    hi = lo + rng.uniform(0.0, 60.0, size=(n, 2))
    return np.hstack([lo, hi])[:, [0, 1, 2, 3]]


#: name -> zero-arg builder of the positional args both twins receive.
#: Keys must cover every public function of kernels.{distances,motion,
#: screens} — reprolint rule R3 and test_every_kernel_has_reference_twin
#: both enforce the pairing.
PARITY_BUILDERS = {
    "dists_to": lambda rng: (_twin_coords(rng), Point(3.0, -7.0)),
    "cross_dists": lambda rng: (_twin_coords(rng, 25), _twin_coords(rng, 18)),
    "range_mask": lambda rng: (_twin_coords(rng), Point(0.0, 0.0), 150.0),
    "range_masks": lambda rng: (
        _twin_coords(rng),
        rng.uniform(-100.0, 100.0, size=(6, 2)),
        rng.uniform(10.0, 200.0, size=6),
    ),
    "knn_select": lambda rng: (
        np.repeat(rng.uniform(0.0, 50.0, size=10), 2),
        rng.permutation(20).astype(np.int64),
        7,
    ),
    "knn_select_many": lambda rng: (
        _twin_coords(rng),
        rng.permutation(40).astype(np.int64),
        rng.uniform(-100.0, 100.0, size=(5, 2)),
        6,
    ),
    "chunked_range_hits": lambda rng: (
        [
            (_twin_coords(rng, 20), np.arange(20, dtype=np.int64)),
            (np.zeros((0, 2)), np.zeros(0, dtype=np.int64)),
            (_twin_coords(rng, 15), np.arange(100, 115, dtype=np.int64)),
        ],
        rng.uniform(-100.0, 100.0, size=(6, 2)),
        rng.uniform(10.0, 200.0, size=6),
    ),
    "paired_dists": lambda rng: (_twin_coords(rng, 25), _twin_coords(rng, 25)[::-1]),
    "box_min_dists": lambda rng: (_twin_boxes(rng), Point(5.0, 5.0)),
    "box_min_dists_many": lambda rng: (_twin_boxes(rng), rng.uniform(-120.0, 120.0, size=(7, 2))),
    "box_max_dists": lambda rng: (_twin_boxes(rng), Point(5.0, 5.0)),
    "box_gap_dists": lambda rng: (BBox(-20.0, -20.0, 20.0, 20.0), _twin_boxes(rng)),
    "haversine_m_many": lambda rng: (
        rng.uniform(-180.0, 180.0, size=15),
        rng.uniform(-85.0, 85.0, size=15),
        rng.uniform(-180.0, 180.0, size=15),
        rng.uniform(-85.0, 85.0, size=15),
    ),
    "leg_displacements": lambda rng: (_twin_xyt(rng),),
    "leg_speeds": lambda rng: (_twin_xyt(rng),),
    "leg_headings": lambda rng: (_twin_xyt(rng),),
    "sampling_intervals": lambda rng: (np.cumsum(rng.uniform(0.1, 3.0, size=25)),),
    "turn_angles": lambda rng: (rng.uniform(-np.pi, np.pi, size=25),),
    "path_length": lambda rng: (_twin_xyt(rng),),
    "windowed_medians": lambda rng: (rng.normal(0.0, 5.0, size=31), 3),
    "windowed_median_residuals": lambda rng: (_twin_xyt(rng), 7),
    "robust_zscores": lambda rng: (np.abs(rng.normal(0.0, 2.0, size=40)),),
    "both_leg_flags": lambda rng: (rng.random(20) < 0.4,),
}

_EMPTY_BUILDERS = {
    "dists_to": lambda rng: (np.zeros((0, 2)), Point(0.0, 0.0)),
    "leg_displacements": lambda rng: (np.zeros((0, 3)),),
    "turn_angles": lambda rng: (np.zeros(0),),
    "windowed_medians": lambda rng: (np.zeros(0), 2),
    "robust_zscores": lambda rng: (np.zeros(0),),
    "both_leg_flags": lambda rng: (np.zeros(0, dtype=bool),),
    "knn_select": lambda rng: (np.zeros(0), np.zeros(0, dtype=np.int64), 4),
    "paired_dists": lambda rng: (np.zeros((0, 2)), np.zeros((0, 2))),
    "box_min_dists_many": lambda rng: (np.zeros((0, 4)), rng.uniform(-50.0, 50.0, size=(3, 2))),
    "chunked_range_hits": lambda rng: (
        [],
        rng.uniform(-100.0, 100.0, size=(3, 2)),
        50.0,
    ),
}


def _assert_twin_equal(name, got, want):
    if name == "both_leg_flags":
        assert got == want
    elif name == "path_length":
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    elif name == "knn_select":
        np.testing.assert_array_equal(got, want)
    elif name in ("knn_select_many", "chunked_range_hits"):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
    elif name in ("range_mask", "range_masks"):
        np.testing.assert_array_equal(got, want)
    else:
        got_arr, want_arr = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got_arr.shape == want_arr.shape
        np.testing.assert_allclose(got_arr, want_arr, rtol=1e-9, atol=1e-9)


class TestReferenceTwins:
    """Each public kernel agrees with its same-named scalar twin."""

    @pytest.mark.parametrize("name", sorted(PARITY_BUILDERS))
    def test_parity(self, name):
        args = PARITY_BUILDERS[name](_twin_rng())
        _assert_twin_equal(name, getattr(kernels, name)(*args), getattr(reference, name)(*args))

    @pytest.mark.parametrize("name", sorted(_EMPTY_BUILDERS))
    def test_parity_on_empty_inputs(self, name):
        args = _EMPTY_BUILDERS[name](_twin_rng())
        _assert_twin_equal(name, getattr(kernels, name)(*args), getattr(reference, name)(*args))

    def test_every_kernel_has_reference_twin(self):
        """Mechanical mirror of reprolint rule R3: no kernel without a twin."""
        import repro.kernels.distances as distances
        import repro.kernels.motion as motion
        import repro.kernels.screens as screens

        for mod in (distances, motion, screens):
            for name, obj in vars(mod).items():
                if name.startswith("_") or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                assert hasattr(reference, name), f"no reference twin for kernel {name}"
                assert name in PARITY_BUILDERS, f"kernel {name} missing a parity case"
