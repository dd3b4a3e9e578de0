"""Two-tier store invariants: delta buffers, compaction, and dependency sets.

The contract under test is the PR's tentpole: a point admitted through
``PartitionedStore.append`` is queryable immediately, every answer is
bit-identical to a from-scratch rebuild with the same membership
(``store.rebuilt()``), and compaction is a pure representation change —
it folds delta tails into base columns without perturbing a single
result.  The hypothesis suite at the bottom drives that equivalence
under shuffled admit orders and mid-stream compaction; the dependency
set tests pin the append-only kNN pruning bound.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BBox, Point
from repro.querying import (
    CompactionStats,
    PartitionedStore,
    grid_partition,
    kd_partition,
    skewed_points,
)
from repro.querying.distributed import (
    COMPACT_THRESHOLD_ENV,
    DEFAULT_COMPACT_THRESHOLD,
    resolve_compact_threshold,
)

REGION = BBox(0.0, 0.0, 1000.0, 1000.0)


def make_store(n_points=400, n_parts=9, seed=2022, partitioner="grid"):
    rng = np.random.default_rng(seed)
    points = skewed_points(rng, n_points, REGION, n_hotspots=3, hotspot_sigma=50.0)
    if partitioner == "grid":
        parts = grid_partition(points, REGION, int(np.sqrt(n_parts)))
    else:
        parts = kd_partition(points, REGION, n_parts)
    return PartitionedStore(points, parts), rng


def query_grid(rng, n=20):
    centers = [Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(n)]
    radii = rng.uniform(20.0, 150.0, n).tolist()
    return centers, radii


def assert_matches_rebuilt(store, centers, radii, k=5):
    fresh = store.rebuilt()
    assert store.range_query_many(centers, radii) == fresh.range_query_many(
        centers, radii
    )
    assert store.knn_many(centers, k) == fresh.knn_many(centers, k)


class TestDeltaBuffer:
    def test_append_visible_immediately_with_sequential_ids(self):
        store, rng = make_store()
        n0 = len(store.points)
        pid = store.append(Point(500.0, 500.0))
        assert pid == n0
        ids = store.append_many([Point(1.0, 1.0), Point(999.0, 999.0)])
        assert ids == [n0 + 1, n0 + 2]
        assert len(store.points) == n0 + 3
        hits = store.range_query(Point(500.0, 500.0), 1.0)
        assert pid in hits

    def test_append_outside_region_grows_scan_box_and_is_findable(self):
        store, _ = make_store()
        pid = store.append(Point(1500.0, -200.0))
        assert store.range_query(Point(1500.0, -200.0), 5.0) == [pid]
        assert pid in store.knn(Point(1400.0, -100.0), 3)
        # the static partition geometry is unchanged — only scan boxes grow
        boxes = store.partition_boxes
        assert boxes[:, 2].max() <= REGION.max_x
        assert boxes[:, 1].min() >= REGION.min_y

    def test_append_empty_batch_is_noop(self):
        store, _ = make_store()
        n0 = len(store.points)
        assert store.append_many([]) == []
        assert len(store.points) == n0

    def test_append_to_store_without_partitions_raises(self):
        store = PartitionedStore([], [])
        with pytest.raises(ValueError, match="no partitions"):
            store.append(Point(0.0, 0.0))

    def test_partitions_property_reflects_live_membership(self):
        store, _ = make_store()
        before = {i for part in store.partitions for i in part.point_indices}
        pid = store.append(Point(123.0, 456.0))
        after = [part.point_indices for part in store.partitions]
        live = {i for members in after for i in members}
        assert live == before | {pid}
        # exactly one partition absorbed the newcomer, at its tail
        gained = [m for m in after if pid in m]
        assert len(gained) == 1 and gained[0][-1] == pid

    def test_constructor_copies_points_list(self):
        points = [Point(10.0, 10.0), Point(900.0, 900.0)]
        parts = grid_partition(points, REGION, 2)
        store = PartitionedStore(points, parts)
        store.append(Point(50.0, 50.0))
        assert len(points) == 2  # caller's list untouched

    def test_delta_stats_accounting(self):
        store, _ = make_store(n_points=100, n_parts=4)
        stats = store.delta_stats()
        assert stats["points"] == 100.0
        assert stats["delta_points"] == 0.0
        store.append_many([Point(5.0, 5.0)] * 7)
        stats = store.delta_stats()
        assert stats["points"] == 107.0
        assert stats["base_points"] == 100.0
        assert stats["delta_points"] == 7.0
        assert stats["appends_total"] == 7.0
        assert 0.0 < stats["delta_fraction_max"] <= 1.0
        assert stats["compactions"] == 0.0

    def test_mixed_appends_match_rebuilt(self):
        store, rng = make_store()
        extra = skewed_points(rng, 120, REGION, n_hotspots=2, hotspot_sigma=30.0)
        extra.append(Point(-40.0, 1100.0))
        store.append_many(extra)
        centers, radii = query_grid(rng)
        assert_matches_rebuilt(store, centers, radii)

    def test_duplicate_coordinates_keep_id_tiebreak(self):
        store, _ = make_store(n_points=50, n_parts=4)
        target = Point(250.0, 250.0)
        ids = store.append_many([target, target, target])
        hits = store.knn(target, 3)
        # (distance, index) ordering: equal distances rank by id
        assert hits == sorted(ids)[:3]


class TestCompaction:
    def test_compact_folds_deltas_and_preserves_answers(self):
        store, rng = make_store()
        store.append_many(
            skewed_points(rng, 200, REGION, n_hotspots=2, hotspot_sigma=60.0)
        )
        centers, radii = query_grid(rng)
        before_range = store.range_query_many(centers, radii)
        before_knn = store.knn_many(centers, 7)
        stats = store.compact(threshold=0.0)
        assert isinstance(stats, CompactionStats)
        assert stats.points_folded == 200
        assert stats.partitions >= 1
        assert stats.seconds >= 0.0
        assert store.delta_stats()["delta_points"] == 0.0
        assert store.range_query_many(centers, radii) == before_range
        assert store.knn_many(centers, 7) == before_knn
        assert_matches_rebuilt(store, centers, radii)

    def test_threshold_selects_only_heavy_partitions(self):
        points = [Point(10.0, 10.0), Point(900.0, 900.0)]
        parts = grid_partition(points, REGION, 2)
        store = PartitionedStore(points, parts)
        # partition holding (10,10) gets a huge delta; the other none
        store.append_many([Point(20.0, 20.0)] * 9)
        stats = store.compact(threshold=0.5)
        assert stats.partitions == 1
        assert stats.points_folded == 9

    def test_compact_below_threshold_is_noop(self):
        store, _ = make_store()
        store.append(Point(500.0, 500.0))
        stats = store.compact(threshold=0.99)
        assert (stats.partitions, stats.points_folded) == (0, 0)
        assert store.delta_stats()["delta_points"] == 1.0

    def test_explicit_partition_ids_override_threshold(self):
        store, _ = make_store(n_points=100, n_parts=4)
        ids = store.append_many([Point(5.0, 5.0), Point(995.0, 995.0)])
        assert len(ids) == 2
        stats = store.compact(partition_ids=range(store._tiers.n_partitions))
        assert stats.points_folded == 2
        assert store.compactions == 1
        assert store.compacted_points == 2

    def test_compact_does_not_change_static_geometry(self):
        store, rng = make_store()
        boxes_before = store.partition_boxes.copy()
        store.append_many([Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
                           for _ in range(50)])
        store.compact(threshold=0.0)
        np.testing.assert_array_equal(store.partition_boxes, boxes_before)

    def test_repeated_append_compact_cycles(self):
        store, rng = make_store(n_points=200, n_parts=4)
        for _ in range(4):
            store.append_many(
                skewed_points(rng, 60, REGION, n_hotspots=1, hotspot_sigma=80.0)
            )
            store.compact(threshold=0.0)
        centers, radii = query_grid(rng)
        assert_matches_rebuilt(store, centers, radii)
        assert store.delta_stats()["compacted_points_total"] == 240.0

    def test_resolve_threshold_precedence(self, monkeypatch):
        monkeypatch.delenv(COMPACT_THRESHOLD_ENV, raising=False)
        assert resolve_compact_threshold() == DEFAULT_COMPACT_THRESHOLD
        assert resolve_compact_threshold(0.7) == 0.7
        monkeypatch.setenv(COMPACT_THRESHOLD_ENV, "0.1")
        assert resolve_compact_threshold() == 0.1
        assert resolve_compact_threshold(0.7) == 0.7  # explicit beats env
        monkeypatch.setenv(COMPACT_THRESHOLD_ENV, "not-a-float")
        with pytest.raises(ValueError):
            resolve_compact_threshold()


class TestKnnPartitionSetsTightening:
    """Satellite 1: strict min-distance bound on kNN dependency sets."""

    def test_tight_sets_subset_of_conservative(self):
        store, rng = make_store(n_points=600, n_parts=16, partitioner="kd")
        centers, _ = query_grid(rng, n=30)
        hits = store.knn_many(centers, 5)
        tight = store.knn_partition_sets(centers, hits, 5)
        loose = store.knn_partition_sets(centers, hits, 5, append_only=False)
        for t, l in zip(tight, loose):
            assert set(t) <= set(l)

    def test_exact_boundary_tie_pruned_only_when_append_only(self):
        # 2x2 grid over [0,1000]^2, cells split at x=500.  Query at
        # (100,250) with k=2: the k-th neighbour sits at distance exactly
        # 400, which is also exactly the min-distance to the right cells'
        # shared boundary.  A newcomer ON that boundary ties at the k-th
        # distance and loses the (distance, id) tie — the strict bound may
        # prune the boundary partition, the conservative one may not.
        points = [Point(100.0, 250.0), Point(500.0, 250.0)]
        store = PartitionedStore(points, grid_partition(points, REGION, 2))
        center = Point(100.0, 250.0)
        hits = store.knn_many([center], 2)
        assert sorted(hits[0]) == [0, 1]
        tight = store.knn_partition_sets([center], hits, 2)[0]
        loose = store.knn_partition_sets([center], hits, 2, append_only=False)[0]
        pruned = set(loose) - set(tight)
        assert pruned, "strict bound should drop the exact-tie partition"
        # the pruning is sound: appending ON the tie circle must not
        # change the answer (the newcomer's higher id loses the tie)
        store.append(Point(500.0, 250.0))
        assert store.knn_many([center], 2) == hits

    def test_appends_outside_set_never_change_answers(self):
        store, rng = make_store(n_points=500, n_parts=16, partitioner="kd")
        centers, _ = query_grid(rng, n=15)
        k = 4
        hits = store.knn_many(centers, k)
        sets = store.knn_partition_sets(centers, hits, k)
        boxes = store.partition_boxes
        for qi, dep in enumerate(sets):
            outside = [p for p in range(len(boxes)) if p not in dep]
            if not outside:
                continue
            p = outside[0]
            # centre of an untouched partition's box — routed there
            store.append(
                Point((boxes[p, 0] + boxes[p, 2]) / 2, (boxes[p, 1] + boxes[p, 3]) / 2)
            )
            assert store.knn_many([centers[qi]], k)[0] == hits[qi]

    def test_short_answer_depends_on_every_partition(self):
        store, _ = make_store(n_points=10, n_parts=4)
        center = Point(500.0, 500.0)
        hits = store.knn_many([center], 50)
        sets = store.knn_partition_sets([center], hits, 50)
        assert sets == [tuple(range(store._tiers.n_partitions))]
        # exact, not conservative: an append anywhere enters the answer
        pid = store.append(Point(999.0, 1.0))
        assert pid in store.knn_many([center], 50)[0]

    def test_hits_misalignment_raises(self):
        store, _ = make_store(n_points=20, n_parts=4)
        with pytest.raises(ValueError, match="align"):
            store.knn_partition_sets([Point(1.0, 1.0)], [])


class _InProcessPoolStub:
    workers = 2

    def map_ordered(self, fn, payloads):
        return [fn(p) for p in payloads]

    def close(self):
        pass


class TestParallelDeltaParity:
    def test_parallel_with_live_deltas_matches_serial(self):
        store, rng = make_store(n_points=500, n_parts=16, partitioner="kd")
        store.append_many(
            skewed_points(rng, 150, REGION, n_hotspots=2, hotspot_sigma=40.0)
        )
        centers, radii = query_grid(rng, n=30)
        serial = store.range_query_many(centers, radii)
        par = store.range_query_many(centers, radii, executor=_InProcessPoolStub())
        assert par == serial
        sk = store.knn_many(centers, 6)
        pk = store.knn_many(centers, 6, executor=_InProcessPoolStub())
        assert pk == sk


# -- hypothesis: admit-order / compaction equivalence (satellite 3) -----------

coord = st.floats(min_value=-50.0, max_value=1050.0, allow_nan=False)
point_lists = st.lists(st.builds(Point, coord, coord), min_size=0, max_size=40)

_KD_BASE = skewed_points(np.random.default_rng(7), 40, REGION, n_hotspots=1, hotspot_sigma=90.0)
_KD_PARTS = kd_partition(_KD_BASE, REGION, 4)


def _box_point(box, fx, fy):
    """The point at fractions ``(fx, fy)`` of ``box``: exactly on an edge
    at 0 or 1, so 0/1 pairs are corners (shared between kd boxes)."""
    x = box.min_x if fx == 0 else box.max_x if fx == 1 else box.min_x + fx * box.width
    y = box.min_y if fy == 0 else box.max_y if fy == 1 else box.min_y + fy * box.height
    return Point(x, y)


fraction = st.sampled_from([0.0, 0.5, 1.0])
kd_boxes = st.sampled_from([p.bbox for p in _KD_PARTS])
kd_edge_points = st.builds(_box_point, kd_boxes, fraction, fraction)
far = st.floats(min_value=-3000.0, max_value=4000.0, allow_nan=False)
# Exact kd box edges and corners, and points far outside REGION.
boundary_point_lists = st.lists(
    st.one_of(kd_edge_points, st.builds(Point, far, far)), min_size=0, max_size=20
)


class TestStoreDeltaProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        streamed=point_lists,
        order_seed=st.integers(min_value=0, max_value=2**31 - 1),
        compact_at=st.integers(min_value=0, max_value=40),
        k=st.integers(min_value=1, max_value=8),
    )
    def test_shuffled_admits_with_midstream_compaction_match_rebuilt(
        self, streamed, order_seed, compact_at, k
    ):
        base_rng = np.random.default_rng(2022)
        base = skewed_points(base_rng, 60, REGION, n_hotspots=2, hotspot_sigma=80.0)
        parts = grid_partition(base, REGION, 2)
        store = PartitionedStore(base, parts)

        order = np.random.default_rng(order_seed).permutation(len(streamed))
        for i, j in enumerate(order):
            store.append(streamed[int(j)])
            if i == compact_at:
                store.compact(threshold=0.0)

        q_rng = np.random.default_rng(order_seed ^ 0x5EED)
        centers = [
            Point(q_rng.uniform(-50, 1050), q_rng.uniform(-50, 1050)) for _ in range(6)
        ]
        radii = q_rng.uniform(10.0, 300.0, 6).tolist()

        fresh = store.rebuilt()
        assert store.range_query_many(centers, radii) == fresh.range_query_many(
            centers, radii
        )
        assert store.knn_many(centers, k) == fresh.knn_many(centers, k)
        # membership equivalence, partition by partition, in admit order
        assert [p.point_indices for p in store.partitions] == [
            p.point_indices for p in fresh.partitions
        ]

    @settings(max_examples=20, deadline=None)
    @given(
        streamed=point_lists,
        boundary=boundary_point_lists,
        split=st.integers(min_value=0, max_value=40),
    )
    def test_batch_vs_single_appends_identical(self, streamed, boundary, split):
        """``boundary`` points always take the one-point ``append`` on one
        side: ties on shared kd edges and nearest-box routing must match."""
        a = PartitionedStore(_KD_BASE, _KD_PARTS)
        b = PartitionedStore(_KD_BASE, _KD_PARTS)
        cut = min(split, len(streamed))
        a.append_many(streamed + boundary)
        b.append_many(streamed[:cut])
        for p in streamed[cut:] + boundary:
            b.append(p)
        assert [p.point_indices for p in a.partitions] == [p.point_indices for p in b.partitions]
        centers = [Point(500.0, 500.0), Point(-20.0, 1020.0)]
        assert a.range_query_many(centers, 250.0) == b.range_query_many(centers, 250.0)
        assert a.knn_many(centers, 5) == b.knn_many(centers, 5)
        # zero-radius disks at the boundary points see the grown scan boxes
        assert a.range_query_many(boundary, 0.0) == b.range_query_many(boundary, 0.0)
        assert a.range_partition_sets(boundary, 0.0) == b.range_partition_sets(boundary, 0.0)
