import pytest

from repro.core import Point
from repro.querying import (
    PartitionedStore,
    grid_partition,
    kd_partition,
    load_imbalance,
    skewed_points,
)


@pytest.fixture
def skew(rng, box):
    return skewed_points(rng, 1500, box, n_hotspots=3, hotspot_sigma=40.0)


@pytest.fixture
def uniform(rng, box):
    return [Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(1500)]


class TestPartitioners:
    def test_grid_covers_all_points(self, uniform, box):
        parts = grid_partition(uniform, box, 4)
        assert sum(p.load for p in parts) == len(uniform)
        assert len(parts) == 16

    def test_kd_covers_all_points(self, skew, box):
        parts = kd_partition(skew, box, 16)
        assert sum(p.load for p in parts) == len(skew)

    def test_kd_partitions_disjoint(self, skew, box):
        parts = kd_partition(skew, box, 8)
        seen = set()
        for p in parts:
            assert not (seen & set(p.point_indices))
            seen |= set(p.point_indices)

    def test_points_inside_their_partition_bbox(self, skew, box):
        parts = kd_partition(skew, box, 16)
        for part in parts:
            for i in part.point_indices:
                assert part.bbox.expand(1e-9).contains(skew[i])

    def test_validation(self, uniform, box):
        with pytest.raises(ValueError):
            grid_partition(uniform, box, 0)
        with pytest.raises(ValueError):
            kd_partition(uniform, box, 0)


class TestImbalance:
    def test_kd_balances_skew_better_than_grid(self, skew, box):
        grid = grid_partition(skew, box, 4)
        kd = kd_partition(skew, box, 16)
        assert load_imbalance(kd) < load_imbalance(grid)

    def test_kd_near_perfect_on_skew(self, skew, box):
        assert load_imbalance(kd_partition(skew, box, 16)) < 1.3

    def test_uniform_data_grid_ok(self, uniform, box):
        assert load_imbalance(grid_partition(uniform, box, 4)) < 1.6

    def test_empty_partitions(self):
        assert load_imbalance([]) == 1.0


class TestPartitionedStore:
    def test_results_match_brute_force(self, skew, box):
        store = PartitionedStore(skew, kd_partition(skew, box, 16))
        q, r = Point(500, 500), 120.0
        expected = sorted(
            i for i, p in enumerate(skew) if p.distance_to(q) <= r
        )
        assert sorted(store.range_query(q, r)) == expected

    def test_partitions_touched_less_than_total(self, skew, box):
        parts = kd_partition(skew, box, 16)
        store = PartitionedStore(skew, parts)
        store.range_query(Point(200, 200), 50.0)
        assert store.mean_partitions_per_query() < len(parts)

    def test_query_counter(self, skew, box):
        store = PartitionedStore(skew, kd_partition(skew, box, 8))
        store.range_query(Point(0, 0), 10)
        store.range_query(Point(500, 500), 10)
        assert store.queries_run == 2

    def test_empty_store(self, box):
        store = PartitionedStore([], grid_partition([], box, 2))
        assert store.range_query(Point(0, 0), 100) == []

    def test_range_query_many_matches_singles(self, skew, box):
        parts = kd_partition(skew, box, 16)
        centers = [Point(200, 200), Point(500, 500), Point(950, 60)]
        radii = [50.0, 120.0, 80.0]
        singles = PartitionedStore(skew, parts)
        want = [singles.range_query(c, r) for c, r in zip(centers, radii)]
        batched = PartitionedStore(skew, parts)
        assert batched.range_query_many(centers, radii) == want
        assert batched.partitions_touched == singles.partitions_touched
        assert batched.queries_run == singles.queries_run

    def test_range_query_many_scalar_radius(self, skew, box):
        store = PartitionedStore(skew, kd_partition(skew, box, 8))
        centers = [Point(100, 100), Point(800, 800)]
        got = store.range_query_many(centers, 75.0)
        assert [sorted(h) for h in got] == [
            sorted(i for i, p in enumerate(skew) if p.distance_to(c) <= 75.0)
            for c in centers
        ]

    def test_knn_matches_brute_force(self, skew, box):
        store = PartitionedStore(skew, kd_partition(skew, box, 16))
        center, k = Point(420, 650), 9
        brute = [
            i
            for _, i in sorted((p.distance_to(center), i) for i, p in enumerate(skew))[:k]
        ]
        assert store.knn(center, k) == brute

    def test_knn_prunes_partitions(self, skew, box):
        parts = kd_partition(skew, box, 16)
        store = PartitionedStore(skew, parts)
        store.knn(Point(200, 200), 5)
        assert store.partitions_touched < len(parts)

    def test_knn_k_larger_than_points(self, box):
        pts = [Point(1, 1), Point(2, 2)]
        store = PartitionedStore(pts, grid_partition(pts, box, 2))
        assert sorted(store.knn(Point(0, 0), 10)) == [0, 1]

    def test_knn_validation(self, skew, box):
        store = PartitionedStore(skew, kd_partition(skew, box, 4))
        with pytest.raises(ValueError):
            store.knn(Point(0, 0), 0)

    def test_mismatched_radii_rejected(self, skew, box):
        store = PartitionedStore(skew, kd_partition(skew, box, 4))
        with pytest.raises(ValueError):
            store.range_query_many([Point(0, 0), Point(1, 1)], [5.0])


class TestPartitionDependencySets:
    """The serving layer's cache-invalidation oracle: a write outside a
    query's dependency set provably cannot change the query's answer."""

    def test_range_sets_match_router_predicate(self, skew, box):
        parts = kd_partition(skew, box, 16)
        store = PartitionedStore(skew, parts)
        centers = [Point(200, 200), Point(500, 500), Point(950, 60)]
        radii = [50.0, 120.0, 80.0]
        sets = store.range_partition_sets(centers, radii)
        for c, r, pids in zip(centers, radii, sets):
            # the exact predicate is internal; the contract that matters is
            # that every partition holding a hit is in the dependency set
            hit_parts = {
                pid
                for pid, part in enumerate(parts)
                for i in part.point_indices
                if skew[i].distance_to(c) <= r
            }
            assert hit_parts <= set(pids)
            assert len(pids) < len(parts)  # local queries touch few partitions

    def test_range_sets_accept_scalar_radius(self, skew, box):
        store = PartitionedStore(skew, kd_partition(skew, box, 8))
        centers = [Point(100, 100), Point(800, 800)]
        assert store.range_partition_sets(centers, 50.0) == store.range_partition_sets(
            centers, [50.0, 50.0]
        )

    def test_range_sets_validate_radii(self, skew, box):
        store = PartitionedStore(skew, kd_partition(skew, box, 4))
        with pytest.raises(ValueError):
            store.range_partition_sets([Point(0, 0), Point(1, 1)], [5.0])

    def test_knn_sets_cover_every_hit(self, skew, box):
        parts = kd_partition(skew, box, 16)
        store = PartitionedStore(skew, parts)
        centers = [Point(420, 650), Point(100, 100)]
        hits = store.knn_many(centers, 9)
        sets = store.knn_partition_sets(centers, hits, 9)
        for ids, pids in zip(hits, sets):
            hit_parts = {
                pid
                for pid, part in enumerate(parts)
                for i in part.point_indices
                if i in set(ids)
            }
            assert hit_parts <= set(pids)
            assert len(pids) < len(parts)

    def test_knn_short_answer_depends_on_all(self, box):
        pts = [Point(1, 1), Point(2, 2)]
        store = PartitionedStore(pts, grid_partition(pts, box, 2))
        hits = store.knn_many([Point(0, 0)], 10)
        assert store.knn_partition_sets([Point(0, 0)], hits, 10) == [(0, 1, 2, 3)]

    def test_knn_sets_require_aligned_hits(self, skew, box):
        store = PartitionedStore(skew, kd_partition(skew, box, 4))
        with pytest.raises(ValueError):
            store.knn_partition_sets([Point(0, 0)], [])

    def test_partition_boxes_read_only(self, skew, box):
        store = PartitionedStore(skew, kd_partition(skew, box, 4))
        boxes = store.partition_boxes
        assert boxes.shape == (4, 4)
        with pytest.raises(ValueError):
            boxes[0, 0] = 99.0


class TestInProcessBatches:
    """Store batches run in-process: ``workers=`` never leases a pool."""

    def test_workers_two_matches_serial_without_leasing_a_pool(self, rng, skew, box):
        from repro.parallel import get_pool_manager

        store = PartitionedStore(skew, kd_partition(skew, box, 16))
        centers = [Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(20)]
        radii = rng.uniform(20, 120, len(centers)).tolist()
        want_range = store.range_query_many(centers, radii)
        want_knn = store.knn_many(centers, 7)
        stats = get_pool_manager().stats
        leases, created = stats.leases, stats.pools_created
        assert store.range_query_many(centers, radii, workers=2) == want_range
        assert store.knn_many(centers, 7, workers=2) == want_knn
        assert (stats.leases, stats.pools_created) == (leases, created)
