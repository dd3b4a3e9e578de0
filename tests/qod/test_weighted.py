"""Weighted exploitation tests: store-level quality-weighted kNN + helpers.

The soundness contract under test: weighted kNN over a
:class:`~repro.querying.PartitionedStore` must equal the brute-force
ranking by effective distance ``d / w`` — exactly, at every worker count,
and regardless of how the store's base/delta chunks are laid out.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BBox, Point, STRecord
from repro.cleaning import idw_interpolate
from repro.parallel import get_executor
from repro.qod import (
    QodScore,
    point_weights,
    quality_weights,
    weighted_idw_interpolate,
    weighted_mean,
)
from repro.querying import PartitionedStore, kd_partition, skewed_points

WORKER_COUNTS = [1, 2, 4]


@pytest.fixture(scope="module")
def pools():
    pools = {w: get_executor(w) for w in WORKER_COUNTS}
    yield pools
    for pool in pools.values():
        pool.close()


def brute_weighted_knn(points, weights, center, k):
    """Oracle: rank by ``(d / w, id)`` lexicographically."""
    scored = sorted(
        (p.distance_to(center) / weights[i], i) for i, p in enumerate(points)
    )
    return [i for _, i in scored[:k]]


def make_world(rng, n_points=400, n_partitions=8):
    box = BBox(0.0, 0.0, 1000.0, 1000.0)
    points = skewed_points(rng, n_points, box, n_hotspots=3, hotspot_sigma=50.0)
    store = PartitionedStore(points, kd_partition(points, box, n_partitions))
    weights = 0.05 + 0.95 * rng.random(n_points)
    return points, store, weights


class TestWeightedKnnStore:
    def test_matches_brute_force_oracle(self, rng):
        points, store, weights = make_world(rng)
        store.set_quality_weights(weights)
        centers = [Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(30)]
        got = store.knn_many(centers, 7, weighted=True)
        want = [brute_weighted_knn(points, weights, c, 7) for c in centers]
        assert got == want

    def test_worker_counts_bit_identical(self, rng, pools):
        points, store, weights = make_world(rng)
        # grow a delta tail so chunked weight alignment is exercised too
        tail = skewed_points(rng, 60, BBox(0, 0, 1000, 1000), n_hotspots=1)
        store.append_many(tail)
        store.set_quality_weights(
            np.concatenate([weights, 0.05 + 0.95 * rng.random(len(tail))])
        )
        centers = [Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(20)]
        want = store.knn_many(centers, 5, weighted=True)
        for w in WORKER_COUNTS:
            got = store.knn_many(centers, 5, weighted=True, executor=pools[w])
            assert got == want

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_oracle_property_random_worlds(self, seed):
        rng = np.random.default_rng(seed)
        points, store, weights = make_world(rng, n_points=80, n_partitions=4)
        store.set_quality_weights(weights)
        center = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
        k = int(rng.integers(1, 12))
        assert store.knn(center, k, weighted=True) == brute_weighted_knn(
            points, weights, center, k
        )

    def test_weighted_without_weights_is_plain_knn(self, rng):
        points, store, _ = make_world(rng)
        centers = [Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(10)]
        assert store.knn_many(centers, 5, weighted=True) == store.knn_many(centers, 5)

    def test_unweighted_results_unchanged_by_installed_weights(self, rng):
        points, store, weights = make_world(rng)
        before = store.knn_many([Point(500, 500)], 9)
        store.set_quality_weights(weights)
        assert store.knn_many([Point(500, 500)], 9) == before

    def test_appended_points_default_to_full_weight(self, rng):
        points, store, weights = make_world(rng)
        store.set_quality_weights(weights)
        center = Point(123.0, 456.0)
        new_id = store.append(Point(center.x + 0.5, center.y))
        # newcomer has implicit weight 1.0: nothing can beat an effective
        # distance of 0.5 here except an exact-distance tie
        assert store.knn(center, 1, weighted=True) == [new_id]

    def test_low_weight_demotes_nearest_point(self, rng):
        box = BBox(0.0, 0.0, 100.0, 100.0)
        points = [Point(10.0, 50.0), Point(30.0, 50.0)]
        store = PartitionedStore(points, kd_partition(points, box, 1))
        center = Point(0.0, 50.0)
        assert store.knn(center, 1, weighted=True) == [0]
        store.set_quality_weights([0.1, 1.0])  # nearest is a bad sensor
        assert store.knn(center, 1, weighted=True) == [1]

    def test_partition_sets_cover_weighted_winners(self, rng):
        points, store, weights = make_world(rng)
        store.set_quality_weights(weights)
        centers = [Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(8)]
        winners = store.knn_many(centers, 6, weighted=True)
        sets = store.knn_partition_sets(centers, winners, 6, weighted=True)
        part_of = {}
        for pi, part in enumerate(store.partitions):
            for i in part.point_indices:
                part_of[i] = pi
        for touched, ids in zip(sets, winners):
            for i in ids:
                # delta-resident points live past the base partitions
                assert i not in part_of or part_of[i] in touched


class TestSetQualityWeights:
    def test_epoch_bumps_on_every_install_and_clear(self, rng):
        _, store, weights = make_world(rng, n_points=50, n_partitions=2)
        assert store.weights_epoch == 0
        e1 = store.set_quality_weights(weights)
        e2 = store.set_quality_weights(weights * 0.5 + 0.25)
        e3 = store.set_quality_weights(None)
        assert (e1, e2, e3) == (1, 2, 3)
        assert store.quality_weights() is None

    def test_weights_are_copied_and_readonly(self, rng):
        _, store, weights = make_world(rng, n_points=50, n_partitions=2)
        store.set_quality_weights(weights)
        weights[:] = 1e-3  # caller mutation must not leak in
        view = store.quality_weights()
        assert view is not None and view.min() > 1e-2
        with pytest.raises(ValueError):
            view[0] = 0.5

    def test_validation(self, rng):
        _, store, _ = make_world(rng, n_points=50, n_partitions=2)
        with pytest.raises(ValueError):
            store.set_quality_weights([[0.5, 0.5]])  # not 1-D
        with pytest.raises(ValueError):
            store.set_quality_weights([0.5, float("nan")])
        with pytest.raises(ValueError):
            store.set_quality_weights([0.5, 0.0])  # zero weight
        with pytest.raises(ValueError):
            store.set_quality_weights([0.5, 1.5])  # above 1


class TestQualityWeights:
    def test_floor_and_power_mapping(self):
        scores = {"good": 1.0, "mid": 0.5, "bad": 0.0}
        w = quality_weights(scores, floor=0.05, power=2.0)
        assert w["good"] == pytest.approx(1.0)
        assert w["mid"] == pytest.approx(0.05 + 0.95 * 0.25)
        assert w["bad"] == pytest.approx(0.05)

    def test_accepts_qod_scores(self):
        score = QodScore(
            sensor_id="s0",
            composite=0.5,
            self_check=1.0,
            reference=0.5,
            deployment=1.0,
            out_of_bounds=1.0,
            consistency=1.0,
            completeness=1.0,
            stuck=1.0,
            obstruction=1.0,
            drift=1.0,
            n=10,
        )
        w = quality_weights({"s0": score}, floor=0.1, power=1.0)
        assert w["s0"] == pytest.approx(0.1 + 0.9 * 0.5)

    def test_scores_clipped_to_unit_interval(self):
        w = quality_weights({"hot": 1.7, "cold": -0.3}, floor=0.05, power=2.0)
        assert w["hot"] == pytest.approx(1.0)
        assert w["cold"] == pytest.approx(0.05)

    def test_point_weights_aligns_sources(self):
        w = point_weights(["a", "b", "a", "c"], {"a": 0.2, "b": 0.9}, default=1.0)
        assert w.tolist() == [0.2, 0.9, 0.2, 1.0]
        assert point_weights([], {"a": 0.2}).shape == (0,)
        # longer than one gather chunk, mixing unknown sources and value types
        rng = np.random.default_rng(7)
        sources = [f"s{i}" for i in rng.integers(0, 300, size=10_000)]
        weights: dict = {f"s{i}": 0.1 + i / 300.0 for i in range(200)}
        weights.update({f"s{i}": np.float32(0.05 + i / 400.0) for i in range(1, 200, 2)})
        weights.update({f"s{i}": 1 for i in range(0, 200, 5)})
        want = np.array([float(weights.get(s, 0.7)) for s in sources], dtype=float)
        got = point_weights(sources, weights, default=0.7)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_weighted_mean(self):
        assert weighted_mean([1.0, 3.0], [1.0, 1.0]) == pytest.approx(2.0)
        assert weighted_mean([1.0, 3.0], [3.0, 1.0]) == pytest.approx(1.5)
        with pytest.raises(ValueError):
            weighted_mean([1.0], [0.0])
        with pytest.raises(ValueError):
            weighted_mean([], [])


class TestWeightedIDW:
    RECS = [
        STRecord(0.0, 0.0, 0.0, 10.0, "a"),
        STRecord(10.0, 0.0, 0.0, 20.0, "b"),
        STRecord(0.0, 10.0, 0.0, 30.0, "c"),
    ]

    def test_uniform_weights_reduce_to_plain_idw(self):
        where, when = Point(3.0, 4.0), 0.0
        plain = idw_interpolate(self.RECS, where, when)
        weighted = weighted_idw_interpolate(
            self.RECS, where, when, {"a": 1.0, "b": 1.0, "c": 1.0}
        )
        assert weighted == pytest.approx(plain)

    def test_downweighted_source_pulls_less(self):
        where, when = Point(5.0, 0.0), 0.0
        balanced = weighted_idw_interpolate(
            self.RECS, where, when, {"a": 1.0, "b": 1.0, "c": 1.0}
        )
        distrust_b = weighted_idw_interpolate(
            self.RECS, where, when, {"a": 1.0, "b": 0.05, "c": 1.0}
        )
        assert distrust_b < balanced  # pulled toward a's 10.0

    def test_exact_hit_picks_heaviest_source(self):
        recs = [
            STRecord(0.0, 0.0, 0.0, 10.0, "a"),
            STRecord(0.0, 0.0, 0.0, 99.0, "b"),
        ]
        v = weighted_idw_interpolate(recs, Point(0, 0), 0.0, {"a": 0.2, "b": 0.9})
        assert v == 99.0
        # equal weights: first record wins, matching the unweighted rule
        v = weighted_idw_interpolate(recs, Point(0, 0), 0.0, {"a": 0.5, "b": 0.5})
        assert v == 10.0

    def test_unknown_source_uses_default_weight(self):
        v = weighted_idw_interpolate(
            self.RECS, Point(5.0, 0.0), 0.0, {}, default_weight=1.0
        )
        assert v == pytest.approx(idw_interpolate(self.RECS, Point(5.0, 0.0), 0.0))

    def test_rejects_nonpositive_weights_and_empty_records(self):
        with pytest.raises(ValueError):
            weighted_idw_interpolate(self.RECS, Point(0, 0), 0.0, {"a": 0.0})
        with pytest.raises(ValueError):
            weighted_idw_interpolate([], Point(0, 0), 0.0, {})

    def test_result_stays_in_value_hull(self):
        v = weighted_idw_interpolate(
            self.RECS, Point(3.0, 3.0), 0.0, {"a": 0.3, "b": 0.7, "c": 0.9}
        )
        assert 10.0 <= v <= 30.0
        assert math.isfinite(v)
