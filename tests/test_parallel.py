"""Serial-vs-parallel equivalence suite for the fleet execution layer.

The contract under test: for every pool consumer — ``map_chunks``,
``Pipeline.run_many``, parallel ``run_ablations``, the Table-1 grid — the
``workers=1`` output is identical to the output at any worker count,
including empty-collection, single-item, and chunk-boundary cases; store
batches handed an executor answer exactly as without one; and a stage
error surfaces to the caller without spoiling the executor.

Worker functions live at module level so they pickle under every start
method (set ``REPRO_PARALLEL_START_METHOD=spawn`` to exercise the CI
configuration locally).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import pairwise_distances
from repro.core import Pipeline, Point, Stage, Trajectory
from repro.parallel import (
    SerialExecutor,
    chunk_spans,
    derive_seed,
    derive_seeds,
    get_executor,
    map_chunks,
)
from repro.querying import PartitionedStore, grid_partition, kd_partition, skewed_points

WORKER_COUNTS = [1, 2, 4]
BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

# benchmarks/ must be importable *before* the warm pools spawn their
# workers: fork children snapshot sys.path at pool creation, and spawn
# children re-import ``table1_grid`` to unpickle its chunk function.  A
# path added later (e.g. inside a test) is invisible to already-forked
# workers, whose import failure during task unpickling kills them.
if str(BENCHMARKS_DIR) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS_DIR))


@pytest.fixture(scope="module")
def pools():
    """One long-lived executor per worker count, shared across this module."""
    pools = {w: get_executor(w) for w in WORKER_COUNTS}
    yield pools
    for pool in pools.values():
        pool.close()


@pytest.fixture
def rng():
    return np.random.default_rng(2022)


def make_trajectory(seed: int, n: int = 40, object_id: str = "t") -> Trajectory:
    rng = np.random.default_rng(seed)
    steps = rng.normal(0, 5, (n, 2)).cumsum(axis=0)
    return Trajectory.from_arrays(
        steps[:, 0], steps[:, 1], np.arange(n, dtype=float), object_id
    )


# -- module-level chunk/stage functions (picklable under spawn) ----------------


def square_chunk(chunk):
    return [x * x for x in chunk]


def seeded_normal_chunk(chunk, seeds):
    return [x + float(np.random.default_rng(s).normal()) for x, s in zip(chunk, seeds)]


def bad_arity_chunk(chunk):
    return [0] * (len(chunk) + 1)


def stage_downsample(traj):
    return traj.downsample(2)


def stage_shift(traj):
    return traj.shift_time(1.0)


def stage_raise(traj):
    raise RuntimeError("stage exploded")


def probe_len(traj):
    return float(len(traj))


def stage_add(x):
    return x + 1


def stage_mul(x):
    return x * 3


def probe_value(x):
    return float(x)


def make_pipeline() -> Pipeline:
    return Pipeline(
        [Stage("down", stage_downsample), Stage("shift", stage_shift)],
        probes={"n": probe_len},
    )


# -- chunking ------------------------------------------------------------------


class TestChunking:
    def test_spans_cover_range_exactly(self):
        for n in (0, 1, 2, 63, 64, 65, 1000):
            spans = chunk_spans(n)
            assert [i for a, b in spans for i in range(a, b)] == list(range(n))

    def test_explicit_chunk_size_boundaries(self):
        assert chunk_spans(10, 10) == [(0, 10)]
        assert chunk_spans(10, 11) == [(0, 10)]
        assert chunk_spans(10, 3) == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert chunk_spans(1, 1) == [(0, 1)]
        assert chunk_spans(0, 5) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_spans(-1)
        with pytest.raises(ValueError):
            chunk_spans(5, 0)

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(2022, 3) == derive_seed(2022, 3)
        assert derive_seed(2022, 3) != derive_seed(2022, 4)
        assert derive_seed(2022, 3) != derive_seed(2023, 3)

    def test_derive_seeds_independent_of_chunking(self):
        whole = derive_seeds(7, 0, 10)
        assert whole == derive_seeds(7, 0, 4) + derive_seeds(7, 4, 10)


# -- map_chunks ----------------------------------------------------------------


class TestMapChunks:
    @settings(max_examples=8, deadline=None)
    @given(
        items=st.lists(st.integers(min_value=-1000, max_value=1000), max_size=40),
        chunk_size=st.one_of(st.none(), st.integers(min_value=1, max_value=50)),
    )
    def test_matches_serial_map(self, pools, items, chunk_size):
        want = [x * x for x in items]
        for w in WORKER_COUNTS:
            got = map_chunks(square_chunk, items, chunk_size=chunk_size, executor=pools[w])
            assert got == want

    @settings(max_examples=8, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=30),
        chunk_size=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
    )
    def test_seeded_identical_across_workers_and_chunking(self, pools, n, chunk_size):
        items = list(range(n))
        want = map_chunks(seeded_normal_chunk, items, seed=99, chunk_size=1)
        for w in WORKER_COUNTS:
            got = map_chunks(
                seeded_normal_chunk, items, seed=99, chunk_size=chunk_size, executor=pools[w]
            )
            assert got == want  # bit-identical floats

    def test_empty_and_single_item(self, pools):
        for w in WORKER_COUNTS:
            assert map_chunks(square_chunk, [], executor=pools[w]) == []
            assert map_chunks(square_chunk, [7], executor=pools[w]) == [49]

    def test_wrong_result_count_raises(self):
        with pytest.raises(ValueError, match="one result per item"):
            map_chunks(bad_arity_chunk, [1, 2, 3])


# -- Pipeline.run_many / run_ablations ----------------------------------------


class TestPipelineParallel:
    def test_run_many_matches_run(self, pools):
        pipeline = make_pipeline()
        fleet = [make_trajectory(i, object_id=f"t{i}") for i in range(11)]
        want = [pipeline.run(t) for t in fleet]
        for w in WORKER_COUNTS:
            got = pipeline.run_many(fleet, executor=pools[w])
            assert [r.output for r in got] == [r.output for r in want]
            assert [[(t.name, t.metrics) for t in r.trace] for r in got] == [
                [(t.name, t.metrics) for t in r.trace] for r in want
            ]

    def test_run_many_empty_and_single(self, pools):
        pipeline = make_pipeline()
        for w in WORKER_COUNTS:
            assert pipeline.run_many([], executor=pools[w]) == []
            [only] = pipeline.run_many([make_trajectory(5)], executor=pools[w])
            assert only.output == pipeline.run(make_trajectory(5)).output

    def test_run_many_chunk_boundary(self, pools):
        """Fleet sizes straddling the chunk size: every split point is exact."""
        pipeline = make_pipeline()
        for n in (3, 4, 5):
            fleet = [make_trajectory(i, object_id=f"t{i}") for i in range(n)]
            want = [pipeline.run(t).output for t in fleet]
            for w in WORKER_COUNTS:
                got = pipeline.run_many(fleet, chunk_size=2, executor=pools[w])
                assert [r.output for r in got] == want

    def test_run_many_non_trajectory_data(self, pools):
        pipeline = Pipeline(
            [Stage("add", stage_add), Stage("mul", stage_mul)], probes={"v": probe_value}
        )
        data = list(range(10))
        want = [pipeline.run(x) for x in data]
        for w in WORKER_COUNTS:
            got = pipeline.run_many(data, executor=pools[w])
            assert [r.output for r in got] == [r.output for r in want]

    def test_run_ablations_matches_serial(self, pools):
        pipeline = make_pipeline()
        traj = make_trajectory(3)
        want = pipeline.run_ablations(traj)
        for w in WORKER_COUNTS:
            got = pipeline.run_ablations(traj, executor=pools[w])
            assert list(got) == list(want) == ["full", "down", "shift"]
            for key in want:
                assert got[key].output == want[key].output
                assert [(t.name, t.metrics) for t in got[key].trace] == [
                    (t.name, t.metrics) for t in want[key].trace
                ]

    def test_run_ablations_non_trajectory(self, pools):
        pipeline = Pipeline([Stage("add", stage_add), Stage("mul", stage_mul)])
        want = {k: r.output for k, r in pipeline.run_ablations(5).items()}
        for w in WORKER_COUNTS:
            got = {k: r.output for k, r in pipeline.run_ablations(5, executor=pools[w]).items()}
            assert got == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_many_stage_error_propagates(self, workers):
        """A raising stage surfaces to the caller; the executor stays usable."""
        with get_executor(workers) as ex:
            with pytest.raises(RuntimeError, match="stage exploded"):
                Pipeline([Stage("boom", stage_raise)]).run_many(
                    [make_trajectory(1), make_trajectory(2)], executor=ex
                )
            pipeline = make_pipeline()
            fleet = [make_trajectory(i, object_id=f"t{i}") for i in range(3)]
            got = pipeline.run_many(fleet, executor=ex)
            assert [r.output for r in got] == [pipeline.run(t).output for t in fleet]

    def test_probe_seconds_recorded(self):
        result = make_pipeline().run(make_trajectory(4))
        assert all(t.probe_seconds >= 0.0 for t in result.trace)
        assert result.total_probe_seconds == sum(t.probe_seconds for t in result.trace)
        # Stage cost and probe cost stay separate.
        assert result.total_seconds == sum(t.seconds for t in result.trace)


# -- partitioned queries -------------------------------------------------------


class TestPartitionedQueriesParallel:
    @pytest.fixture
    def world(self, rng):
        from repro.core import BBox

        box = BBox(0.0, 0.0, 1000.0, 1000.0)
        points = skewed_points(rng, 900, box, n_hotspots=3, hotspot_sigma=40.0)
        partitions = kd_partition(points, box, 16)
        centers = [Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(25)]
        radii = rng.uniform(20, 120, len(centers)).tolist()
        return box, points, partitions, centers, radii

    def test_range_many_matches_serial_and_accounting(self, pools, world):
        _, points, partitions, centers, radii = world
        base = PartitionedStore(points, partitions)
        want = base.range_query_many(centers, radii)
        for w in WORKER_COUNTS:
            store = PartitionedStore(points, partitions)
            got = store.range_query_many(centers, radii, executor=pools[w])
            assert got == want
            assert store.partitions_touched == base.partitions_touched
            assert store.queries_run == base.queries_run

    def test_knn_many_matches_serial_and_brute_force(self, pools, world):
        _, points, partitions, centers, _ = world
        base = PartitionedStore(points, partitions)
        want = base.knn_many(centers, 7)
        brute = [
            [i for _, i in sorted((p.distance_to(c), i) for i, p in enumerate(points))[:7]]
            for c in centers
        ]
        assert want == brute
        for w in WORKER_COUNTS:
            store = PartitionedStore(points, partitions)
            got = store.knn_many(centers, 7, executor=pools[w])
            assert got == want
            assert store.partitions_touched == base.partitions_touched

    def test_single_query_wrappers_route_through_batch(self, world):
        _, points, partitions, centers, radii = world
        store = PartitionedStore(points, partitions)
        hits = store.range_query(centers[0], radii[0])
        assert store.queries_run == 1
        assert sorted(hits) == sorted(
            i for i, p in enumerate(points) if p.distance_to(centers[0]) <= radii[0]
        )
        nn = store.knn(centers[0], 3)
        assert len(nn) == 3 and store.queries_run == 2

    def test_empty_store_and_empty_queries(self, pools):
        from repro.core import BBox

        box = BBox(0.0, 0.0, 10.0, 10.0)
        store = PartitionedStore([], grid_partition([], box, 2))
        for w in WORKER_COUNTS:
            assert store.range_query_many([Point(1, 1)], 5.0, executor=pools[w]) == [[]]
            assert store.knn_many([Point(1, 1)], 3, executor=pools[w]) == [[]]
            assert store.range_query_many([], [], executor=pools[w]) == []


# -- pairwise similarity -------------------------------------------------------


class TestPairwiseParallel:
    def test_matrix_shape_and_symmetry(self):
        fleet = [make_trajectory(i, n=20) for i in range(6)]
        m = pairwise_distances(fleet, "dtw", band=5)
        assert m.shape == (6, 6)
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0.0)

    def test_edge_cases_and_validation(self):
        assert pairwise_distances([]).shape == (0, 0)
        assert pairwise_distances([make_trajectory(1)]).shape == (1, 1)
        with pytest.raises(ValueError, match="unknown metric"):
            pairwise_distances([make_trajectory(1)], "cosine")


# -- Table-1 grid --------------------------------------------------------------


class TestTable1Grid:
    def test_grid_identical_across_workers(self):
        # BENCHMARKS_DIR went onto sys.path at module import, before the warm
        # pools forked — see the module-level comment.
        from table1_grid import run_grid

        serial = run_grid(2022, workers=1)
        parallel = run_grid(2022, workers=2)
        assert serial == parallel
        assert len(serial) == 30


# -- worker pool manager -------------------------------------------------------


def _square(x: int) -> int:
    return x * x


class TestWorkerPoolManager:
    def test_serial_executor_selected_for_one_worker(self):
        assert isinstance(get_executor(None), SerialExecutor)
        assert isinstance(get_executor(1), SerialExecutor)
        assert get_executor(-1).workers >= 1

    def test_all_workers_means_usable_cpus(self, monkeypatch):
        """``workers=-1`` counts the CPUs this process may run on."""
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert isinstance(get_executor(-1), SerialExecutor)

    def test_acquire_rejects_serial_counts(self):
        from repro.parallel import WorkerPoolManager

        manager = WorkerPoolManager()
        with pytest.raises(ValueError, match="workers >= 2"):
            manager.acquire(1)

    def test_lease_reuse_and_stats(self):
        from repro.parallel import WorkerPoolManager

        manager = WorkerPoolManager()
        try:
            with manager.acquire(2) as lease:
                assert lease.map_ordered(_square, [1, 2, 3]) == [1, 4, 9]
                assert not lease.pool_was_warm
            with manager.acquire(2) as lease:  # same key: reuse, not respawn
                assert lease.pool_was_warm
                assert lease.map_ordered(_square, [4]) == [16]
            stats = manager.stats.as_dict()
            assert stats["pools_created"] == 1
            assert stats["pool_reuses"] == 1
            assert stats["leases"] == 2
            assert stats["workers_spawned"] == 2
            assert manager.active_workers() == 2
        finally:
            manager.shutdown_all()
        assert manager.active_workers() == 0

    def test_lease_after_close_raises(self):
        from repro.parallel import WorkerPoolManager

        manager = WorkerPoolManager()
        try:
            lease = manager.acquire(2)
            lease.close()
            lease.close()  # idempotent
            with pytest.raises(RuntimeError, match="after close"):
                lease.map_ordered(_square, [1])
        finally:
            manager.shutdown_all()

    def test_restart_on_worker_death(self):
        import os
        import signal

        from repro.parallel import WorkerPoolManager

        manager = WorkerPoolManager()
        try:
            lease = manager.acquire(2)
            pool = lease._pool._pool  # reach into the warm pool
            os.kill(next(iter(pool._processes)), signal.SIGKILL)
            # Map only once the death has settled: the pool's manager thread
            # marks the pool broken, reaps every worker and exits.  Mapping
            # any earlier races that thread — the surviving worker can answer
            # before the death is noticed, and no restart happens.
            watcher = pool._executor_manager_thread
            watcher.join(timeout=30.0)
            assert not watcher.is_alive(), "killed worker was never reaped"
            assert lease._pool.broken
            # The broken pool is refused at submit, restarted, and retried.
            assert lease.map_ordered(_square, [5, 6]) == [25, 36]
            assert manager.stats.pools_restarted == 1
            assert manager.stats.pools_created == 2
        finally:
            manager.shutdown_all()

    def test_shutdown_all_allows_rebuild(self):
        from repro.parallel import WorkerPoolManager

        manager = WorkerPoolManager()
        try:
            manager.acquire(2).close()
            manager.shutdown_all()
            manager.shutdown_all()  # idempotent
            with manager.acquire(2) as lease:
                assert lease.map_ordered(_square, [3]) == [9]
            assert manager.stats.pools_created == 2
        finally:
            manager.shutdown_all()

    def test_get_executor_routes_through_process_manager(self):
        from repro.parallel import PoolLease, get_pool_manager

        manager = get_pool_manager()
        before = manager.stats.leases
        ex = get_executor(2)
        try:
            assert isinstance(ex, PoolLease)
            assert manager.stats.leases == before + 1
        finally:
            ex.close()
