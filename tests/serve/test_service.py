"""End-to-end QueryService tests: correctness, determinism, admission,
epoch invalidation, and observability.

pytest-asyncio is deliberately not a dependency: each test drives its own
event loop with ``asyncio.run``.  Determinism leans on two facts — the
submit path is synchronous up to ``await future`` (so a ``gather`` or a
burst of ``create_task`` enqueues in creation order before the dispatcher
runs), and the dispatcher waits only on its wake event — no timer decides
when a batch leaves.
"""

import asyncio

import numpy as np
import pytest

from repro.core import BBox, Point
from repro.ingest import IngestEngine
from repro.ingest.events import IngestEvent
from repro.obs import OBS, ManualClock, disable, enable
from repro.querying import PartitionedStore, kd_partition, skewed_points
from repro.serve import (
    EpochRegistry,
    KnnQueryRequest,
    QueryService,
    RangeQueryRequest,
    ResponseStatus,
    ingest_epoch_hook,
)


@pytest.fixture(autouse=True)
def _obs_off():
    yield
    disable()


@pytest.fixture
def store(rng, box):
    pts = skewed_points(rng, 600, box, n_hotspots=3, hotspot_sigma=40.0)
    return PartitionedStore(pts, kd_partition(pts, box, 8))


def range_requests(n, radius=60.0, priority=0):
    return [
        RangeQueryRequest(Point(100.0 + 57.0 * i, 150.0 + 41.0 * i), radius, priority)
        for i in range(n)
    ]


def serve_all(store, requests, **kwargs):
    async def go():
        async with QueryService(store, **kwargs) as svc:
            return await svc.submit_many(requests), svc.stats

    return asyncio.run(go())


class TestCorrectness:
    def test_range_matches_direct_store(self, store):
        reqs = range_requests(6)
        responses, stats = serve_all(store, reqs)
        for req, resp in zip(reqs, responses):
            assert resp.ok and not resp.cached
            assert list(resp.results) == store.range_query(req.center, req.radius)
        assert stats.served == 6 and stats.shed == 0

    def test_knn_matches_direct_store(self, store):
        reqs = [KnnQueryRequest(Point(120.0 * i, 90.0 * i), 7) for i in range(1, 6)]
        responses, _ = serve_all(store, reqs)
        for req, resp in zip(reqs, responses):
            assert list(resp.results) == store.knn(req.center, req.k)

    def test_conservation(self, store):
        reqs = range_requests(5) + range_requests(5)  # second half = cache hits
        _, stats = serve_all(store, reqs)
        assert stats.submitted == stats.served + stats.cache_hits + stats.shed


class TestCoalescing:
    def test_concurrent_burst_coalesces_into_one_kernel_call(self, store):
        responses, stats = serve_all(store, range_requests(12), max_batch=16)
        assert stats.kernel_calls == 1
        assert all(r.batch_size == 12 for r in responses)
        assert stats.coalesce_ratio() == 12.0

    def test_max_batch_is_a_hard_cap(self, store):
        _, stats = serve_all(store, range_requests(10), max_batch=4)
        assert stats.max_batch_seen == 4
        assert stats.kernel_calls == 3  # 4 + 4 + 2

    def test_shapes_batch_separately(self, store):
        reqs = range_requests(4) + [KnnQueryRequest(Point(300, 300), k) for k in (3, 3, 5)]
        _, stats = serve_all(store, reqs, max_batch=16)
        # one range batch, one k=3 batch, one k=5 batch
        assert stats.kernel_calls == 3

    def test_batched_results_match_sequential(self, store):
        reqs = range_requests(9)
        batched, _ = serve_all(store, reqs, max_batch=16)
        one_by_one = []
        for req in reqs:
            resp, _ = serve_all(store, [req])
            one_by_one.append(resp[0])
        assert [r.results for r in batched] == [r.results for r in one_by_one]

    def test_closed_loop_rounds_batch_whatever_queued(self, store):
        """Self-clocked batching: each batch is exactly what the clients
        queued while the previous one ran — here every client, every round."""
        rounds = [range_requests(8, radius=30.0 + 10.0 * i) for i in range(3)]

        async def go():
            async with QueryService(store, max_batch=64) as svc:

                async def client(c):
                    return [(await svc.submit(reqs[c])).batch_size for reqs in rounds]

                sizes = await asyncio.gather(*(client(c) for c in range(8)))
            return sizes, svc.stats

        sizes, stats = asyncio.run(go())
        assert sizes == [[8, 8, 8]] * 8
        assert stats.kernel_calls == 3

    def test_manual_clock_batching_is_deterministic(self, store):
        def run():
            clock = ManualClock()

            async def go():
                async with QueryService(store, max_batch=4, clock=clock) as svc:
                    responses = await svc.submit_many(range_requests(10))
                return [(r.results, r.batch_size) for r in responses]

            return asyncio.run(go())

        assert run() == run()


class TestCache:
    def test_cached_response_bit_identical(self, store):
        req = range_requests(1)[0]

        async def go():
            async with QueryService(store) as svc:
                first = await svc.submit(req)
                second = await svc.submit(req)
            return first, second

        first, second = asyncio.run(go())
        assert not first.cached and second.cached
        assert second.results == first.results
        assert second.status is ResponseStatus.OK

    def test_cache_hit_skips_kernel(self, store):
        reqs = range_requests(4)

        async def go():
            async with QueryService(store, max_batch=4) as svc:
                await svc.submit_many(reqs)
                await svc.submit_many(reqs)
            return svc.stats

        stats = asyncio.run(go())
        assert stats.cache_hits == 4 and stats.served == 4
        assert stats.kernel_calls == 1

    def test_knn_cached_too(self, store):
        req = KnnQueryRequest(Point(400, 400), 5)
        responses, stats = serve_all(store, [req, req])
        # duplicate signatures in one burst: the second waits for no batch
        assert stats.cache_hits + stats.served == 2


class TestAdmission:
    @staticmethod
    def run_burst(store, requests, **kwargs):
        """Enqueue `requests` as simultaneous tasks (creation order) and
        collect responses; returns (responses, stats)."""

        async def go():
            async with QueryService(store, **kwargs) as svc:
                tasks = [asyncio.create_task(svc.submit(r)) for r in requests]
                responses = await asyncio.gather(*tasks)
            return responses, svc.stats

        return asyncio.run(go())

    def test_reject_sheds_beyond_max_pending(self, store):
        responses, stats = self.run_burst(
            store, range_requests(4), max_pending=2, policy="reject"
        )
        assert [r.status for r in responses] == [
            ResponseStatus.OK,
            ResponseStatus.OK,
            ResponseStatus.SHED,
            ResponseStatus.SHED,
        ]
        assert stats.shed == 2 and stats.max_depth_seen == 2

    def test_drop_oldest_displaces_oldest_lowest_class(self, store):
        reqs = range_requests(1, priority=0) + range_requests(1, radius=70.0, priority=1)
        reqs += [RangeQueryRequest(Point(900, 900), 30.0, priority=0)]
        responses, stats = self.run_burst(
            store, reqs, max_pending=2, policy="drop_oldest"
        )
        # newcomer (priority 0) displaces the oldest priority-0 request
        assert [r.status for r in responses] == [
            ResponseStatus.SHED,
            ResponseStatus.OK,
            ResponseStatus.OK,
        ]
        assert stats.shed == 1

    def test_drop_oldest_sheds_newcomer_when_outranked(self, store):
        reqs = range_requests(2, priority=5) + [
            RangeQueryRequest(Point(900, 900), 30.0, priority=0)
        ]
        responses, _ = self.run_burst(
            store, reqs, max_pending=2, policy="drop_oldest"
        )
        assert [r.status for r in responses] == [
            ResponseStatus.OK,
            ResponseStatus.OK,
            ResponseStatus.SHED,
        ]

    def test_block_policy_is_lossless(self, store):
        responses, stats = self.run_burst(
            store, range_requests(6), max_pending=2, policy="block"
        )
        assert all(r.ok for r in responses)
        assert stats.shed == 0
        assert stats.max_depth_seen <= 2

    def test_class_limits_protect_interactive_traffic(self, store):
        reqs = range_requests(2, priority=0) + range_requests(2, radius=75.0, priority=1)
        responses, _ = self.run_burst(
            store,
            reqs,
            max_pending=8,
            policy="reject",
            class_limits={0: 1},
        )
        # second background request sheds at its class limit; interactive admits
        assert [r.status for r in responses] == [
            ResponseStatus.OK,
            ResponseStatus.SHED,
            ResponseStatus.OK,
            ResponseStatus.OK,
        ]


class TestLifecycle:
    def test_submit_requires_running_service(self, store):
        async def go():
            svc = QueryService(store)
            with pytest.raises(RuntimeError):
                await svc.submit(range_requests(1)[0])
            await svc.start()
            await svc.stop()
            with pytest.raises(RuntimeError):
                await svc.submit(range_requests(1)[0])

        asyncio.run(go())

    def test_double_start_rejected(self, store):
        async def go():
            async with QueryService(store) as svc:
                with pytest.raises(RuntimeError):
                    await svc.start()

        asyncio.run(go())

    def test_stop_drains_pending_requests(self, store):
        async def go():
            svc = await QueryService(store, max_batch=64).start()
            tasks = [asyncio.create_task(svc.submit(r)) for r in range_requests(5)]
            await asyncio.sleep(0)  # let submits enqueue, not yet dispatched
            await svc.stop()
            return await asyncio.gather(*tasks)

        responses = asyncio.run(go())
        assert all(r.ok for r in responses)


class TestEpochInvalidation:
    def test_bump_invalidates_exactly_affected_queries(self, store):
        reqs = range_requests(6, radius=40.0)
        pid_sets = store.range_partition_sets(
            [r.center for r in reqs], [r.radius for r in reqs]
        )

        async def go():
            async with QueryService(store, max_batch=16) as svc:
                await svc.submit_many(reqs)  # populate cache
                svc.epochs.bump(pid_sets[0])  # quality event in query 0's partitions
                return await svc.submit_many(reqs), svc

        responses, svc = asyncio.run(go())
        affected = set(pid_sets[0])
        for req, pids, resp in zip(reqs, pid_sets, responses):
            if affected & set(pids):
                assert not resp.cached, f"stale serve for {req}"
            else:
                assert resp.cached, f"over-invalidated {req}"
        # at least query 0 recomputed, and some disjoint query stayed cached
        assert not responses[0].cached
        assert any(r.cached for r in responses)
        assert svc.cache.stale_evictions >= 1

    def test_short_knn_answer_depends_on_every_partition(self, store):
        req = KnnQueryRequest(Point(500, 500), len(store.points) + 5)

        async def go():
            async with QueryService(store) as svc:
                await svc.submit(req)
                svc.epochs.bump([0])  # any single partition
                return await svc.submit(req)

        assert not asyncio.run(go()).cached

    def test_gate_admitted_write_invalidates_before_next_read(self, store):
        epochs = EpochRegistry(store.partition_boxes)
        reqs = range_requests(6, radius=40.0)
        pid_sets = store.range_partition_sets(
            [r.center for r in reqs], [r.radius for r in reqs]
        )
        write_at = reqs[0].center  # lands inside query 0's dependency set
        containing = set(epochs.partitions_containing(write_at.x, write_at.y))
        assert containing, "write point must be inside the partitioned region"

        async def go():
            async with QueryService(store, max_batch=16, epochs=epochs) as svc:
                await svc.submit_many(reqs)
                before = epochs.snapshot()
                with IngestEngine(
                    n_shards=1, on_admit=ingest_epoch_hook(epochs)
                ) as engine:
                    assert engine.offer(
                        IngestEvent(
                            sensor_id="s0",
                            x=write_at.x,
                            y=write_at.y,
                            t=0.0,
                            value=1.0,
                            arrival_time=0.0,
                        )
                    )
                after = epochs.snapshot()
                return before, after, await svc.submit_many(reqs)

        before, after, responses = asyncio.run(go())
        moved = {i for i, (a, b) in enumerate(zip(before, after)) if a != b}
        assert moved == containing  # exactly the containing partitions moved
        for pids, resp in zip(pid_sets, responses):
            if moved & set(pids):
                assert not resp.cached
            else:
                assert resp.cached


class TestEmptyDependencySets:
    """A query no partition bounds must depend on every partition."""

    @staticmethod
    def small_store():
        region = BBox(0.0, 0.0, 100.0, 100.0)
        rng = np.random.default_rng(7)
        pts = [Point(float(x), float(y)) for x, y in rng.uniform(0.0, 100.0, (200, 2))]
        return PartitionedStore(pts, kd_partition(pts, region, 4))

    def test_disk_outside_every_box_is_not_served_stale(self):
        # The disk overlaps no scan box, so its answer is empty.  A reading
        # just outside the store bumps every partition and is appended to
        # the nearest one, whose scan box grows into the disk.
        store = self.small_store()
        epochs = EpochRegistry(store.partition_boxes)
        hook = ingest_epoch_hook(epochs)
        req = RangeQueryRequest(Point(130.0, 50.0), 10.0)

        async def go():
            async with QueryService(store, epochs=epochs) as svc:
                first = await svc.submit(req)
                hook(
                    IngestEvent(
                        sensor_id="s0", x=128.0, y=50.0, t=0.0, value=1.0, arrival_time=0.0
                    )
                )
                store.append(Point(128.0, 50.0))
                return first, await svc.submit(req)

        first, second = asyncio.run(go())
        assert first.results == ()
        assert not second.cached
        assert list(second.results) == store.rebuilt().range_query(req.center, req.radius)
        assert second.results == (200,)

    def test_zero_kth_knn_answer_depends_on_every_partition(self):
        # Every hit sits at distance 0, so the strict bound keeps no
        # partition; the answer must still be invalidated by a bump.
        store = self.small_store()
        req = KnnQueryRequest(store.points[0], 1)
        assert store.knn_partition_sets([req.center], [[0]], 1) == [
            tuple(range(len(store.partitions)))
        ]

        async def go():
            async with QueryService(store) as svc:
                await svc.submit(req)
                svc.epochs.bump([len(store.partitions) - 1])
                return await svc.submit(req)

        assert not asyncio.run(go()).cached


class TestObservability:
    def test_serve_metrics_and_spans(self, store):
        enable()
        reqs = range_requests(4)

        async def go():
            async with QueryService(store, max_batch=4) as svc:
                first = await svc.submit_many(reqs)
                second = await svc.submit_many(reqs)
            return first + second

        responses = asyncio.run(go())
        assert all(r.ok for r in responses)
        snap = OBS.metrics.snapshot()
        assert snap.counter("repro_serve_requests_total", mode="range", status="ok") == 8
        assert snap.counter("repro_serve_cache_total", result="miss") == 4
        assert snap.counter("repro_serve_cache_total", result="hit") == 4
        assert snap.counter("repro_serve_kernel_calls_total", mode="range") == 1
        hist = snap.histogram("repro_serve_batch_size", mode="range")
        assert hist is not None and hist.count == 1 and hist.vmax == 4
        lat = snap.histogram("repro_serve_latency_seconds", mode="range")
        assert lat is not None and lat.count == 4
        assert snap.gauge("repro_serve_queue_depth") >= 1
        spans = OBS.tracer.finished()
        request_spans = [s for s in spans if s.name == "serve.request"]
        batch_spans = [s for s in spans if s.name == "serve.batch"]
        assert len(request_spans) == 8 and len(batch_spans) == 1
        # span attrs render as strings
        assert sum(1 for s in request_spans if dict(s.attrs)["cached"] == "True") == 4
        assert dict(batch_spans[0].attrs)["size"] == "4"

    def test_shed_metric_labelled_by_policy_and_priority(self, store):
        enable()

        async def go():
            async with QueryService(
                store, max_pending=1, policy="reject"
            ) as svc:
                tasks = [
                    asyncio.create_task(svc.submit(r)) for r in range_requests(3)
                ]
                await asyncio.gather(*tasks)

        asyncio.run(go())
        snap = OBS.metrics.snapshot()
        assert snap.counter(
            "repro_serve_shed_total", policy="reject", priority="0"
        ) == 2
        assert snap.counter(
            "repro_serve_requests_total", mode="range", status="shed"
        ) == 2


class TestPoolReuse:
    """Dispatcher failure paths: a failing store call fails every waiter."""

    def test_dispatcher_failure_fails_submitters_loudly(self, store):
        """A dying kernel must reject in-flight futures, never strand them."""

        def boom(*args, **kwargs):
            raise RuntimeError("kernel exploded")

        async def go():
            svc = await QueryService(store).start()
            svc.store = type(
                "BrokenStore",
                (),
                {
                    "range_query_many": staticmethod(boom),
                    "knn_many": staticmethod(boom),
                    "range_partition_sets": store.range_partition_sets,
                    "knn_partition_sets": store.knn_partition_sets,
                    "partition_boxes": store.partition_boxes,
                },
            )()
            with pytest.raises(RuntimeError, match="kernel exploded"):
                await svc.submit(range_requests(1)[0])
            with pytest.raises(RuntimeError, match="kernel exploded"):
                await svc.stop()

        asyncio.run(go())

    def test_dispatcher_failure_fails_every_batch_of_the_round(self, store):
        """Batches released together must all fail, not only the one that raised."""

        def boom(*args, **kwargs):
            raise RuntimeError("kernel exploded")

        async def go():
            svc = await QueryService(store).start()
            svc.store = type(
                "BrokenStore",
                (),
                {
                    "range_query_many": staticmethod(boom),
                    "knn_many": staticmethod(boom),
                    "partition_boxes": store.partition_boxes,
                },
            )()
            reqs = [range_requests(1)[0], KnnQueryRequest(Point(300.0, 300.0), 3)]
            results = await asyncio.wait_for(
                asyncio.gather(*(svc.submit(r) for r in reqs), return_exceptions=True),
                timeout=10.0,
            )
            assert [type(r) for r in results] == [RuntimeError, RuntimeError]
            with pytest.raises(RuntimeError, match="kernel exploded"):
                await svc.stop()

        asyncio.run(go())


class TestLiveIngestCompaction:
    """Opportunistic compaction between batches (live ingest tentpole)."""

    def heavy_delta(self, store, rng, n=400):
        region = BBox(0.0, 0.0, 1000.0, 1000.0)
        extra = skewed_points(rng, n, region, n_hotspots=2, hotspot_sigma=60.0)
        store.append_many(extra)
        return extra

    def test_auto_compaction_triggers_after_batch(self, store, rng, box):
        self.heavy_delta(store, rng)
        assert store.max_delta_fraction() >= 0.25
        responses, stats = serve_all(store, range_requests(4))
        assert all(r.status is ResponseStatus.OK for r in responses)
        assert stats.compactions >= 1
        assert stats.points_compacted >= 1
        # only partitions at/above the threshold fold; the max must drop below it
        assert store.max_delta_fraction() < 0.25

    def test_auto_compact_off_leaves_deltas(self, store, rng, box):
        self.heavy_delta(store, rng)
        _, stats = serve_all(store, range_requests(4), auto_compact=False)
        assert stats.compactions == 0
        assert store.delta_stats()["delta_points"] > 0.0

    def test_below_threshold_no_compaction(self, store, rng, box):
        store.append(Point(500.0, 500.0))
        _, stats = serve_all(
            store, range_requests(4), compact_threshold=0.9
        )
        assert stats.compactions == 0

    def test_compaction_does_not_invalidate_cache(self, store, rng, box):
        """Folding deltas is a representation change: cached results must
        survive it (no epoch bump), unlike a gate-admitted write."""
        self.heavy_delta(store, rng)

        async def go():
            async with QueryService(store) as svc:
                req = range_requests(1)[0]
                first = await svc.submit(req)
                # the dispatcher compacted after the first batch
                assert svc.stats.compactions >= 1
                again = await svc.submit(range_requests(1)[0])
                assert again.results == first.results
                assert again.cached
                return svc.stats

        stats = asyncio.run(go())
        assert stats.cache_hits == 1

    def test_served_results_identical_with_and_without_compaction(self, rng, box):
        pts = skewed_points(rng, 600, box, n_hotspots=3, hotspot_sigma=40.0)
        extra = skewed_points(rng, 300, box, n_hotspots=1, hotspot_sigma=80.0)
        a = PartitionedStore(pts, kd_partition(pts, box, 8))
        b = PartitionedStore(pts, kd_partition(pts, box, 8))
        a.append_many(extra)
        b.append_many(extra)
        reqs = range_requests(6) + [
            KnnQueryRequest(Point(300.0, 300.0), 5),
            KnnQueryRequest(Point(900.0, 100.0), 3),
        ]
        ra, _ = serve_all(a, reqs)
        rb, _ = serve_all(b, reqs, auto_compact=False)
        assert [r.results for r in ra] == [r.results for r in rb]

    def test_store_stats_exposes_delta_accounting(self, store, rng, box):
        async def go():
            async with QueryService(store) as svc:
                return svc.store_stats()

        stats = asyncio.run(go())
        assert stats["points"] == 600.0
        assert "delta_fraction_max" in stats

    def test_store_stats_empty_for_duck_typed_store(self, store):
        async def go():
            svc = QueryService(store)
            svc.store = object()
            return svc.store_stats()

        assert asyncio.run(go()) == {}

    def test_serve_compaction_metric(self, store, rng, box):
        self.heavy_delta(store, rng)
        enable()
        try:
            _, stats = serve_all(store, range_requests(4))
            assert stats.compactions >= 1
            snap = OBS.metrics.snapshot()
            assert snap.counter("repro_serve_compactions_total") >= 1
            assert snap.counter("repro_store_compactions_total") >= 1
        finally:
            disable()
