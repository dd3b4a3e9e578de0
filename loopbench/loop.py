"""One timed phase of a workload: set up the loop, drive it, check it.

The load comes from one process: the asyncio client loop on the main
thread plus, for ingest, one producer thread.  The system under test is
the live loop ``IngestEngine`` (Range → Duplicate → SpeedScreen gates,
``compose_admit_hooks(ingest_epoch_hook, qod_ingest_hook)``,
``PartitionedStoreSink``) feeding a ``PartitionedStore`` that a
``QueryService`` serves, with QoD weights refreshed on a fixed schedule.
"""

from __future__ import annotations

import asyncio
import gc
import os
import resource
import threading
import time
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from city import RATE_LIMIT, READING_INTERVAL, REGION, VALUE_RANGE, City, Workload
from probes import Spans, TimedGate, TimedStore, VisibleSink, time_cache, timed_hook

from repro.ingest import DuplicateGate, IngestEngine, PartitionedStoreSink, RangeGate, SpeedScreenGate
from repro.qod import QodConfig, QodRegistry, compose_admit_hooks, point_weights, qod_ingest_hook
from repro.querying.distributed import PartitionedStore, kd_partition, resolve_compact_threshold
from repro.serve import EpochRegistry, QueryService, ingest_epoch_hook

#: Engine shards: one per CPU this process may run on.
N_SHARDS = len(os.sched_getaffinity(0))

#: Setups per phase, before and after the timed phase; ``setup_s`` is their
#: minimum.  Spreading them over the run keeps one slow spell of the host
#: from setting all of them.
SETUPS_BEFORE = 3
SETUPS_AFTER = 3


@dataclass
class Loop:
    """The live system of one phase and the benchmark's handles on it."""

    store: PartitionedStore
    epochs: EpochRegistry
    qod: QodRegistry
    sink: VisibleSink
    engine: IngestEngine
    service: QueryService
    sources: list[str]  # producing sensor of each store point ("" for base points)
    new_engine: Callable[[], IngestEngine]  # another engine on the same hooks and sink


@dataclass
class PhaseResult:
    """Raw observations of one timed phase (metrics are derived later)."""

    setup_s: list[float]
    t0: float
    t_end: float
    t_queries: float
    ingest_settled: int  # readings settled by the main ingest (the flood, if any)
    ingest_window: float  # first offer until those had settled
    cpu_s: float
    queries: list[tuple]  # (req, due, fire, submit, done, status)
    offer_start: list[float]
    offer_end: list[float]
    n_flood: int
    reading_due: list[float | None]  # None for flood readings
    visible: dict
    counters: dict
    ingest_errors: int
    points_start: int
    points_end: int
    delta_fraction_max_end: float
    partitions_touched: int
    queries_routed: int
    serve_stats: dict
    cache_lookups: tuple[int, int, int]  # hits, misses, stale evictions
    refreshes: list[tuple[float, float]]
    qod_sensors: int
    cyclic_garbage: int
    never_bumped_share: float
    check_total: int
    check_wrong: int
    check_errors: list[str]
    peak_rss_mb: float  # at the end of the checks, before the later setups
    store: PartitionedStore | None = None
    spans: Spans | None = None


def _gate_factories(spans: Spans | None):
    base = [
        lambda: RangeGate(*VALUE_RANGE),
        lambda: DuplicateGate(space_eps=1.0, time_eps=0.5),
        lambda: SpeedScreenGate(-RATE_LIMIT, RATE_LIMIT),
    ]
    if spans is None:
        return base
    return [lambda f=f: TimedGate(f(), spans) for f in base]


async def build_loop(w: Workload, city: City, spans: Spans | None, store_cls=None) -> Loop:
    """Store construction, registry, engine and service start, warm-up."""
    parts = kd_partition(city.points, REGION, w.partitions)
    cls = store_cls or (TimedStore if spans is not None else PartitionedStore)
    store = cls(city.points, parts)
    if spans is not None:
        store.attach(spans)
    epochs = EpochRegistry(store.partition_boxes)
    qod = QodRegistry(
        QodConfig(
            value_bounds=VALUE_RANGE,
            value_rate_bounds=(-RATE_LIMIT, RATE_LIMIT),
            expected_interval=READING_INTERVAL,
        )
    )
    epoch_hook, qod_hook = ingest_epoch_hook(epochs), qod_ingest_hook(qod)
    if spans is not None:
        epoch_hook = timed_hook(epoch_hook, "ingest.on_admit.epoch", spans)
        qod_hook = timed_hook(qod_hook, "ingest.on_admit.qod", spans)
    sink = VisibleSink(PartitionedStoreSink(store), spans)

    def new_engine() -> IngestEngine:
        return IngestEngine(
            n_shards=N_SHARDS,
            gate_factories=_gate_factories(spans),
            store=sink,
            on_admit=compose_admit_hooks(epoch_hook, qod_hook),
            policy="block",
        )

    # A flooding producer compacts between its own offer chunks; two
    # compactors must not race, so the service's own compaction is off there.
    service = QueryService(store, epochs=epochs, auto_compact=w.flood_rate == 0)
    await service.start()
    if spans is not None:
        time_cache(service.cache, spans)
    loop = Loop(store, epochs, qod, sink, new_engine(), service, [""] * len(city.points), new_engine)
    refresh_weights(loop, city)
    await service.submit_many(city.warmup)
    return loop


async def teardown(loop: Loop) -> None:
    await loop.service.stop()
    loop.engine.close()


async def timed_build(w: Workload, city: City, spans: Spans | None, store_cls=None) -> tuple[Loop, float]:
    """``build_loop`` timed with the cyclic collector off, as in timeit.

    Each setup allocates 50-100k fresh objects; with the collector on, a
    full collection lands in some setups and not others.
    """
    gc.collect()
    gc.disable()
    try:
        start = perf_counter()
        loop = await build_loop(w, city, spans, store_cls)
        return loop, perf_counter() - start
    finally:
        gc.enable()


def refresh_weights(loop: Loop, city: City) -> None:
    """One QoD pass: registry weights → per-point weights → the store."""
    weights = loop.qod.weights()
    points = loop.store.points
    n = len(points)
    for i in range(len(loop.sources), n):
        p = points[i]
        loop.sources.append(city.site_sensor[(p.x, p.y)])
    loop.store.set_quality_weights(point_weights(loop.sources[:n], weights))


def _offer(loop: Loop, city: City, i: int, offer_start: list[float], offer_end: list[float]) -> None:
    offer_start[i] = perf_counter()
    loop.engine.offer(city.readings[i])
    offer_end[i] = perf_counter()


def _close(loop: Loop, outcome: dict) -> float:
    """Close the current engine, keep its counters; returns when it had settled."""
    try:
        counters = loop.engine.close()
    except Exception:  # a gate, hook or sink raised in a shard worker
        outcome["errors"] += 1
        counters = loop.engine.registry.counters_snapshot()
    outcome["counters"].append(counters)
    return perf_counter()


def _produce(
    loop: Loop,
    w: Workload,
    city: City,
    t0: float,
    due: list[float | None],
    offer_start: list[float],
    offer_end: list[float],
    outcome: dict,
    probe_go: threading.Event,
) -> None:
    """Ingest producer thread: a flood, then paced readings.

    The flood (the first ``city.n_flood`` readings) is offered as fast as
    ``block`` allows, compacting between chunks.  Its engine is then
    closed, so ``outcome["flood_settled_at"]`` is when every flood reading
    had settled, and a fresh engine on the same hooks and sink takes the
    paced readings; they count from ``outcome["probe_t0"]``, announced by
    ``probe_go``.  Without a flood they count from ``t0``.  Each paced
    reading is offered at its due time ``due[i]``.
    """
    threshold = resolve_compact_threshold()
    outcome.update(errors=0, counters=[])
    try:
        if city.n_flood:
            for i in range(city.n_flood):
                _offer(loop, city, i, offer_start, offer_end)
                if (i + 1) % w.flood_chunk == 0 and loop.store.max_delta_fraction() >= threshold:
                    loop.store.compact(threshold=threshold)
            outcome["flood_settled_at"] = _close(loop, outcome)
            loop.engine = loop.new_engine()
            t0 = outcome["probe_t0"] = perf_counter() + 0.05
            probe_go.set()
        for i in range(city.n_flood, len(city.readings)):
            due[i] = t0 + float(city.reading_due[i - city.n_flood])
            delay = due[i] - perf_counter()
            if delay > 0:
                time.sleep(delay)
            _offer(loop, city, i, offer_start, offer_end)
    except Exception:  # counted as an ingest failure
        outcome["errors"] += 1
    finally:
        probe_go.set()
    outcome["settled_at"] = _close(loop, outcome)


async def _ask(service: QueryService, req, due: float, fire: float, out: list) -> None:
    submit = perf_counter()
    try:
        resp = await service.submit(req)
        status = ("cached" if resp.cached else "ok") if resp.ok else "shed"
    except Exception:
        status = "error"
    out.append((req, due, fire, submit, perf_counter(), status))


async def _open_loop(service: QueryService, city: City, t0: float, out: list) -> None:
    """Seeded Poisson arrivals; each request is timed from its due time."""
    tasks = []
    for req, offset in zip(city.queries, city.query_due):
        due = t0 + float(offset)
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(_ask(service, req, due, perf_counter(), out)))
    await asyncio.gather(*tasks)


async def _closed_loop(service: QueryService, city: City, w: Workload, end: float, out: list) -> None:
    """``w.clients`` coroutine clients, each waiting for its reply."""
    queries = iter(city.queries)

    async def client() -> None:
        for req in queries:
            if perf_counter() >= end:
                return
            now = perf_counter()
            await _ask(service, req, now, now, out)

    await asyncio.gather(*(client() for _ in range(w.clients)))


async def _until(done: Callable[[], bool]) -> None:
    """Wait, without blocking the event loop, until ``done()``."""
    while not done():
        await asyncio.sleep(0.005)


async def _refresher(loop: Loop, city: City, period: float, stop: asyncio.Event, out: list) -> None:
    while True:
        try:
            await asyncio.wait_for(stop.wait(), timeout=period)
            return
        except asyncio.TimeoutError:
            pass
        start = perf_counter()
        refresh_weights(loop, city)
        out.append((start, perf_counter()))


async def _check_answers(loop: Loop, city: City) -> tuple[int, list[str]]:
    """Re-ask the seeded sample through the service; compare with a rebuild."""
    oracle = loop.store.rebuilt()
    weights = loop.store.quality_weights()
    if weights is not None:
        oracle.set_quality_weights(weights)
    responses = await loop.service.submit_many(city.check_sample)
    wrong = 0
    for req, resp in zip(city.check_sample, responses):
        if req.mode == "range":
            expected = oracle.range_query(req.center, req.radius)
        else:
            expected = oracle.knn(req.center, req.k, weighted=req.weighted)
        if not resp.ok or tuple(resp.results) != tuple(expected):
            wrong += 1
    return wrong, [f"{wrong} of {len(responses)} re-asked answers differ from store.rebuilt()"] if wrong else []


async def run_phase(w: Workload, city: City, seconds: float, traced: bool, store_cls=None) -> PhaseResult:
    """Set up ``SETUPS_BEFORE`` times (keeping the last), drive the loop,
    check it, then time ``SETUPS_AFTER`` more setups."""
    spans = Spans() if traced else None
    if spans is not None:
        spans.open = False
    setup_s: list[float] = []
    loop: Loop | None = None
    for _ in range(SETUPS_BEFORE):
        if loop is not None:
            await teardown(loop)
            loop = None
        loop, took = await timed_build(w, city, spans, store_cls)
        setup_s.append(took)
    assert loop is not None
    if spans is not None:
        spans.open = True
        loop.store.pool_calls = 0  # warm-up scans are not counted

    # The cyclic collector is off during the timed phase, as in timeit: a
    # full collection over the inputs and the store (~80-150 ms) lands in
    # some runs and not others and decides their p99 alone.  Cyclic garbage
    # the loop leaves behind is counted after the phase instead.
    gc.collect()
    gc.disable()
    try:
        result = await _timed_phase(w, city, seconds, loop, spans, setup_s)
    finally:
        gc.enable()
    for _ in range(SETUPS_AFTER):
        extra, took = await timed_build(w, city, spans, store_cls)
        setup_s.append(took)
        await teardown(extra)
        del extra
    return result


async def _timed_phase(
    w: Workload, city: City, seconds: float, loop: Loop, spans: Spans | None, setup_s: list[float]
) -> PhaseResult:
    store, service = loop.store, loop.service
    n = len(city.readings)
    offer_start = [0.0] * n
    offer_end = [0.0] * n
    points_start = len(store.points)
    touched0, routed0 = store.partitions_touched, store.queries_run
    stats0 = service.stats.as_dict()
    hits0, misses0, stale0 = service.cache.hits, service.cache.misses, service.cache.stale_evictions
    queries: list[tuple] = []
    refreshes: list[tuple[float, float]] = []
    outcome: dict = {}

    cpu0 = time.process_time()
    t0 = perf_counter() + 0.05
    # Paced readings start with the run, or, as a probe, after the
    # closed-loop queries (after a flood, the producer picks the start).
    paced_t0 = t0 + seconds + 0.05 if w.probe == "ingest" else t0
    due: list[float | None] = [None] * n
    probe_go = threading.Event()
    producer = threading.Thread(
        target=_produce,
        args=(loop, w, city, paced_t0, due, offer_start, offer_end, outcome, probe_go),
        name="loopbench-producer",
    )
    stop = asyncio.Event()
    refresher = asyncio.create_task(_refresher(loop, city, w.qod_refresh_s, stop, refreshes))
    producer.start()
    t_queries = t0
    if w.probe == "both":
        # Reads of the store the flood left behind, with serve idle during it.
        await _until(probe_go.is_set)
        t_queries = outcome.get("probe_t0", perf_counter())
        await _open_loop(service, city, t_queries, queries)
    elif city.query_due is not None:
        await _open_loop(service, city, t0, queries)
    else:
        delay = t0 - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        await _closed_loop(service, city, w, t0 + seconds, queries)
    await _until(lambda: not producer.is_alive())
    producer.join()
    engines = outcome["counters"]
    counters = {k: sum(c.as_dict()[k] for c in engines) for k in engines[0].as_dict()}
    main = engines[0].as_dict()  # the flood's engine, or the only one
    ingest_settled = main["admitted"] + main["quarantined"] + main["dropped"] + main["rejected"]
    ingest_window = outcome.get("flood_settled_at", outcome["settled_at"]) - min(offer_start)
    t_end = perf_counter()
    stop.set()
    await refresher
    cpu_s = time.process_time() - cpu0
    gc.enable()
    cyclic_garbage = gc.collect()
    if spans is not None:
        spans.open = False

    points_end = len(store.points)
    touched, routed = store.partitions_touched - touched0, store.queries_run - routed0
    stats = {k: v - stats0.get(k, 0) for k, v in service.stats.as_dict().items()}
    cache_lookups = (
        service.cache.hits - hits0,
        service.cache.misses - misses0,
        service.cache.stale_evictions - stale0,
    )
    epochs = loop.epochs.snapshot()
    delta_end = store.max_delta_fraction()

    wrong, check_errors = await _check_answers(loop, city)
    if not all(c.conserved() for c in engines):
        check_errors.append("ingest conservation broken")
    if points_end != points_start + counters["admitted"]:
        check_errors.append(
            f"points_end {points_end} != points_start {points_start} + admitted {counters['admitted']}"
        )
    await service.stop()

    return PhaseResult(
        setup_s=setup_s,
        t0=t0,
        t_end=t_end,
        t_queries=t_queries,
        ingest_settled=ingest_settled,
        ingest_window=ingest_window,
        cpu_s=cpu_s,
        queries=queries,
        offer_start=offer_start,
        offer_end=offer_end,
        n_flood=city.n_flood,
        reading_due=due,
        visible=loop.sink.visible,
        counters=counters,
        ingest_errors=outcome["errors"] + loop.sink.errors,
        points_start=points_start,
        points_end=points_end,
        delta_fraction_max_end=delta_end,
        partitions_touched=touched,
        queries_routed=routed,
        serve_stats=stats,
        cache_lookups=cache_lookups,
        refreshes=refreshes,
        qod_sensors=len(loop.qod),
        cyclic_garbage=cyclic_garbage,
        never_bumped_share=sum(1 for e in epochs if e == 0) / len(epochs),
        check_total=len(city.check_sample),
        check_wrong=wrong,
        check_errors=check_errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        store=store,
        spans=spans,
    )
