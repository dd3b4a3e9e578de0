"""Quality-aware serving gateway: live queries over a stream of gated writes.

The full exploitation loop of the tutorial, end to end: sensor readings
stream through an ingestion engine whose quality gates admit, repair, or
quarantine each one — every *admitted* write bumps the quality epochs
of the spatial partitions it lands in, invalidating exactly the cached
query results it could have changed, then lands in the partitioned
store's delta tier via ``PartitionedStoreSink``, queryable immediately
with no rebuild.  Meanwhile a fleet of closed-loop
dashboard clients hammers the serving layer with repeated range and kNN
queries; the service coalesces concurrent requests into in-process
batched kernel calls, answers repeats from the epoch-validated cache,
and sheds background traffic first when the queue fills.

Run:  PYTHONPATH=src python examples/serve_quality_gateway.py
"""

import asyncio

import numpy as np

from repro import obs
from repro.core import BBox, Point
from repro.ingest import IngestEngine, IngestEvent, PartitionedStoreSink, RangeGate
from repro.querying import PartitionedStore, kd_partition, skewed_points
from repro.serve import (
    EpochRegistry,
    KnnQueryRequest,
    QueryService,
    RangeQueryRequest,
    ingest_epoch_hook,
)

N_POINTS = 5_000
N_PARTITIONS = 16
N_CLIENTS = 200
QUERIES_PER_CLIENT = 4
N_DISTINCT = 60  # shared signature pool: dashboards re-ask popular questions


def build_world(rng):
    box = BBox(0.0, 0.0, 1000.0, 1000.0)
    pts = skewed_points(rng, N_POINTS, box, n_hotspots=4, hotspot_sigma=50.0)
    return PartitionedStore(pts, kd_partition(pts, box, N_PARTITIONS))


def build_queries(rng):
    """A skewed pool of range/kNN questions shared by every client."""
    pool = []
    for i in range(N_DISTINCT):
        center = Point(float(rng.uniform(100, 900)), float(rng.uniform(100, 900)))
        if i % 3:
            pool.append(RangeQueryRequest(center, float(rng.uniform(30, 90))))
        else:
            pool.append(KnnQueryRequest(center, int(rng.integers(3, 10))))
    weights = 0.9 ** np.arange(N_DISTINCT)
    weights /= weights.sum()
    picks = rng.choice(N_DISTINCT, size=(N_CLIENTS, QUERIES_PER_CLIENT), p=weights)
    return [[pool[j] for j in row] for row in picks]


async def drive(service: QueryService, scripts, epochs: EpochRegistry) -> int:
    """Closed-loop clients, with a mid-run burst of gate-admitted writes."""

    async def client(script):
        ok = 0
        for request in script:
            response = await service.submit(request)
            ok += response.ok
        return ok

    half = N_CLIENTS // 2
    first = await asyncio.gather(*(client(s) for s in scripts[:half]))

    # Mid-run: sensor readings stream through the quality gates; each
    # admitted write invalidates exactly the cached results it could
    # change, then lands in the store's delta tier — queryable by the
    # second wave of clients with no rebuild.
    stale_before = service.cache.stale_evictions
    points_before = len(service.store.points)
    sink = PartitionedStoreSink(service.store)
    with IngestEngine(
        n_shards=2,
        gate_factories=[lambda: RangeGate(-60.0, 160.0)],
        on_admit=ingest_epoch_hook(epochs),
        store=sink,
    ) as engine:
        for i in range(40):
            engine.offer(
                IngestEvent(
                    sensor_id=f"s{i % 4}",
                    x=float(200 + 15 * i),
                    y=float(300 + 11 * i),
                    t=float(i),
                    value=20.0 if i % 5 else 400.0,  # every fifth reading is junk
                    arrival_time=float(i),
                )
            )
        counters = engine.close()
    assert len(service.store.points) == points_before + counters.admitted
    print(
        f"ingest burst: {counters.offered} offered, {counters.admitted} admitted, "
        f"{counters.quarantined} quarantined by the range gate"
    )
    print(
        f"store grew {points_before} -> {len(service.store.points)} points "
        f"(sink wrote {sink.written} into the delta tier, no rebuild)"
    )
    print(f"epoch bumps so far: {epochs.total_bumps} (stale evictions follow lazily)")

    second = await asyncio.gather(*(client(s) for s in scripts[half:]))
    print(
        f"stale cache evictions caused by the burst: "
        f"{service.cache.stale_evictions - stale_before}"
    )
    return sum(first) + sum(second)


def main() -> None:
    obs.enable()  # spans + serving metrics while the fleet runs
    rng = np.random.default_rng(7)
    store = build_world(rng)
    epochs = EpochRegistry(store.partition_boxes)
    scripts = build_queries(rng)
    print(
        f"{N_CLIENTS} closed-loop clients x {QUERIES_PER_CLIENT} queries over "
        f"{N_POINTS} points in {N_PARTITIONS} partitions"
    )

    async def go():
        async with QueryService(
            store,
            max_batch=64,
            epochs=epochs,
            policy="block",
        ) as svc:
            answered = await drive(svc, scripts, epochs)
        return answered, svc.stats, svc.cache.hit_rate(), svc.store_stats()

    answered, stats, hit_rate, store_stats = asyncio.run(go())

    print("\n--- serving accounting ---")
    print(f"{'answered':>18}: {answered} / {stats.submitted}")
    print(f"{'cache hit rate':>18}: {hit_rate:.1%}")
    print(f"{'shed':>18}: {stats.shed}")
    print(f"{'kernel calls':>18}: {stats.kernel_calls}")
    print(f"{'coalesce ratio':>18}: {stats.coalesce_ratio():.1f} requests per call")
    if store_stats:
        print(
            f"{'delta tier':>18}: {store_stats['delta_points']:.0f} of "
            f"{store_stats['points']:.0f} points unfolded, "
            f"{stats.compactions} opportunistic compactions"
        )

    snap = obs.OBS.metrics.snapshot()
    print("\n--- observability snapshot ---")
    for result in ("hit", "miss", "stale"):
        count = snap.counter("repro_serve_cache_total", result=result)
        print(f"{'cache ' + result:>18}: {int(count)}")
    batch = snap.histogram("repro_serve_batch_size", mode="range")
    if batch is not None:
        print(f"{'range batch sizes':>18}: mean {batch.mean():.1f}, max {batch.vmax:.0f}")
    spans = obs.OBS.tracer.finished()
    print(f"{'serve.batch spans':>18}: {sum(1 for s in spans if s.name == 'serve.batch')}")
    obs.disable()

    # Conservation: every submitted request was answered or shed.
    assert stats.submitted == stats.served + stats.cache_hits + stats.shed
    assert answered == stats.submitted - stats.shed
    assert stats.shed == 0  # block policy is lossless


if __name__ == "__main__":
    main()
