"""Experiment F-ING — streaming ingestion: sharding and gate cost.

Claims measured:
  * Sharding: hash-partitioning sensors across workers raises sustained
    ingestion throughput against a latency-bound store (4 shards strictly
    beat 1 on the same 100-sensor stream).
  * Gate cost: per-reading gate-chain latency stays in the tens of
    microseconds (mean/max read from the ``repro_ingest_gate_seconds``
    histogram, so the sweep runs with observability on), so quality
    gating is not the bottleneck — the store is.
  * Accounting: every offered event is admitted, quarantined, dropped, or
    rejected, at every shard count.

Emits a JSON summary line (prefix ``BENCH_INGEST_JSON``) with the full
shard sweep for machine consumption, alongside the usual table.
"""

import json
import time
from functools import reduce

from conftest import print_table

from repro import obs
from repro.ingest import (
    DuplicateGate,
    IngestEngine,
    InMemoryStore,
    LatencyStore,
    RangeGate,
    ReplaySource,
    SpeedScreenGate,
    corrupt_stream,
    field_stream,
)

N_SENSORS = 100
T_END = 140.0
INTERVAL = 1.0
STORE_LATENCY = 100e-6  # emulated per-write backend cost (seconds)
SHARD_COUNTS = (1, 2, 4, 8)


def _gates():
    return [
        lambda: RangeGate(-60.0, 160.0),
        lambda: DuplicateGate(space_eps=1.0, time_eps=0.5),
        lambda: SpeedScreenGate(-20.0, 20.0),
    ]


def _workload(rng, box):
    _, series = field_stream(rng, N_SENSORS, box, 0.0, T_END, INTERVAL)
    return corrupt_stream(series, rng, duplicate_rate=0.1, spike_rate=0.02)


def _run(events, n_shards):
    engine = IngestEngine(
        n_shards=n_shards,
        gate_factories=_gates(),
        store=LatencyStore(InMemoryStore(), STORE_LATENCY),
        queue_size=4096,
    )
    start = time.perf_counter()
    ReplaySource(events).drive(engine)
    counters = engine.close()
    elapsed = time.perf_counter() - start
    return {
        "shards": n_shards,
        "events": len(events),
        "seconds": elapsed,
        "throughput_eps": len(events) / elapsed,
        **_gate_cost(),
        "counters": counters.as_dict(),
        "conserved": counters.conserved(),
    }


def _gate_cost():
    """Gate-chain mean/max (us) over every shard's gate histogram.

    Empty with observability off: the engine records gate time only into
    the ``repro_ingest_gate_seconds`` histogram.
    """
    if not obs.OBS.enabled:
        return {}
    snap = obs.OBS.metrics.snapshot()
    hists = [h for k, h in snap.histograms.items() if k[0] == "repro_ingest_gate_seconds"]
    merged = reduce(lambda a, b: a.merge(b), hists)
    return {"gate_mean_us": merged.mean() * 1e6, "gate_max_us": merged.vmax * 1e6}


def test_sharded_ingest_throughput(rng, box, benchmark):
    events = _workload(rng, box)
    results = []
    try:
        for n in SHARD_COUNTS:
            obs.enable()  # a fresh registry: the gate histogram covers this run only
            results.append(_run(events, n))
    finally:
        obs.disable()

    rows = [
        (
            r["shards"],
            r["events"],
            f"{r['throughput_eps']:.0f}",
            r["gate_mean_us"],
            r["gate_max_us"],
            r["counters"]["admitted"],
            r["counters"]["quarantined"],
        )
        for r in results
    ]
    print_table(
        f"F-ING: {N_SENSORS}-sensor stream, {STORE_LATENCY * 1e6:.0f}us store writes",
        ["shards", "events", "events/s", "gate mean_us", "gate max_us", "admitted", "quarantined"],
        rows,
    )
    print("BENCH_INGEST_JSON " + json.dumps({"results": results}))

    by_shards = {r["shards"]: r for r in results}
    # accounting conservation at every shard count
    assert all(r["conserved"] for r in results)
    # identical admission decisions regardless of sharding
    admitted = {r["counters"]["admitted"] for r in results}
    assert len(admitted) == 1
    # sharding pays: 4 shards strictly beat 1, and no sharded config loses
    assert by_shards[4]["throughput_eps"] > by_shards[1]["throughput_eps"]
    for n in (2, 8):
        assert by_shards[n]["throughput_eps"] > by_shards[1]["throughput_eps"] * 0.95

    # time the hot path itself: one offer through a warm engine's shard queue
    engine = IngestEngine(n_shards=4, gate_factories=_gates(), queue_size=1 << 16)
    try:
        benchmark(engine.offer, events[0])
    finally:
        engine.close()


def test_obs_overhead(rng, box, benchmark):
    """Observability column: the identical stream with obs disabled vs enabled.

    The enabled run's gate-outcome counters must exactly match the engine's
    own accounting.  The hard <5% disabled-overhead gate lives in
    ``bench_obs.py --smoke``; here we report the measured columns.
    """
    events = _workload(rng, box)
    obs.disable()
    off = _run(events, 4)
    obs.enable()
    on = _run(events, 4)
    snap = obs.OBS.metrics.snapshot()
    obs.disable()

    rows = [
        ("obs disabled (events/s)", f"{off['throughput_eps']:.0f}"),
        ("obs enabled (events/s)", f"{on['throughput_eps']:.0f}"),
        ("enabled/disabled time", f"{on['seconds'] / off['seconds']:.3f}"),
    ]
    print_table("F-ING: observability overhead (4 shards)", ["mode", "value"], rows)
    assert snap.counter("repro_ingest_offered_total") == float(on["counters"]["offered"])
    # Engine accounting folds repairs into "admitted" (the record is stored).
    admit_total = sum(
        v
        for (name, pairs), v in snap.counters.items()
        if name == "repro_ingest_gate_outcomes_total"
        and (("decision", "admit") in pairs or ("decision", "repair") in pairs)
    )
    assert admit_total == float(on["counters"]["admitted"])

    engine = IngestEngine(n_shards=4, gate_factories=_gates(), queue_size=1 << 16)
    try:
        benchmark(engine.offer, events[0])
    finally:
        engine.close()
