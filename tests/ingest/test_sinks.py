"""PartitionedStoreSink: gate-admitted events become queryable immediately.

The sink closes the ingest→query gap of the tentpole: every admitted
event lands in a :class:`PartitionedStore` delta tail before ``write``
returns, so a range query issued right after ingest sees the point — no
rebuild, no re-partition.  Conservation must keep holding through the
engine (`admitted == len(sink)`), and the resulting store must stay
bit-identical to a from-scratch rebuild over the same membership.
"""

import numpy as np

from repro.core import BBox, Point
from repro.ingest import (
    DuplicateGate,
    IngestEngine,
    IngestEvent,
    PartitionedStoreSink,
    RangeGate,
    ReplaySource,
    SpeedScreenGate,
    corrupt_stream,
    field_stream,
)
from repro.querying import PartitionedStore, kd_partition, skewed_points

REGION = BBox(0.0, 0.0, 1000.0, 1000.0)


def make_store(seed=2022, n_points=300, n_parts=8):
    rng = np.random.default_rng(seed)
    points = skewed_points(rng, n_points, REGION, n_hotspots=3, hotspot_sigma=50.0)
    return PartitionedStore(points, kd_partition(points, REGION, n_parts)), rng


def event(sensor, x, y, t, value=0.0):
    return IngestEvent(sensor_id=sensor, x=x, y=y, t=t, value=value, arrival_time=t)


class TestSinkUnit:
    def test_write_appends_and_counts(self):
        store, _ = make_store()
        n0 = len(store.points)
        sink = PartitionedStoreSink(store)
        sink.write(event("s1", 400.0, 400.0, 0.0))
        sink.write(event("s2", 700.0, 100.0, 1.0))
        assert len(sink) == 2
        assert len(store.points) == n0 + 2
        assert sink.records == []  # keep_records off by default
        assert n0 in store.range_query(Point(400.0, 400.0), 1.0)

    def test_keep_records_retains_audit_log(self):
        store, _ = make_store()
        sink = PartitionedStoreSink(store, keep_records=True)
        sink.write(event("s1", 10.0, 20.0, 3.0))
        records = sink.records
        assert len(records) == 1
        assert records[0].x == 10.0 and records[0].source == "s1"
        records.append(None)
        assert len(sink.records) == 1  # property returns a copy


class TestEngineEndToEnd:
    def test_admitted_events_are_queryable_and_conserved(self):
        store, rng = make_store()
        n0 = len(store.points)
        events, _ = field_stream(rng, 16, REGION, 0.0, 60.0, 5.0)
        sink = PartitionedStoreSink(store)
        engine = IngestEngine(n_shards=4, store=sink)
        ReplaySource(events).drive(engine)
        counters = engine.close()
        assert counters.conserved()
        assert counters.admitted == len(events) == len(sink)
        assert len(store.points) == n0 + len(events)
        # every admitted position is findable in the live store
        for ev in events[:20]:
            hits = store.range_query(Point(ev.x, ev.y), 1e-9)
            assert hits, (ev.x, ev.y)

    def test_gated_stream_only_admitted_points_land(self):
        store, rng = make_store()
        n0 = len(store.points)
        events, _ = field_stream(rng, 8, REGION, 0.0, 60.0, 5.0)
        # spiked value that the gate must quarantine (position is rogue too)
        events = list(events) + [event("rogue", 5000.0, 5000.0, 99.0, value=1e9)]
        sink = PartitionedStoreSink(store)
        engine = IngestEngine(
            n_shards=2,
            gate_factories=[lambda: RangeGate(-1e6, 1e6)],
            store=sink,
        )
        ReplaySource(events).drive(engine)
        counters = engine.close()
        assert counters.conserved()
        assert counters.quarantined >= 1
        assert len(store.points) == n0 + counters.admitted
        assert store.range_query(Point(5000.0, 5000.0), 1.0) == []

    def test_streamed_store_matches_rebuilt(self):
        store, rng = make_store()
        events, _ = field_stream(rng, 12, REGION, 0.0, 40.0, 5.0)
        with IngestEngine(n_shards=4, store=PartitionedStoreSink(store)) as engine:
            ReplaySource(events).drive(engine)
        centers = [Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(10)]
        radii = rng.uniform(20.0, 150.0, 10).tolist()
        fresh = store.rebuilt()
        assert store.range_query_many(centers, radii) == fresh.range_query_many(
            centers, radii
        )
        assert store.knn_many(centers, 5) == fresh.knn_many(centers, 5)

    def test_compaction_after_ingest_preserves_membership(self):
        store, rng = make_store()
        events, _ = field_stream(rng, 10, REGION, 0.0, 30.0, 5.0)
        with IngestEngine(n_shards=2, store=PartitionedStoreSink(store)) as engine:
            ReplaySource(events).drive(engine)
        before = [p.point_indices for p in store.partitions]
        stats = store.compact(threshold=0.0)
        assert stats.points_folded == len(events)
        assert [p.point_indices for p in store.partitions] == before


def test_shard_count_does_not_change_the_store():
    """One writer processes every shard in offer order, so the store a
    gated, corrupted stream builds is the same at 1 and at 4 shards."""
    rng = np.random.default_rng(11)
    _, series = field_stream(rng, 16, REGION, 0.0, 120.0, 5.0)
    events = corrupt_stream(series, rng, duplicate_rate=0.3, spike_rate=0.1, mean_delay=2.0)

    def run(n_shards):
        store, _ = make_store()
        engine = IngestEngine(
            n_shards=n_shards,
            gate_factories=[
                lambda: RangeGate(-20.0, 40.0),
                lambda: DuplicateGate(space_eps=1.0, time_eps=0.5),
                lambda: SpeedScreenGate(-1.0, 1.0),
            ],
            store=PartitionedStoreSink(store),
        )
        ReplaySource(events).drive(engine)
        return store, engine.close()

    one, one_counters = run(1)
    four, four_counters = run(4)
    assert [(p.x, p.y) for p in four.points] == [(p.x, p.y) for p in one.points]
    assert four.partitions == one.partitions
    assert four_counters == one_counters
    assert one_counters.conserved()
    assert one_counters.quarantined > 0 and one_counters.repaired > 0
