"""Engine behavior: sharding, accounting conservation, backpressure, shutdown."""

import itertools
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import Dimension, staleness
from repro.ingest import (
    Decision,
    DuplicateGate,
    IngestEngine,
    IngestEvent,
    InMemoryStore,
    LatencyStore,
    QualityRegistry,
    RangeGate,
    ReorderGate,
    ReplaySource,
    SpeedScreenGate,
    StreamingGate,
    corrupt_stream,
    field_stream,
    shard_of,
)


class SlowGate(StreamingGate):
    """Test-only gate burning wall time per reading (forces queue buildup)."""

    name = "slow"

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def offer(self, event):
        """Admit after sleeping (models an expensive per-reading check)."""
        time.sleep(self.seconds)
        return [self._admit(event)]


class HeldGate(StreamingGate):
    """Test-only gate that holds each reading until ``release`` is set."""

    name = "held"

    def __init__(self, release: threading.Event) -> None:
        self.release = release

    def offer(self, event):
        """Admit once released (bounded, so a failing test cannot hang)."""
        self.release.wait(timeout=5.0)
        return [self._admit(event)]


class GateExploded(Exception):
    """Raised by :class:`ExplodingGate`."""


class ExplodingGate(StreamingGate):
    """Test-only gate that raises on every reading (kills its shard's worker)."""

    name = "exploding"

    def offer(self, event):
        """Fail the reading."""
        raise GateExploded(event.sensor_id)


def _outcome_within(fn, seconds=5.0):
    """Run ``fn`` in a daemon thread joined with a time bound; its outcome."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except Exception as exc:  # the outcome under test
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"call still blocked after {seconds} s"
    return outcome


def _stream(seed=0, n_sensors=20, t_end=120.0, interval=5.0):
    rng = np.random.default_rng(seed)
    from repro.core import BBox

    box = BBox(0.0, 0.0, 1000.0, 1000.0)
    return field_stream(rng, n_sensors, box, 0.0, t_end, interval)


class TestSharding:
    def test_shard_assignment_is_stable_and_in_range(self):
        for n in (1, 2, 4, 8):
            for sid in (f"sensor-{i}" for i in range(50)):
                s = shard_of(sid, n)
                assert 0 <= s < n
                assert s == shard_of(sid, n)

    def test_per_sensor_order_preserved(self):
        """One sensor always lands on one shard, so its readings are
        processed (and stored) in offer order."""
        events, _ = _stream(n_sensors=10)
        with IngestEngine(n_shards=4) as engine:
            ReplaySource(events).drive(engine)
        for sensor, records in engine.store.by_sensor().items():
            times = [r.t for r in records]
            assert times == sorted(times), sensor

    def test_all_shards_used_with_enough_sensors(self):
        events, _ = _stream(n_sensors=32)
        with IngestEngine(n_shards=4) as engine:
            ReplaySource(events).drive(engine)
        assert all(n > 0 for n in engine.processed_per_shard())


class TestAccounting:
    def test_clean_stream_fully_admitted(self):
        events, _ = _stream()
        engine = IngestEngine(n_shards=2)
        ReplaySource(events).drive(engine)
        counters = engine.close()
        assert counters.conserved()
        assert counters.admitted == len(events)
        assert counters.quarantined == 0

    def test_corrupted_stream_conserved_with_full_gate_chain(self):
        rng = np.random.default_rng(3)
        _, series = _stream(seed=3)
        events = corrupt_stream(
            series, rng, duplicate_rate=0.3, spike_rate=0.05, mean_delay=2.0
        )
        quarantine = InMemoryStore()
        engine = IngestEngine(
            n_shards=4,
            gate_factories=[
                lambda: ReorderGate(allowed_lateness=4.0),
                lambda: DuplicateGate(space_eps=1.0, time_eps=0.5),
                lambda: SpeedScreenGate(-5.0, 5.0),
            ],
            quarantine_store=quarantine,
        )
        ReplaySource(events).drive(engine)
        counters = engine.close()
        assert counters.conserved()
        assert counters.offered == len(events)
        assert counters.quarantined > 0  # duplicates and/or late arrivals
        assert len(engine.store) == counters.admitted
        assert len(quarantine) == counters.quarantined

    def test_registry_decisions_match_global_counters(self):
        rng = np.random.default_rng(4)
        _, series = _stream(seed=4, n_sensors=8)
        events = corrupt_stream(series, rng, duplicate_rate=0.4)
        registry = QualityRegistry()
        engine = IngestEngine(
            n_shards=2,
            gate_factories=[lambda: DuplicateGate(1.0, 0.5)],
            registry=registry,
        )
        ReplaySource(events).drive(engine)
        counters = engine.close()
        per_sensor = [registry.decision_counts(s) for s in registry.sensor_ids]
        assert sum(d[Decision.QUARANTINE] for d in per_sensor) == counters.quarantined
        assert (
            sum(d[Decision.ADMIT] + d[Decision.REPAIR] for d in per_sensor)
            == counters.admitted
        )

    def test_registry_reads_never_create_sensors(self):
        registry = QualityRegistry()
        with pytest.raises(KeyError):
            registry.snapshot("never-seen")
        with pytest.raises(KeyError):
            registry.decision_counts("never-seen")
        assert registry.sensor_ids == []

    def test_offer_after_close_raises(self):
        engine = IngestEngine(n_shards=1)
        engine.close()
        with pytest.raises(RuntimeError):
            engine.offer(IngestEvent("s0", 0.0, 0.0, 0.0, 0.0, 0.0))

    def test_close_is_idempotent(self):
        events, _ = _stream(n_sensors=4, t_end=30.0)
        engine = IngestEngine(n_shards=2)
        ReplaySource(events).drive(engine)
        first = engine.close()
        second = engine.close()
        assert first.as_dict() == second.as_dict()


class TestBackpressure:
    """A slow gate plus a bounded queue must trigger each policy, with
    correct accounting in the registry (the acceptance-criterion cases)."""

    def _events(self, n=120):
        return [IngestEvent("hot-sensor", 0.0, 0.0, float(t), 0.0, float(t)) for t in range(n)]

    def test_block_policy_is_lossless(self):
        engine = IngestEngine(
            n_shards=1,
            gate_factories=[lambda: SlowGate(0.001)],
            queue_size=4,
            policy="block",
        )
        for ev in self._events():
            assert engine.offer(ev)
        counters = engine.close()
        assert counters.conserved()
        assert counters.admitted == 120
        assert counters.dropped == 0 and counters.rejected == 0

    def test_drop_oldest_policy_sheds_and_accounts(self):
        engine = IngestEngine(
            n_shards=1,
            gate_factories=[lambda: SlowGate(0.002)],
            queue_size=4,
            policy="drop_oldest",
        )
        for ev in self._events():
            assert engine.offer(ev)  # drop_oldest always accepts the new reading
        counters = engine.close()
        assert counters.conserved()
        assert counters.dropped > 0
        assert counters.admitted + counters.dropped == 120
        # freshness wins: the newest reading is never the one evicted
        stored = [r.t for r in engine.store.records]
        assert 119.0 in stored

    def test_drop_oldest_evicts_within_the_shard(self):
        """Shards share one FIFO, but a full shard evicts its own oldest
        queued reading, never another shard's; the rest settle in offer
        order."""
        a = "sensor-a"
        b = next(f"s{i}" for i in range(100) if shard_of(f"s{i}", 2) != shard_of(a, 2))
        release = threading.Event()
        engine = IngestEngine(
            n_shards=2,
            gate_factories=[lambda: HeldGate(release)],
            queue_size=2,
            policy="drop_oldest",
        )
        try:
            assert engine.offer(IngestEvent(a, 0.0, 0.0, 0.0, 0.0, 0.0))
            deadline = time.monotonic() + 5.0
            while not engine.registry.sensor_ids and time.monotonic() < deadline:
                time.sleep(0.001)
            # The writer holds t=0 in the gate; queue b1 a1 a2 b2, then a3.
            for sensor, t in ((b, 1.0), (a, 2.0), (a, 3.0), (b, 4.0), (a, 5.0)):
                assert engine.offer(IngestEvent(sensor, 0.0, 0.0, t, 0.0, t))
        finally:
            release.set()
        counters = engine.close()
        assert counters.conserved()
        assert counters.dropped == 1
        assert [r.t for r in engine.store.records] == [0.0, 1.0, 3.0, 4.0, 5.0]

    def test_reject_policy_refuses_and_accounts(self):
        engine = IngestEngine(
            n_shards=1,
            gate_factories=[lambda: SlowGate(0.002)],
            queue_size=4,
            policy="reject",
        )
        accepted = [engine.offer(ev) for ev in self._events()]
        counters = engine.close()
        assert counters.conserved()
        assert counters.rejected > 0
        assert accepted.count(False) == counters.rejected
        assert accepted.count(True) == counters.admitted

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            IngestEngine(policy="nope")


class TestDeadShard:
    """A shard whose worker died must fail its callers, never hang them."""

    def _engine(self, policy):
        return IngestEngine(
            n_shards=1, gate_factories=[ExplodingGate], queue_size=4, policy=policy
        )

    def _events(self, n=50):
        return [IngestEvent("s0", 0.0, 0.0, float(t), 0.0, float(t)) for t in range(n)]

    def test_blocking_offer_raises_once_queue_fills(self):
        engine = self._engine("block")
        outcome = _outcome_within(lambda: [engine.offer(ev) for ev in self._events()])
        error = outcome.get("error")
        assert isinstance(error, RuntimeError) and "died" in str(error)
        assert isinstance(error.__cause__, GateExploded)
        with pytest.raises(GateExploded):
            engine.close()

    def test_close_discards_full_queue_and_reraises(self):
        engine = self._engine("reject")
        events = self._events()
        assert engine.offer(events[0])
        deadline = time.monotonic() + 5.0
        while not engine.registry.sensor_ids and time.monotonic() < deadline:
            time.sleep(0.001)
        # The worker has taken the first reading and dies on it, so the
        # next four fill its queue for good.
        assert [engine.offer(ev) for ev in events[1:6]] == [True] * 4 + [False]
        outcome = _outcome_within(engine.close)
        assert isinstance(outcome.get("error"), GateExploded)
        with pytest.raises(RuntimeError, match="closed"):
            engine.offer(events[0])

    def test_stranded_readings_count_as_failed(self):
        """One writer runs every shard, so one raising gate strands them all;
        what they accepted but never settled is counted as ``failed``."""
        engine = IngestEngine(n_shards=4, gate_factories=[ExplodingGate], policy="reject")
        events = [IngestEvent(f"s{i % 8}", 0.0, 0.0, float(i), 0.0, float(i)) for i in range(40)]
        accepted = [engine.offer(ev) for ev in events]
        outcome = _outcome_within(engine.close)
        assert isinstance(outcome.get("error"), GateExploded)
        counters = engine.registry.counters_snapshot()
        assert counters.conserved()
        assert counters.offered == len(events)
        assert counters.failed > 0
        assert counters.failed == accepted.count(True)


class TestShutdown:
    def test_offer_racing_close_is_settled_or_refused(self):
        """An ``offer`` that races ``close`` either enters a queue before the
        writer's last take, and is settled, or raises: none is lost.

        Three producer threads and a short switch interval make the race
        land often."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for trial in range(200):
                engine = IngestEngine(n_shards=2, queue_size=64)
                returned = []
                started = threading.Event()

                def produce(p, engine=engine, returned=returned, started=started):
                    for t in itertools.count():
                        ev = IngestEvent(f"s{p}-{t % 4}", 0.0, 0.0, float(t), 0.0, float(t))
                        try:
                            returned.append(engine.offer(ev))
                        except RuntimeError:
                            return
                        started.set()

                producers = [
                    threading.Thread(target=produce, args=(p,), daemon=True) for p in range(3)
                ]
                for producer in producers:
                    producer.start()
                assert started.wait(timeout=5.0)
                outcome = _outcome_within(engine.close)
                for producer in producers:
                    producer.join(timeout=5.0)
                    assert not producer.is_alive()
                counters = outcome["value"]
                assert counters.conserved(), (trial, counters)
                assert counters.offered == len(returned), trial
                assert counters.admitted == returned.count(True), trial
        finally:
            sys.setswitchinterval(interval)


def _ingest_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name.startswith("ingest-")}


class TestWriterThreads:
    def test_writer_threads_follow_the_sink(self):
        """Logical shards share one writer thread; an I/O-bound sink gets one
        thread per shard."""
        for store, expected in ((None, 1), (LatencyStore(InMemoryStore(), 1e-4), 4)):
            before = _ingest_threads()
            engine = IngestEngine(n_shards=4, store=store)
            try:
                added = _ingest_threads() - before
                assert len(added) == expected
                assert all(t.is_alive() for t in added)
            finally:
                engine.close()
            assert not any(t.is_alive() for t in added)

    def test_one_writer_span_per_writer_thread(self):
        from repro.obs import OBS, disable, enable

        events, _ = _stream(n_sensors=8, t_end=30.0)

        def writer_spans(store):
            enable()
            try:
                with IngestEngine(n_shards=4, store=store) as engine:
                    ReplaySource(events).drive(engine)
                records = OBS.tracer.finished()
            finally:
                disable()
            return sorted(dict(r.attrs)["shards"] for r in records if r.name == "ingest.writer")

        assert writer_spans(None) == ["(0, 1, 2, 3)"]
        io_bound = LatencyStore(InMemoryStore(), 0.0)
        assert writer_spans(io_bound) == ["(0,)", "(1,)", "(2,)", "(3,)"]


class TestRegistryIntegration:
    def test_aggregate_staleness_matches_batch(self):
        """The registry's fleet staleness equals the batch metric over the
        admitted records."""
        events, _ = _stream(n_sensors=12)
        registry = QualityRegistry()
        with IngestEngine(n_shards=4, registry=registry) as engine:
            ReplaySource(events).drive(engine)
        now = max(e.t for e in events) + 30.0
        agg = registry.aggregate(now=now)
        want = staleness(engine.store.records, now)
        assert agg[Dimension.STALENESS] == pytest.approx(want, abs=1e-9)
        assert agg[Dimension.DATA_VOLUME] == len(events)

    def test_live_snapshots_visible_mid_stream(self):
        """Snapshots are readable while workers are still ingesting."""
        events, _ = _stream(n_sensors=6)
        registry = QualityRegistry()
        engine = IngestEngine(n_shards=2, registry=registry)
        src = ReplaySource(events[: len(events) // 2])
        src.drive(engine)
        deadline = time.time() + 5.0
        while not registry.sensor_ids and time.time() < deadline:
            time.sleep(0.001)
        assert registry.sensor_ids  # stats appear without any shutdown
        ReplaySource(events[len(events) // 2 :]).drive(engine)
        engine.close()
        assert len(registry.sensor_ids) == 6

    def test_gate_latencies_recorded(self):
        from repro.obs import OBS, disable, enable

        events, _ = _stream(n_sensors=4, t_end=60.0)
        enable()
        try:
            with IngestEngine(
                n_shards=2, gate_factories=[lambda: RangeGate(-1e9, 1e9)]
            ) as engine:
                ReplaySource(events).drive(engine)
            snap = OBS.metrics.snapshot()
        finally:
            disable()
        hists = [h for k, h in snap.histograms.items() if k[0] == "repro_ingest_gate_seconds"]
        assert sum(h.count for h in hists) == len(events)
        assert min(h.vmin for h in hists) >= 0


@pytest.mark.slow
class TestThroughputScaling:
    def test_four_shards_beat_one(self):
        """With a realistic per-write backend latency, sharding must raise
        throughput (the bench_ingest acceptance criterion, in miniature)."""
        events, _ = _stream(seed=9, n_sensors=64, t_end=100.0, interval=2.0)

        def run(n_shards):
            engine = IngestEngine(
                n_shards=n_shards,
                gate_factories=[lambda: DuplicateGate(1.0, 0.5)],
                store=LatencyStore(InMemoryStore(), 200e-6),
            )
            start = time.perf_counter()
            ReplaySource(events).drive(engine)
            engine.close()
            return len(events) / (time.perf_counter() - start)

        single = run(1)
        sharded = run(4)
        assert sharded > single
