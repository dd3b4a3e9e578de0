"""Registry concurrency, ingest-hook wiring, and observability tests."""

import threading

import pytest

from repro.ingest import IngestEngine
from repro.ingest.events import IngestEvent
from repro.obs import OBS, disable, enable, span_tree
from repro.qod import QodConfig, QodRegistry, compose_admit_hooks, qod_ingest_hook

CONFIG = QodConfig(min_readings=4)


@pytest.fixture(autouse=True)
def obs_off_after():
    yield
    disable()


def sensor_events(i: int, n: int = 40):
    x, y = float(50 * (i % 4)), float(50 * (i // 4))
    return [
        IngestEvent(f"s{i}", x, y, j * 60.0, 20.0 + 0.1 * i + 0.01 * j, j * 60.0)
        for j in range(n)
    ]


class TestThreadSafety:
    def test_concurrent_updates_match_serial_rebuild(self):
        n_sensors = 8
        streams = [sensor_events(i) for i in range(n_sensors)]
        registry = QodRegistry(CONFIG)
        barrier = threading.Barrier(n_sensors)

        def feed(stream):
            barrier.wait()
            for event in stream:
                registry.update(event)
                registry.scores()  # concurrent reads must not corrupt state

        threads = [threading.Thread(target=feed, args=(s,)) for s in streams]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        serial = QodRegistry.from_events(
            [e for s in streams for e in s], CONFIG
        )
        assert len(registry) == n_sensors
        assert registry.scores() == serial.scores()
        assert registry.weights() == serial.weights()

    def test_concurrent_updates_to_same_sensor_lose_nothing(self):
        registry = QodRegistry(CONFIG)
        events = sensor_events(0, n=400)
        chunks = [events[i::4] for i in range(4)]
        threads = [
            threading.Thread(target=lambda c=c: registry.update_many(c))
            for c in chunks
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.scores()["s0"].n == 400


class TestIngestHooks:
    def test_qod_ingest_hook_feeds_registry(self):
        registry = QodRegistry(CONFIG)
        hook = qod_ingest_hook(registry)
        for event in sensor_events(0):
            hook(event)
        assert registry.scores()["s0"].n == 40

    def test_compose_admit_hooks_calls_in_order(self):
        calls = []
        hook = compose_admit_hooks(
            lambda e: calls.append(("a", e.sensor_id)),
            lambda e: calls.append(("b", e.sensor_id)),
        )
        hook(sensor_events(0, n=1)[0])
        assert calls == [("a", "s0"), ("b", "s0")]

    def test_compose_admit_hooks_skips_none(self):
        calls = []
        hook = compose_admit_hooks(None, lambda e: calls.append(e.sensor_id), None)
        hook(sensor_events(0, n=1)[0])
        assert calls == ["s0"]

    def test_engine_on_admit_integration(self):
        registry = QodRegistry(CONFIG)
        with IngestEngine(n_shards=2, on_admit=qod_ingest_hook(registry)) as engine:
            for i in range(4):
                for event in sensor_events(i):
                    engine.offer(event)
        scores = registry.scores()
        assert sorted(scores) == ["s0", "s1", "s2", "s3"]
        assert all(s.n == 40 for s in scores.values())
        # a healthy uniform fleet scores near-perfect across the board
        assert all(s.composite > 0.9 for s in scores.values())


class TestObservability:
    def test_spans_and_metrics(self):
        enable()
        registry = QodRegistry(CONFIG)
        registry.update_many(e for i in range(5) for e in sensor_events(i))
        scores = registry.scores()
        snap = OBS.metrics.snapshot()
        assert snap.counter("repro_qod_updates_total") == 200.0
        assert snap.gauge("repro_qod_sensors") == 5.0
        hist = snap.histogram("repro_qod_score")
        assert hist is not None and hist.count == 5
        banded = sum(
            snap.counter("repro_qod_scores_total", band=b)
            for b in ("low", "mid", "high")
        )
        assert banded == float(len(scores))
        names = [s.name for s in OBS.tracer.finished()]
        assert "qod.score" in names and "qod.reference" in names
        roots = span_tree(OBS.tracer.finished())[None]
        score_span = next(s for s in roots if s.name == "qod.score")
        assert dict(score_span.attrs)["sensors"] == "5"  # attrs are stringified

        def graph_attrs():
            return [
                dict(s.attrs)["graph"]
                for s in OBS.tracer.finished()
                if s.name == "qod.reference"
            ]

        assert graph_attrs() == ["rebuilt"]
        registry.scores()  # no new reading: the neighbor graph is reused
        assert graph_attrs() == ["rebuilt", "cached"]
        registry.update(IngestEvent("s0", 400.0, 400.0, 2400.0, 20.0, 2400.0))
        registry.scores()  # s0 moved: its neighborhood changed
        assert graph_attrs() == ["rebuilt", "cached", "rebuilt"]

    def test_disabled_obs_records_nothing(self):
        registry = QodRegistry(CONFIG)
        registry.update_many(sensor_events(0))
        registry.scores()
        assert OBS.metrics is None and OBS.tracer is None
