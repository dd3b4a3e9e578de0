"""Timing probes around each layer's public calls, plus the span log.

The benchmark observes the system from outside: it never edits ``src/``.
Every probe here wraps one public seam and records what it saw into a
:class:`Spans` log kept in memory (written once, at the end of a run):

* :class:`TimedGate` — a ``StreamingGate`` proxy around a real gate;
* :func:`timed_hook` — one ``on_admit`` hook, wrapped on its own;
* :class:`VisibleSink` — ``PartitionedStoreSink.write``: the instant a
  reading became queryable (recorded in untraced runs too, since
  ``ingest_visible_*`` are end-to-end metrics);
* :class:`TimedStore` — a ``PartitionedStore`` subclass timing the scan,
  dependency-set, compaction and weight calls;
* :func:`time_cache` — the service's ``ResultCache.get`` / ``put``.

Readings are identified by ``(sensor_id, t)``, which the generator keeps
unique and no gate rewrites; a query batch is identified by the request
signatures it holds.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Callable

from repro.ingest import IngestEvent, PartitionedStoreSink
from repro.ingest.gates import StreamingGate
from repro.parallel.dispatch import dispatch_decision
from repro.querying.distributed import PartitionedStore
from repro.serve import ResultCache


def reading_key(event: IngestEvent) -> tuple[str, float]:
    return (event.sensor_id, event.t)


class Spans:
    """In-memory span log: ``(trace, name, start, end, parent)`` rows.

    ``trace`` is the request or reading id (or a batch id for work shared
    by a batch); ``parent`` names the span that caused this one.  Rows are
    appended from the event loop and the ingest shard threads; CPython's
    ``list.append`` is atomic, so no lock is needed.  ``open`` is cleared
    at the end of the timed phase, so correctness re-asks are not counted.
    """

    def __init__(self) -> None:
        self.rows: list[tuple[object, str, float, float, object]] = []
        self.open = True

    def add(self, trace: object, name: str, start: float, end: float, parent: object = None) -> None:
        if self.open:
            self.rows.append((trace, name, start, end, parent))

    def named(self, name: str) -> list[tuple[object, str, float, float, object]]:
        return [r for r in self.rows if r[1] == name]


class TimedGate(StreamingGate):
    """Proxy timing one real gate's ``offer`` per reading."""

    def __init__(self, inner: StreamingGate, spans: Spans) -> None:
        self.inner = inner
        self.spans = spans
        self.name = inner.name

    def offer(self, event: IngestEvent):
        start = perf_counter()
        out = self.inner.offer(event)
        self.spans.add(reading_key(event), "ingest.gate", start, perf_counter(), self.name)
        return out

    def flush(self):
        return self.inner.flush()


def timed_hook(hook: Callable[[IngestEvent], None], name: str, spans: Spans) -> Callable[[IngestEvent], None]:
    """Wrap one ``on_admit`` hook so its time per reading is recorded."""

    def wrapped(event: IngestEvent) -> None:
        start = perf_counter()
        hook(event)
        spans.add(reading_key(event), name, start, perf_counter(), "ingest.on_admit")

    return wrapped


class VisibleSink:
    """``PartitionedStoreSink`` wrapper recording when each reading is queryable.

    ``visible[key]`` is the instant the real ``write`` returned; with a
    span log it also records the write itself as a ``store.append`` span.
    Any write error is counted and re-raised (the engine surfaces it).
    """

    def __init__(self, sink: PartitionedStoreSink, spans: Spans | None) -> None:
        self.sink = sink
        self.spans = spans
        self.visible: dict[tuple[str, float], float] = {}
        self.errors = 0
        self._lock = threading.Lock()

    def write(self, event: IngestEvent) -> None:
        start = perf_counter()
        try:
            self.sink.write(event)
        except Exception:
            with self._lock:
                self.errors += 1
            raise
        end = perf_counter()
        key = reading_key(event)
        self.visible[key] = end
        if self.spans is not None:
            self.spans.add(key, "store.append", start, end, "ingest.sink")

    def __len__(self) -> int:
        return len(self.sink)


class TimedStore(PartitionedStore):
    """``PartitionedStore`` whose public scan/maintenance calls are timed.

    Scan spans carry the request signatures of their batch, so a request
    can be matched to the store call that answered it; a dependency-set
    call is attributed to the scan that immediately preceded it on the
    event loop.  ``pool_calls`` counts scans handed a process pool that
    the dispatch model did not downgrade to serial.
    """

    spans: Spans
    batches: list[dict]
    pool_calls: int
    main_thread: int

    def attach(self, spans: Spans) -> "TimedStore":
        self.spans = spans
        self.batches = []
        self.pool_calls = 0
        self.main_thread = threading.get_ident()
        return self

    def _count_pool(self, executor, n: int) -> None:
        workers = getattr(executor, "workers", 1)
        if workers > 1 and dispatch_decision(n, workers, getattr(executor, "start_method", None)) != "serial":
            self.pool_calls += 1

    def _scan(self, name: str, sigs: list[tuple], call: Callable[[], list]) -> list:
        start = perf_counter()
        out = call()
        end = perf_counter()
        if self.spans.open:
            batch = {"id": len(self.batches), "name": name, "start": start, "end": end, "sigs": sigs}
            self.batches.append(batch)
            self.spans.add(("batch", batch["id"]), name, start, end, "serve.dispatch")
        return out

    def _depsets(self, call: Callable[[], list]) -> list:
        start = perf_counter()
        out = call()
        end = perf_counter()
        if self.spans.open and self.batches:
            batch = self.batches[-1]
            batch["dep_start"], batch["dep_end"] = start, end
            self.spans.add(("batch", batch["id"]), "store.depsets", start, end, batch["name"])
        return out

    def range_query_many(self, centers, radii, *, workers=None, executor=None):
        self._count_pool(executor, len(centers))
        rs = list(radii) if hasattr(radii, "__len__") else [radii] * len(centers)
        sigs = [("range", c.x, c.y, float(r)) for c, r in zip(centers, rs)]
        return self._scan(
            "store.range",
            sigs,
            lambda: super(TimedStore, self).range_query_many(
                centers, radii, workers=workers, executor=executor
            ),
        )

    def knn_many(self, centers, k, *, workers=None, executor=None, weighted=False):
        self._count_pool(executor, len(centers))
        sigs = [("knn", c.x, c.y, k, weighted) for c in centers]
        return self._scan(
            "store.knn_weighted" if weighted else "store.knn",
            sigs,
            lambda: super(TimedStore, self).knn_many(
                centers, k, workers=workers, executor=executor, weighted=weighted
            ),
        )

    def range_partition_sets(self, centers, radii):
        return self._depsets(lambda: super(TimedStore, self).range_partition_sets(centers, radii))

    def knn_partition_sets(self, centers, hits, k=None, *, append_only=True, weighted=False):
        return self._depsets(
            lambda: super(TimedStore, self).knn_partition_sets(
                centers, hits, k, append_only=append_only, weighted=weighted
            )
        )

    def _timed(self, name: str, call: Callable[[], object]):
        start = perf_counter()
        out = call()
        where = "loop" if threading.get_ident() == self.main_thread else "thread"
        self.spans.add(where, name, start, perf_counter())
        return out

    def compact(self, partition_ids=None, *, threshold=None, clock=None):
        return self._timed(
            "store.compact",
            lambda: super(TimedStore, self).compact(partition_ids, threshold=threshold, clock=clock),
        )

    def set_quality_weights(self, weights):
        return self._timed(
            "store.set_quality_weights",
            lambda: super(TimedStore, self).set_quality_weights(weights),
        )


def time_cache(cache: ResultCache, spans: Spans) -> None:
    """Replace ``cache.get`` / ``put`` on this instance with timed versions.

    ``get`` spans record the lookup outcome (hit/miss/stale) as parent.
    """
    get, put = cache.get, cache.put

    def timed_get(signature):
        start = perf_counter()
        out = get(signature)
        spans.add(signature, "serve.cache.get", start, perf_counter(), out[1])
        return out

    def timed_put(signature, results, partition_ids, epoch_vector):
        start = perf_counter()
        put(signature, results, partition_ids, epoch_vector)
        spans.add(signature, "serve.cache.put", start, perf_counter())

    cache.get = timed_get  # type: ignore[method-assign]
    cache.put = timed_put  # type: ignore[method-assign]
