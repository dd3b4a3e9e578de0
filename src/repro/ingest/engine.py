"""Sharded streaming ingestion engine with bounded queues and backpressure.

:class:`IngestEngine` is the middleware front door: producers ``offer``
readings, a stable hash of the sensor id routes each reading to one of N
shard workers (so one sensor's stream is always processed in order by a
single worker), and every reading runs through a per-sensor chain of
quality gates (:mod:`repro.ingest.gates`) before admission to a store.

Each shard has a bounded queue; when a queue fills, the engine applies one
of three explicit backpressure policies:

* ``block`` — the producer waits (lossless, producer-paced),
* ``drop_oldest`` — the oldest queued reading is evicted (freshness wins),
* ``reject`` — the new reading is refused and ``offer`` returns False
  (caller-visible load shedding).

All admissions, repairs, quarantines, drops, and rejections are accounted
in the engine's :class:`~repro.ingest.registry.QualityRegistry`, whose
conservation invariant (``offered == admitted + quarantined + dropped +
rejected``) holds after :meth:`IngestEngine.close`.

A gate, ``on_admit`` hook or sink that raises ends its shard's worker.
From then on that shard never blocks a caller: a blocking ``offer`` into
its full queue raises, and ``close`` discards its queue and re-raises the
worker's error.  Readings stranded in a dead shard are not accounted.
"""

from __future__ import annotations

import queue
import threading
import time
import zlib
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from typing import Callable, Iterable, Sequence

from ..core.stid import STRecord
from ..core.trajectory import TrajectoryPoint
from ..obs import OBS
from .events import Decision, GateOutcome, IngestEvent
from .gates import StreamingGate, flush_chain, run_chain
from .registry import IngestCounters, QualityRegistry

#: Recognized backpressure policies for full shard queues.
POLICIES = ("block", "drop_oldest", "reject")

_SENTINEL = object()

#: How often a put waiting on a full shard queue re-checks that the shard's
#: worker is still alive (a dead worker never frees a slot).
_LIVENESS_POLL_S = 0.05

#: Shared no-op context for disabled-observability paths.
_NULL = nullcontext()


class InMemoryStore:
    """Thread-safe append-only store of admitted records (the default sink)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[STRecord] = []

    def write(self, event: IngestEvent) -> None:
        """Persist one admitted reading."""
        record = event.to_record()
        with self._lock:
            self._records.append(record)

    @property
    def records(self) -> list[STRecord]:
        """Copy of everything admitted so far."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def by_sensor(self) -> dict[str, list[STRecord]]:
        """Admitted records grouped by producing sensor."""
        out: dict[str, list[STRecord]] = {}
        for r in self.records:
            out.setdefault(r.source, []).append(r)
        return out


class LatencyStore:
    """Store decorator emulating a backend with fixed per-write latency.

    Real sinks (time-series databases, message logs) cost wall time per
    write; wrapping :class:`InMemoryStore` in this decorator makes the
    sharding benchmark honest about where streaming ingestion actually
    spends its time.
    """

    def __init__(self, inner, write_latency: float) -> None:
        if write_latency < 0:
            raise ValueError("write_latency must be non-negative")
        self.inner = inner
        self.write_latency = write_latency

    def write(self, event: IngestEvent) -> None:
        """Persist one reading after the emulated backend delay."""
        if self.write_latency > 0:
            time.sleep(self.write_latency)
        self.inner.write(event)

    def __len__(self) -> int:
        return len(self.inner)


def _discard_queued(q: queue.Queue) -> None:
    """Empty a dead shard's queue (nothing will ever consume it)."""
    while True:
        try:
            q.get_nowait()
        except queue.Empty:
            return


def shard_of(sensor_id: str, n_shards: int) -> int:
    """Stable shard assignment: CRC32 of the sensor id modulo shard count."""
    return zlib.crc32(sensor_id.encode("utf-8")) % n_shards


class IngestEngine:
    """Hash-sharded streaming ingestion with per-sensor quality gates.

    ``gate_factories`` build a fresh gate chain per sensor (gates are
    stateful, so they cannot be shared); ``store`` receives every admitted
    event (default: a new :class:`InMemoryStore`); ``registry`` collects
    online stats and accounting (default: a new
    :class:`~repro.ingest.registry.QualityRegistry`); ``on_admit`` is an
    optional hook called with every gate-admitted event *before* its store
    write — the seam the serving layer uses to bump partition quality
    epochs (:func:`repro.serve.ingest_epoch_hook`).

    The engine is a context manager: leaving the ``with`` block performs a
    graceful :meth:`close` (drain queues, flush gate buffers, join workers).
    """

    def __init__(
        self,
        n_shards: int = 4,
        gate_factories: Sequence[Callable[[], StreamingGate]] = (),
        registry: QualityRegistry | None = None,
        store=None,
        queue_size: int = 1024,
        policy: str = "block",
        quarantine_store=None,
        on_admit: Callable[[IngestEvent], None] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        self.n_shards = n_shards
        self.policy = policy
        self.registry = registry if registry is not None else QualityRegistry()
        self.store = store if store is not None else InMemoryStore()
        self.quarantine_store = quarantine_store
        self.on_admit = on_admit
        self._gate_factories = list(gate_factories)
        self._queues: list[queue.Queue] = [queue.Queue(maxsize=queue_size) for _ in range(n_shards)]
        self._chains: list[dict[str, list[StreamingGate]]] = [{} for _ in range(n_shards)]
        self._processed: list[int] = [0] * n_shards
        self._closed = False
        self._executor = ThreadPoolExecutor(
            max_workers=n_shards, thread_name_prefix="ingest-shard"
        )
        self._futures: list[Future] = [
            self._executor.submit(self._worker, i) for i in range(n_shards)
        ]

    # -- producer side -----------------------------------------------------------

    def offer(self, event: IngestEvent) -> bool:
        """Route one reading to its shard, applying the backpressure policy.

        Returns True when the reading entered a shard queue, False when it
        was rejected (``reject`` policy with a full queue).
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        obs_on = OBS.enabled
        self.registry.record_offer()
        if obs_on:
            OBS.metrics.inc("repro_ingest_offered_total")
        shard = shard_of(event.sensor_id, self.n_shards)
        q = self._queues[shard]
        if self.policy == "block":
            try:
                q.put_nowait(event)
            except queue.Full:
                if obs_on:
                    OBS.metrics.inc("repro_ingest_backpressure_total", (("policy", "block"),))
                if not self._put_while_alive(shard, event):
                    error = self._futures[shard].exception()
                    raise RuntimeError(f"ingest shard {shard} worker died") from error
            return True
        if self.policy == "reject":
            try:
                q.put_nowait(event)
                return True
            except queue.Full:
                self.registry.record_rejected()
                if obs_on:
                    OBS.metrics.inc("repro_ingest_backpressure_total", (("policy", "reject"),))
                return False
        # drop_oldest: evict from the head until the new reading fits
        while True:
            try:
                q.put_nowait(event)
                return True
            except queue.Full:
                try:
                    victim = q.get_nowait()
                except queue.Empty:
                    continue  # a worker drained it first; retry the put
                if victim is not _SENTINEL:
                    self.registry.record_dropped()
                    if obs_on:
                        OBS.metrics.inc(
                            "repro_ingest_backpressure_total", (("policy", "drop_oldest"),)
                        )
                else:  # never evict the shutdown marker
                    q.put(victim)

    def offer_record(self, record: STRecord, arrival_time: float | None = None) -> bool:
        """Offer one STID record (see :meth:`offer`)."""
        return self.offer(IngestEvent.from_record(record, arrival_time))

    def offer_point(
        self,
        sensor_id: str,
        point: TrajectoryPoint,
        arrival_time: float | None = None,
    ) -> bool:
        """Offer one trajectory sample (see :meth:`offer`)."""
        return self.offer(IngestEvent.from_point(sensor_id, point, arrival_time=arrival_time))

    def offer_many(self, events: Iterable[IngestEvent]) -> int:
        """Offer a batch; returns how many were accepted into queues."""
        return sum(1 for ev in events if self.offer(ev))

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> IngestCounters:
        """Graceful shutdown: drain queues, flush gate buffers, join workers.

        Returns the final accounting counters (conservation holds: every
        offered event is admitted, quarantined, dropped, or rejected).
        """
        if not self._closed:
            self._closed = True
            for shard, q in enumerate(self._queues):
                if not self._put_while_alive(shard, _SENTINEL):
                    _discard_queued(q)
            try:
                for future in self._futures:
                    future.result()  # re-raises worker errors
            finally:
                self._executor.shutdown(wait=True)
        return self.registry.counters_snapshot()

    def _put_while_alive(self, shard: int, item: object) -> bool:
        """Blocking put into ``shard``'s queue; False once its worker has died."""
        q = self._queues[shard]
        future = self._futures[shard]
        while not future.done():
            try:
                q.put(item, timeout=_LIVENESS_POLL_S)
                return True
            except queue.Full:
                pass
        return False

    def __enter__(self) -> "IngestEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- observability -----------------------------------------------------------

    def processed_per_shard(self) -> list[int]:
        """How many readings each shard worker has processed."""
        return list(self._processed)

    # -- shard workers -----------------------------------------------------------

    def _worker(self, shard: int) -> None:
        q = self._queues[shard]
        chains = self._chains[shard]
        with OBS.tracer.span("ingest.shard", shard=shard) if OBS.enabled else _NULL:
            while True:
                item = q.get()
                if item is _SENTINEL:
                    break
                self._process(shard, chains, item)
            for gates in chains.values():
                for outcome in flush_chain(gates):
                    self._settle(outcome)

    def _process(self, shard: int, chains: dict[str, list[StreamingGate]], event: IngestEvent) -> None:
        self.registry.observe(event)
        gates = chains.get(event.sensor_id)
        if gates is None:
            gates = [factory() for factory in self._gate_factories]
            chains[event.sensor_id] = gates
        start = time.perf_counter()
        outcomes = run_chain(gates, event)
        elapsed = time.perf_counter() - start
        self._processed[shard] += 1
        if OBS.enabled:
            OBS.metrics.observe("repro_ingest_gate_seconds", (("shard", str(shard)),), elapsed)
        for outcome in outcomes:
            self._settle(outcome)

    def _settle(self, outcome: GateOutcome) -> None:
        self.registry.record_outcome(outcome)
        if OBS.enabled:
            OBS.metrics.inc(
                "repro_ingest_gate_outcomes_total",
                (("decision", outcome.decision.value), ("gate", outcome.gate or "none")),
            )
        if outcome.decision is Decision.QUARANTINE:
            if self.quarantine_store is not None:
                self.quarantine_store.write(outcome.event)
        else:
            # The admit hook fires BEFORE the store write: downstream caches
            # keyed on quality epochs (repro.serve) must observe the
            # invalidation no later than the write becomes readable.
            if self.on_admit is not None:
                self.on_admit(outcome.event)
            self.store.write(outcome.event)
