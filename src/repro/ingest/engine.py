"""Sharded streaming ingestion engine with bounded queues and backpressure.

:class:`IngestEngine` is the middleware front door: producers ``offer``
readings, a stable hash of the sensor id routes each reading to one of N
logical shards, and every reading runs through a per-sensor chain of
quality gates (:mod:`repro.ingest.gates`) before admission to a store.

Shards are logical, not threads.  One writer thread runs every shard: it
takes everything queued in one lock round and processes it in offer
order, so one sensor's readings are processed in the order they were
offered.  Python threads that only compute contend for the interpreter
lock and for the store's locks, so more of them would add no throughput.
Only a sink whose ``write`` waits on I/O declares ``io_bound = True``
(:class:`LatencyStore` does); writes then overlap, with one writer
thread per shard.

Each shard has a bounded queue; when a queue fills, the engine applies one
of three explicit backpressure policies:

* ``block`` — the producer waits (lossless, producer-paced),
* ``drop_oldest`` — the shard's oldest queued reading is evicted
  (freshness wins),
* ``reject`` — the new reading is refused and ``offer`` returns False
  (caller-visible load shedding).

All admissions, repairs, quarantines, drops, and rejections are accounted
in the engine's :class:`~repro.ingest.registry.QualityRegistry`, whose
conservation invariant (``offered == admitted + quarantined + dropped +
rejected + failed``) holds after :meth:`IngestEngine.close`.

A gate, ``on_admit`` hook or sink that raises ends its writer thread, and
with it every shard that thread serves: all of them, unless the sink is
I/O-bound.  From then on those shards never block a caller: a blocking
``offer`` into a full queue raises, and ``close`` discards their queues,
counts every reading they accepted but never settled as ``failed``, and
re-raises the writer's error.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import deque
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
    spends its time.  Its ``write`` sleeps, so it declares ``io_bound``:
    an engine over it runs one writer thread per shard, and the sleeps
    overlap.
    """

    #: ``write`` waits on (emulated) I/O: the engine gives each shard a thread.
    io_bound = True

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


def shard_of(sensor_id: str, n_shards: int) -> int:
    """Stable shard assignment: CRC32 of the sensor id modulo shard count."""
    return zlib.crc32(sensor_id.encode("utf-8")) % n_shards


class _Writer:
    """One writer thread's queue: the shards it serves, in one FIFO.

    Producers and the writer meet on one Condition.  The FIFO holds
    ``(shard, event)`` pairs in offer order, and a per-shard count keeps
    each shard's queued readings within ``queue_size``.  The writer takes
    the whole FIFO in one lock round.  Every reading that enters the FIFO
    is counted, so that the engine can tell at close how many it accepted
    but never settled.
    """

    def __init__(
        self,
        shards: Sequence[int],
        queue_size: int,
        policy: str,
        registry: QualityRegistry,
    ) -> None:
        self.shards = tuple(shards)
        self.queue_size = queue_size
        self.policy = policy
        self.registry = registry
        self._cond = threading.Condition(threading.Lock())
        self._fifo: deque[tuple[int, IngestEvent]] = deque()
        self._queued = dict.fromkeys(self.shards, 0)
        self._closed = False
        self.error: BaseException | None = None
        self.accepted = 0  # entered the FIFO
        self.evicted = 0  # left it under drop_oldest
        self.settled = 0  # outcomes recorded; written by the writer thread only

    def put(self, shard: int, event: IngestEvent) -> bool:
        """Queue one reading under the backpressure policy (see ``offer``).

        The closed check, the ``offered`` count and the enqueue are one
        critical section, and the closed check runs again after every
        wait: a reading is either refused, or queued before the writer's
        last take.
        """
        obs_on = OBS.enabled
        with self._cond:
            blocked = False
            while True:
                if self._closed:
                    raise RuntimeError("engine is closed")
                if self._queued[shard] < self.queue_size:
                    break
                if obs_on and not blocked:
                    OBS.metrics.inc("repro_ingest_backpressure_total", (("policy", self.policy),))
                if self.policy == "reject":
                    self.registry.record_offer()
                    self.registry.record_rejected()
                    return False
                if self.policy == "drop_oldest":
                    self._evict_oldest(shard)
                    break
                if self.error is not None:
                    raise RuntimeError(f"ingest shard {shard} worker died") from self.error
                blocked = True
                self._cond.wait()
            self.registry.record_offer()
            self._fifo.append((shard, event))
            self._queued[shard] += 1
            self.accepted += 1
            if len(self._fifo) == 1:
                self._cond.notify_all()  # the writer may be waiting for work
        return True

    def _evict_oldest(self, shard: int) -> None:
        """Drop ``shard``'s oldest queued reading (caller holds the Condition)."""
        for i, (owner, _event) in enumerate(self._fifo):
            if owner == shard:
                del self._fifo[i]
                break
        self._queued[shard] -= 1
        self.evicted += 1
        self.registry.record_dropped()

    def take(self) -> deque[tuple[int, IngestEvent]] | None:
        """Everything queued, in offer order; None once closed and drained."""
        with self._cond:
            while not self._fifo:
                if self._closed:
                    return None
                self._cond.wait()
            batch, self._fifo = self._fifo, deque()
            for shard in self.shards:
                self._queued[shard] = 0
            self._cond.notify_all()  # producers blocked on a full shard
            return batch

    def fail(self, error: BaseException) -> None:
        """Record the writer's error and wake every blocked producer."""
        with self._cond:
            self.error = error
            self._cond.notify_all()

    def close(self) -> None:
        """Refuse further readings; the writer drains the FIFO and exits."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def unsettled(self) -> int:
        """Discard what is still queued; count what was accepted but never
        settled (call once the thread has exited)."""
        with self._cond:
            self._fifo.clear()
        return self.accepted - self.evicted - self.settled


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

    ``n_shards`` logical shards, each with a ``queue_size`` bound, share
    one writer thread, which processes readings in offer order.  Readings
    therefore settle in offer order under ``block``, except where a
    buffering gate (:class:`~repro.ingest.gates.ReorderGate`) releases
    them in its own order, and store ids depend on the offered sequence
    alone, not on ``n_shards``.  A store that declares ``io_bound = True``
    (:class:`LatencyStore`) gets one writer thread per shard instead.  A
    gate, hook or sink that raises ends its writer and every shard it
    serves; ``close`` then counts their unsettled readings as ``failed``
    and re-raises.

    The engine is a context manager: leaving the ``with`` block performs a
    graceful :meth:`close` (drain queues, flush gate buffers, join writers).
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
        self._chains: list[dict[str, list[StreamingGate]]] = [{} for _ in range(n_shards)]
        self._processed: list[int] = [0] * n_shards
        self._closed = False
        n_threads = n_shards if getattr(self.store, "io_bound", False) else 1
        self._writers = [
            _Writer(range(t, n_shards, n_threads), queue_size, policy, self.registry)
            for t in range(n_threads)
        ]
        self._writer_of = [self._writers[s % n_threads] for s in range(n_shards)]
        self._threads = [
            threading.Thread(target=self._run_writer, args=(writer,), name=f"ingest-writer-{t}")
            for t, writer in enumerate(self._writers)
        ]
        for thread in self._threads:
            thread.start()

    # -- producer side -----------------------------------------------------------

    def offer(self, event: IngestEvent) -> bool:
        """Route one reading to its shard, applying the backpressure policy.

        Returns True when the reading entered a shard queue, False when it
        was rejected (``reject`` policy with a full queue).  Raises
        :class:`RuntimeError` once the engine is closed, and, under
        ``block``, when the reading's shard is full and its writer died.
        """
        shard = shard_of(event.sensor_id, self.n_shards)
        accepted = self._writer_of[shard].put(shard, event)
        if OBS.enabled:
            OBS.metrics.inc("repro_ingest_offered_total")
        return accepted

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
        """Graceful shutdown: drain queues, flush gate buffers, join writers.

        Returns the final accounting counters (conservation holds: every
        offered event is admitted, quarantined, dropped, rejected, or —
        when a writer died — failed).  Re-raises a writer's error after
        recording its failed readings.
        """
        if not self._closed:
            self._closed = True
            for writer in self._writers:
                writer.close()
            for thread in self._threads:
                thread.join()
            failed = sum(writer.unsettled() for writer in self._writers)
            if failed:
                self.registry.record_failed(failed)
            for writer in self._writers:
                if writer.error is not None:
                    raise writer.error
        return self.registry.counters_snapshot()

    def __enter__(self) -> "IngestEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- observability -----------------------------------------------------------

    def processed_per_shard(self) -> list[int]:
        """How many readings each shard has processed."""
        return list(self._processed)

    # -- writer threads ----------------------------------------------------------

    def _run_writer(self, writer: _Writer) -> None:
        try:
            with OBS.tracer.span("ingest.writer", shards=writer.shards) if OBS.enabled else _NULL:
                while (batch := writer.take()) is not None:
                    for shard, event in batch:
                        self._process(writer, shard, event)
                for shard in writer.shards:
                    for gates in self._chains[shard].values():
                        for outcome in flush_chain(gates):
                            self._settle(writer, outcome)
        except BaseException as exc:  # close() re-raises it in the owner's thread
            writer.fail(exc)

    def _process(self, writer: _Writer, shard: int, event: IngestEvent) -> None:
        self.registry.observe(event)
        chains = self._chains[shard]
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
            self._settle(writer, outcome)

    def _settle(self, writer: _Writer, outcome: GateOutcome) -> None:
        self.registry.record_outcome(outcome)
        # Settled once recorded: a hook or sink that raises below leaves
        # the reading under this outcome, not under ``failed``.
        writer.settled += 1
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
