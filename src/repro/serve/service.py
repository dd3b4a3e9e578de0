"""The asyncio query service: coalescing, admission, caching.

:class:`QueryService` is the long-lived front end over a
:class:`~repro.querying.distributed.PartitionedStore`: clients ``await
service.submit(request)`` and the service answers from the
epoch-validated cache when it can, otherwise coalesces concurrent
requests into single in-process ``range_query_many`` / ``knn_many``
kernel calls (self-clocked: a batch is what queued while the previous
batch ran) under explicit admission control.

Determinism: the dispatcher's only wait is its wake ``Event``, so
batching is a pure function of arrival order — no timer decides when a
batch leaves — and responses are bit-identical across batch shapes and
cache state (``tests/serve/test_service.py``).  The injectable
:class:`~repro.obs.clock.Clock` only stamps latencies.

Observability: with :func:`repro.obs.enable` on, every request gets a
``serve.request`` span covering queue wait plus service time, and the
metrics registry collects queue-depth high-water gauges, coalesce
batch-size and latency histograms, and cache/shed counters (names in
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import asyncio
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..obs import OBS
from ..obs.clock import Clock, MonotonicClock
from ..querying.distributed import PartitionedStore, resolve_compact_threshold
from .admission import AdmissionController, AdmissionDecision
from .cache import ResultCache
from .coalescer import Batch, Coalescer, PendingQuery
from .epochs import EpochRegistry
from .requests import (
    SHED_RESPONSE,
    QueryRequest,
    QueryResponse,
    ResponseStatus,
)

#: Shared no-op context for disabled-observability paths.
_NULL = nullcontext()


@dataclass
class ServeStats:
    """Serving-side accounting (conservation: ``submitted == served +
    cache_hits + shed`` once the service is idle)."""

    submitted: int = 0
    served: int = 0  # answered by a kernel batch
    cache_hits: int = 0  # answered from the epoch-validated cache
    shed: int = 0  # refused or displaced by admission control
    kernel_calls: int = 0  # batched range_query_many/knn_many dispatches
    max_batch_seen: int = 0
    max_depth_seen: int = 0
    compactions: int = 0  # opportunistic store compactions between batches
    points_compacted: int = 0  # delta rows folded into base columns

    def coalesce_ratio(self) -> float:
        """Requests answered per kernel call (1.0 = no coalescing win)."""
        return self.served / self.kernel_calls if self.kernel_calls else 0.0

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for JSON summaries."""
        return {
            "submitted": self.submitted,
            "served": self.served,
            "cache_hits": self.cache_hits,
            "shed": self.shed,
            "kernel_calls": self.kernel_calls,
            "max_batch_seen": self.max_batch_seen,
            "max_depth_seen": self.max_depth_seen,
            "compactions": self.compactions,
            "points_compacted": self.points_compacted,
            "coalesce_ratio": self.coalesce_ratio(),
        }


@dataclass
class _Inflight:
    """Dispatcher-side bookkeeping shared with the submit path."""

    depth: int = 0
    stopping: bool = False
    started: bool = False


class QueryService:
    """Quality-aware serving layer over a partitioned spatial store.

    Use as an async context manager::

        async with QueryService(store, max_batch=64) as svc:
            resp = await svc.submit(RangeQueryRequest(center, 50.0))

    ``epochs`` defaults to a fresh :class:`~repro.serve.epochs.EpochRegistry`
    over the store's partitions; share it with an ingest engine via
    :func:`~repro.serve.epochs.ingest_epoch_hook` so gate-admitted writes
    invalidate affected cached results.  The dispatcher never waits on a
    timer: it sleeps on its wake event while nothing is pending, and
    otherwise releases everything pending (in ``max_batch`` chunks) as
    soon as it runs.  ``clock`` stamps queue and service latencies (a
    :class:`~repro.obs.clock.ManualClock` makes them deterministic under
    test).

    With ``auto_compact`` (the default), the dispatcher opportunistically
    folds the store's delta tails between batches once the worst
    partition's delta fraction passes ``compact_threshold`` (defaults to
    the store-wide threshold, env-tunable via
    ``$REPRO_STORE_COMPACT_THRESHOLD``) — see :meth:`_maybe_compact` and
    the ``compactions`` / ``points_compacted`` stats.
    """

    def __init__(
        self,
        store: PartitionedStore,
        *,
        max_batch: int = 64,
        max_pending: int = 1024,
        policy: str = "reject",
        class_limits: Mapping[int, int] | None = None,
        cache_capacity: int = 4096,
        epochs: EpochRegistry | None = None,
        clock: Clock | None = None,
        auto_compact: bool = True,
        compact_threshold: float | None = None,
    ) -> None:
        self.store = store
        self.epochs = epochs if epochs is not None else EpochRegistry(store.partition_boxes)
        self.cache = ResultCache(self.epochs, capacity=cache_capacity)
        self.admission = AdmissionController(max_pending, policy, class_limits)
        self.stats = ServeStats()
        self._clock: Clock = clock if clock is not None else MonotonicClock()
        self._coalescer = Coalescer(max_batch)
        self._auto_compact = auto_compact and hasattr(store, "compact")
        self._compact_threshold = resolve_compact_threshold(compact_threshold)
        self._state = _Inflight()
        self._wake = asyncio.Event()
        self._capacity = asyncio.Condition()
        self._dispatcher: asyncio.Task | None = None

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> "QueryService":
        """Start the dispatcher loop."""
        if self._state.started:
            raise RuntimeError("service already started")
        self._state.started = True
        self._dispatcher = asyncio.create_task(self._run())
        return self

    async def stop(self) -> ServeStats:
        """Drain pending requests and stop the dispatcher.

        Every already-admitted request is served before shutdown; blocked
        submitters (``block`` policy) are shed.  Returns the final stats.

        The dispatcher task is always awaited, even when it already flipped
        the service to ``stopping`` by dying: a dispatch failure re-raises
        here (and on every later ``stop``) instead of vanishing as a
        never-retrieved task exception.
        """
        if self._state.started and not self._state.stopping:
            self._state.stopping = True
            self._wake.set()
            async with self._capacity:
                self._capacity.notify_all()
        if self._dispatcher is not None:
            await self._dispatcher
        return self.stats

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- client side -------------------------------------------------------------

    async def submit(self, request: QueryRequest) -> QueryResponse:
        """Serve one query: cache, then admission, then a coalesced batch."""
        if not self._state.started or self._state.stopping:
            raise RuntimeError("service is not running")
        obs_on = OBS.enabled
        cm = (
            OBS.tracer.span("serve.request", mode=request.mode, priority=request.priority)
            if obs_on
            else _NULL
        )
        with cm as span:
            response = await self._submit_inner(request, obs_on)
            if span is not None:
                span.set_attr("status", response.status.value)
                span.set_attr("cached", response.cached)
        return response

    async def submit_many(self, requests: Sequence[QueryRequest]) -> list[QueryResponse]:
        """Submit a batch concurrently; responses in request order."""
        return list(await asyncio.gather(*(self.submit(r) for r in requests)))

    def _signature(self, request: QueryRequest, weights_epoch: int | None = None) -> tuple:
        """Cache key: the request signature, epoch-stamped when weighted.

        Weighted kNN answers depend on the store's installed quality
        weights, so their cache identity carries the store's
        ``weights_epoch`` — toggling or updating weights changes the key
        and can never serve a stale weighted (or stale unweighted)
        result.  ``weights_epoch`` pins the epoch sampled *before* a
        kernel dispatch; lookups pass None to read the live value.
        """
        sig = request.signature()
        if getattr(request, "weighted", False):
            epoch = (
                weights_epoch
                if weights_epoch is not None
                else getattr(self.store, "weights_epoch", 0)
            )
            sig = sig + ("qod-epoch", epoch)
        return sig

    async def _submit_inner(self, request: QueryRequest, obs_on: bool) -> QueryResponse:
        self.stats.submitted += 1
        cached, lookup = self.cache.get(self._signature(request))
        if obs_on:
            OBS.metrics.inc("repro_serve_cache_total", (("result", lookup),))
        if cached is not None:
            self.stats.cache_hits += 1
            if obs_on:
                OBS.metrics.inc(
                    "repro_serve_requests_total",
                    (("mode", request.mode), ("status", "ok")),
                )
            return QueryResponse(ResponseStatus.OK, cached, cached=True)

        decision = self.admission.decide(self._state.depth, request.priority)
        if decision is AdmissionDecision.WAIT:
            limit = self.admission.limit_for(request.priority)
            async with self._capacity:
                await self._capacity.wait_for(
                    lambda: self._state.depth < limit or self._state.stopping
                )
            if self._state.stopping:
                return self._shed(request, obs_on)
        elif decision is AdmissionDecision.SHED:
            return self._shed(request, obs_on)
        elif decision is AdmissionDecision.DISPLACE:
            victim = self._coalescer.evict_for(request.priority)
            if victim is None:
                return self._shed(request, obs_on)
            self._state.depth -= 1
            victim.future.set_result(self._shed(victim.request, obs_on))

        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._coalescer.add(request, future, self._clock.now())
        self._state.depth += 1
        if self._state.depth > self.stats.max_depth_seen:
            self.stats.max_depth_seen = self._state.depth
        if obs_on:
            OBS.metrics.set_gauge("repro_serve_queue_depth", (), float(self._state.depth))
        # Every arrival wakes an idle dispatcher; it runs once the arrivals
        # already scheduled on the loop have queued, and takes them all.
        self._wake.set()
        return await future

    def _shed(self, request: QueryRequest, obs_on: bool) -> QueryResponse:
        self.stats.shed += 1
        if obs_on:
            OBS.metrics.inc(
                "repro_serve_shed_total",
                (("policy", self.admission.policy), ("priority", str(request.priority))),
            )
            OBS.metrics.inc(
                "repro_serve_requests_total",
                (("mode", request.mode), ("status", "shed")),
            )
        return SHED_RESPONSE

    # -- dispatcher --------------------------------------------------------------

    async def _run(self) -> None:
        """Dispatcher task: batch, dispatch, repeat — fail loudly, never hang.

        If a dispatch raises (a failing store call), every pending future is
        failed with that exception and the service flips to ``stopping`` —
        submitters see the error immediately instead of awaiting a response
        that can never arrive.
        The exception then propagates to ``stop()``'s ``await``.
        """
        try:
            await self._run_loop()
        except BaseException as exc:
            self._fail_pending(exc)
            raise

    def _fail_pending(self, exc: BaseException) -> None:
        """Resolve every queued request exceptionally and refuse new ones."""
        self._state.stopping = True
        for batch in self._coalescer.take_all():
            self._fail_batch(batch, exc)

    def _fail_batch(self, batch: Batch, exc: BaseException) -> None:
        """Fail every unresolved future of one (possibly in-flight) batch."""
        for pending in batch.items:
            if not pending.future.done():
                self._state.depth -= 1
                pending.future.set_exception(exc)

    async def _run_loop(self) -> None:
        while True:
            if self._coalescer.pending == 0:
                if self._state.stopping:
                    break
                self._wake.clear()
                await self._wake.wait()
                continue
            batches = self._coalescer.take_all()
            for i, batch in enumerate(batches):
                try:
                    await self._dispatch(batch)
                except BaseException as exc:
                    # These batches left the coalescer at take_all; their
                    # futures must fail here or submitters hang forever.
                    for unserved in batches[i:]:
                        self._fail_batch(unserved, exc)
                    raise
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Opportunistic store compaction between batches (never during one).

        Live ingest through :class:`~repro.ingest.sinks
        .PartitionedStoreSink` grows the store's delta tails; once the
        worst partition's delta fraction passes the threshold, the
        dispatcher folds them back into packed base columns while no
        batch is in flight.  Folding changes no results and bumps no
        quality epochs, so cached entries stay valid — it only restores
        packed-column scan speed after an ingest burst.
        """
        if not self._auto_compact:
            return
        if self.store.max_delta_fraction() < self._compact_threshold:
            return
        result = self.store.compact(threshold=self._compact_threshold)
        if result.partitions:
            self.stats.compactions += 1
            self.stats.points_compacted += result.points_folded
            if OBS.enabled:
                OBS.metrics.inc("repro_serve_compactions_total")

    def store_stats(self) -> dict[str, float]:
        """Live two-tier store accounting (delta fraction, compactions).

        Empty for duck-typed stores without a delta tier.
        """
        stats = getattr(self.store, "delta_stats", None)
        return stats() if callable(stats) else {}

    async def _dispatch(self, batch: Batch) -> None:
        obs_on = OBS.enabled
        requests = [p.request for p in batch.items]
        centers = [r.center for r in requests]
        mode = str(batch.key[0])
        # Epochs are sampled BEFORE the kernel call — quality epochs and,
        # for weighted batches, the store's weights epoch: a write (or a
        # weight update) racing the computation leaves the cached entry
        # keyed behind the live registry, so the race costs a future miss,
        # never a stale serve.
        epoch_snap = self.epochs.snapshot()
        weights_epoch = int(getattr(self.store, "weights_epoch", 0))
        cm = (
            OBS.tracer.span("serve.batch", mode=mode, size=len(batch))
            if obs_on
            else _NULL
        )
        with cm:
            if mode == "range":
                radii = [r.radius for r in requests]  # type: ignore[union-attr]
                hits = self.store.range_query_many(centers, radii)
                pid_sets = self.store.range_partition_sets(centers, radii)
            else:
                k = int(batch.key[1])  # type: ignore[arg-type]
                weighted = len(batch.key) > 2 and bool(batch.key[2])
                if weighted:
                    hits = self.store.knn_many(centers, k, weighted=True)
                    pid_sets = self.store.knn_partition_sets(
                        centers, hits, k, weighted=True
                    )
                else:
                    hits = self.store.knn_many(centers, k)
                    pid_sets = self.store.knn_partition_sets(centers, hits, k)
        self.stats.kernel_calls += 1
        if len(batch) > self.stats.max_batch_seen:
            self.stats.max_batch_seen = len(batch)
        if obs_on:
            OBS.metrics.inc("repro_serve_kernel_calls_total", (("mode", mode),))
            OBS.metrics.observe("repro_serve_batch_size", (("mode", mode),), float(len(batch)))
        now = self._clock.now()
        for pending, result, pids in zip(batch.items, hits, pid_sets):
            self._resolve(
                pending, result, pids, epoch_snap, weights_epoch, len(batch), mode, now, obs_on
            )
        async with self._capacity:
            self._capacity.notify_all()

    def _resolve(
        self,
        pending: PendingQuery,
        result: list[int],
        pids: tuple[int, ...],
        epoch_snap: tuple[int, ...],
        weights_epoch: int,
        batch_size: int,
        mode: str,
        now: float,
        obs_on: bool,
    ) -> None:
        results = tuple(map(int, result))
        vector = tuple(map(epoch_snap.__getitem__, pids))
        self.cache.put(self._signature(pending.request, weights_epoch), results, pids, vector)
        self.stats.served += 1
        self._state.depth -= 1
        if obs_on:
            OBS.metrics.inc(
                "repro_serve_requests_total", (("mode", mode), ("status", "ok"))
            )
            OBS.metrics.observe(
                "repro_serve_latency_seconds", (("mode", mode),), now - pending.enqueued_at
            )
        if not pending.future.done():
            pending.future.set_result(
                QueryResponse(ResponseStatus.OK, results, cached=False, batch_size=batch_size)
            )
