"""Backend-agnostic executors and the deterministic ``map_chunks`` API.

The :class:`Executor` protocol is the seam every fleet-level consumer
(:meth:`repro.core.Pipeline.run_many` / ``run_ablations``, the Table-1
grid) programs against: an ordered map over
picklable payloads.  Two backends are provided — :class:`SerialExecutor`
(in-process, zero dependencies, the ``workers=1`` fallback) and
:class:`ProcessExecutor` (a ``concurrent.futures`` process pool) — and
later scaling PRs (async, multi-node) only need to add another
implementation of the same protocol.

Determinism contract: chunk boundaries and per-item seeds come from
:mod:`repro.parallel.chunking` and never depend on the executor or worker
count, results are merged in submission order, and the serial path runs the
*same* dispatch function as pool workers — so ``workers=1`` output is
bit-identical to ``workers=N`` for every consumer (enforced by
``tests/test_parallel.py``).
"""

from __future__ import annotations

import os
from concurrent import futures
from contextlib import contextmanager, nullcontext
from multiprocessing import get_context
from typing import Any, Callable, Iterator, Protocol, Sequence, runtime_checkable

from ..obs import OBS, WorkerCapture
from .chunking import chunk_spans, derive_seeds

#: Environment override for the pool start method ("fork", "spawn",
#: "forkserver"); unset means the platform default.
START_METHOD_ENV = "REPRO_PARALLEL_START_METHOD"

#: Shared no-op context for disabled-observability paths.
_NULL = nullcontext()


def default_start_method() -> str | None:
    """Start method from ``REPRO_PARALLEL_START_METHOD`` (None = platform default)."""
    method = os.environ.get(START_METHOD_ENV, "").strip()
    return method or None


@runtime_checkable
class Executor(Protocol):
    """Ordered map over picklable payloads; the parallel layer's backend seam."""

    workers: int

    def map_ordered(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to each payload, returning results in payload order."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release backend resources (idempotent)."""
        ...  # pragma: no cover - protocol


class SerialExecutor:
    """In-process executor: the deterministic ``workers=1`` reference path."""

    workers = 1

    def map_ordered(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to each payload in order, in the calling process.

        With observability on, opens a ``parallel.map`` span with one
        ``parallel.task`` child per payload — the same span/metric shape
        the process backend produces, so traces are backend-comparable.
        """
        if not OBS.enabled:
            return [fn(p) for p in payloads]
        with OBS.tracer.span("parallel.map", backend="serial", tasks=len(payloads)):
            results = []
            for i, p in enumerate(payloads):
                with OBS.tracer.span("parallel.task", index=i):
                    results.append(fn(p))
        OBS.metrics.inc("repro_parallel_tasks_total", (), float(len(payloads)))
        return results

    def close(self) -> None:
        """Nothing to release for the in-process backend."""

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ProcessExecutor:
    """Process-pool executor over ``concurrent.futures``.

    The pool is created lazily on first use and reused across calls, so a
    long-lived executor amortizes worker startup over many fleet batches.
    ``fn`` and payloads must be picklable (module-level functions); both
    are pickled per task.
    """

    def __init__(self, workers: int, start_method: str | None = None) -> None:
        if workers < 2:
            raise ValueError("ProcessExecutor needs workers >= 2; use SerialExecutor")
        self.workers = workers
        self.start_method = start_method if start_method is not None else default_start_method()
        self._pool: futures.ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> futures.ProcessPoolExecutor:
        if self._pool is None:
            ctx = get_context(self.start_method) if self.start_method else None
            self._pool = futures.ProcessPoolExecutor(max_workers=self.workers, mp_context=ctx)
        return self._pool

    def prewarm(self) -> None:
        """Spawn all workers now via an idle round-trip.

        A pool created lazily spawns workers on the first real batch, which
        charges worker startup to that batch's latency; the pool manager
        prewarms at creation so the first *consumer* call runs on a hot pool.
        """
        list(self._ensure_pool().map(_prewarm_task, range(self.workers)))

    @property
    def broken(self) -> bool:
        """True once a worker died and the pool can no longer accept work."""
        return bool(self._pool is not None and getattr(self._pool, "_broken", False))

    def map_ordered(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to each payload on the pool, results in payload order.

        With observability on, each task is wrapped in a worker-side
        :class:`~repro.obs.WorkerCapture`: the worker records spans and
        metrics into a private tracer/registry, and the capture rides back
        with the result to be folded into the parent's — worker task spans
        re-parent under this call's ``parallel.map`` span, and counter
        values merge to exactly the serial backend's totals.
        """
        if not payloads:
            return []
        if not OBS.enabled:
            return list(self._ensure_pool().map(fn, payloads))
        with OBS.tracer.span("parallel.map", backend="process", tasks=len(payloads)):
            remote = OBS.tracer.current_context()
            wrapped = [(fn, p, i) for i, p in enumerate(payloads)]
            results = []
            for result, snapshot, spans in self._ensure_pool().map(_captured_task, wrapped):
                OBS.absorb_worker(snapshot, spans, remote)
                results.append(result)
        OBS.metrics.inc("repro_parallel_tasks_total", (), float(len(payloads)))
        return results

    def close(self) -> None:
        """Shut the pool down and release its workers (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def get_executor(workers: int | None = None, start_method: str | None = None) -> Executor:
    """Executor for ``workers``: serial for <= 1, a warm pool lease otherwise.

    ``workers=None`` means serial; ``workers=-1`` means one worker per
    usable CPU (:func:`usable_cpus`).
    Parallel requests lease the process-wide warm pool for
    ``(workers, start_method)`` from the
    :class:`~repro.parallel.pool.WorkerPoolManager` — the pool is created
    (and prewarmed) once and shared by every caller; closing the returned
    lease releases it without tearing the pool down.
    """
    if workers is not None and workers < 0:
        workers = usable_cpus()
    if workers is None or workers <= 1:
        return SerialExecutor()
    from .pool import get_pool_manager

    return get_pool_manager().acquire(workers, start_method)


@contextmanager
def resolve_executor(
    workers: int | None = None, executor: Executor | None = None
) -> Iterator[Executor]:
    """Yield ``executor`` if given, else a pool lease (released on exit).

    The standard consumer idiom: a caller-supplied executor is borrowed (the
    caller controls its lifetime); an implicit one is owned by this context
    and released even on error paths.
    """
    if executor is not None:
        yield executor
        return
    owned = get_executor(workers)
    try:
        yield owned
    finally:
        owned.close()


def _prewarm_task(index: int) -> int:
    """Trivial pool task used by :meth:`ProcessExecutor.prewarm`."""
    return index


def _captured_task(payload: tuple) -> tuple:
    """Pool worker: run one task under a fresh observability capture.

    Returns ``(result, metrics_snapshot, span_records)``; the parent's
    :meth:`ProcessExecutor.map_ordered` folds the capture back in.  The
    worker-side ``parallel.task`` span becomes the root every span the
    task opens parents under, mirroring the serial backend's span shape.
    """
    fn, inner, index = payload
    capture = WorkerCapture()
    with capture:
        with OBS.tracer.span("parallel.task", index=index):
            result = fn(inner)
    return result, capture.metrics, capture.spans


def _call_chunk(payload: tuple) -> list:
    """Pool-side dispatcher shared by the serial and parallel paths."""
    fn, chunk, seeds = payload
    result = fn(chunk) if seeds is None else fn(chunk, seeds)
    return list(result)


def map_chunks(
    fn: Callable[..., Sequence[Any]],
    items: Sequence[Any],
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    seed: int | None = None,
    executor: Executor | None = None,
) -> list[Any]:
    """Chunked ordered map: ``fn(chunk) -> per-item results``, merged in order.

    ``fn`` receives a list of consecutive items and returns one result per
    item.  With ``seed`` set, ``fn(chunk, seeds)`` additionally receives the
    per-item seeds derived from each item's *global* index
    (:func:`~repro.parallel.chunking.derive_seed`), so seeded work is
    reproducible across any worker count or chunk size.
    """
    spans = chunk_spans(len(items), chunk_size)
    payloads = [
        (
            fn,
            list(items[start:stop]),
            None if seed is None else derive_seeds(seed, start, stop),
        )
        for start, stop in spans
    ]
    cm = (
        OBS.tracer.span("parallel.map_chunks", items=len(items), chunks=len(spans))
        if OBS.enabled
        else _NULL
    )
    out: list[Any] = []
    with cm, resolve_executor(workers, executor) as ex:
        for chunk_result in ex.map_ordered(_call_chunk, payloads):
            out.extend(chunk_result)
    if len(out) != len(items):
        raise ValueError(
            f"chunk fn returned {len(out)} results for {len(items)} items; "
            "map_chunks requires exactly one result per item"
        )
    return out
