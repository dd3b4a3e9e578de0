"""Quality-aware serving: the query front end over the partitioned store.

The tutorial's exploitation half argues quality-managed SID pays off when
it is *queried under load*; this subsystem is that load path.  A
long-lived asyncio :class:`~repro.serve.service.QueryService` accepts
typed :class:`~repro.serve.requests.RangeQueryRequest` /
:class:`~repro.serve.requests.KnnQueryRequest` objects and

* **coalesces** concurrent requests into single in-process batched
  kernel calls (:mod:`~repro.serve.coalescer` — self-clocked: a batch is
  what queued while the previous batch ran),
* applies **admission control** with the ingest layer's backpressure
  vocabulary (:mod:`~repro.serve.admission` — ``block`` / ``reject`` /
  ``drop_oldest`` mapped to request semantics, per-class priorities),
* serves repeats from a **result cache with quality-epoch invalidation**
  (:mod:`~repro.serve.cache` + :mod:`~repro.serve.epochs` — a write
  admitted through the ingest gates bumps the epochs of the partitions it
  touches, so a stale result is never served after a quality event).

Benchmarked by ``benchmarks/bench_serve.py`` (p50/p99 latency, sustained
QPS, coalesce ratio at 10k+ simulated clients); demonstrated end to end
in ``examples/serve_quality_gateway.py``.
"""

from .admission import POLICIES, AdmissionController, AdmissionDecision
from .cache import CacheEntry, ResultCache
from .coalescer import Batch, Coalescer, PendingQuery
from .epochs import EpochRegistry, ingest_epoch_hook
from .requests import (
    KnnQueryRequest,
    QueryRequest,
    QueryResponse,
    RangeQueryRequest,
    ResponseStatus,
)
from .service import QueryService, ServeStats

__all__ = [
    "POLICIES",
    "AdmissionController",
    "AdmissionDecision",
    "CacheEntry",
    "ResultCache",
    "Batch",
    "Coalescer",
    "PendingQuery",
    "EpochRegistry",
    "ingest_epoch_hook",
    "KnnQueryRequest",
    "QueryRequest",
    "QueryResponse",
    "RangeQueryRequest",
    "ResponseStatus",
    "QueryService",
    "ServeStats",
]
