"""Request coalescer: micro-batching concurrent queries into kernel calls.

Concurrent in-flight requests join per-shape buckets (all range queries
together; kNN queries per ``k`` — see
:meth:`~repro.serve.requests.RangeQueryRequest.batch_key`).  The batching
is self-clocked: each time the dispatcher comes round it takes *every*
pending request (:meth:`Coalescer.take_all`), so a batch is exactly what
queued while the previous batch ran — an idle service answers a lone
request at once, and a busy one batches as deeply as its own service
time lets requests pile up.  Buckets larger than ``max_batch`` release as
consecutive hard-capped chunks.

The coalescer is a pure data structure: it never sleeps, spawns no tasks,
and reads time only from the values passed in (the service stamps them
from its injectable :class:`~repro.obs.clock.Clock`), so its batching is
a deterministic function of the arrival sequence — the property
``tests/serve/test_coalescer.py`` pins.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from .requests import BatchKey, QueryRequest


@dataclass(slots=True)
class PendingQuery:
    """One admitted request waiting for its batch: who asked, when, and the
    future its response resolves."""

    request: QueryRequest
    future: "asyncio.Future"
    enqueued_at: float
    seq: int


@dataclass(slots=True)
class Batch:
    """One released bucket, dispatched as a single kernel call."""

    key: BatchKey
    items: list[PendingQuery] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)


def _key_order(key: BatchKey) -> tuple[str, float]:
    """Deterministic release order for buckets released together."""
    return str(key[0]), float(key[1]) if len(key) > 1 else -1.0  # type: ignore[arg-type]


class Coalescer:
    """Per-shape pending buckets, released together in ``max_batch`` chunks."""

    def __init__(self, max_batch: int) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch
        self._buckets: dict[BatchKey, list[PendingQuery]] = {}
        self._seq = 0
        self._pending = 0

    @property
    def pending(self) -> int:
        """How many admitted requests are waiting for a batch."""
        return self._pending

    def add(self, request: QueryRequest, future: "asyncio.Future", now: float) -> bool:
        """Enqueue one request; True when its bucket just reached max_batch."""
        bucket = self._buckets.setdefault(request.batch_key(), [])
        bucket.append(PendingQuery(request, future, now, self._seq))
        self._seq += 1
        self._pending += 1
        return len(bucket) >= self.max_batch

    def take_all(self) -> list[Batch]:
        """Release every pending request, in deterministic key order.

        A bucket that outgrew ``max_batch`` while the dispatcher was busy
        releases as consecutive hard-capped chunks, oldest first.
        """
        batches = []
        for key in sorted(self._buckets, key=_key_order):
            items = self._buckets[key]
            for start in range(0, len(items), self.max_batch):
                batches.append(Batch(key, items[start : start + self.max_batch]))
        self._buckets.clear()
        self._pending = 0
        return batches

    def evict_for(self, priority: int) -> PendingQuery | None:
        """Remove and return the shed victim for a ``drop_oldest`` admit.

        The victim is the lowest-priority pending request no more important
        than the newcomer, oldest first within a class.  None when every
        pending request outranks ``priority`` (the newcomer sheds instead).
        """
        victim_key: BatchKey | None = None
        victim_idx = -1
        victim: PendingQuery | None = None
        for key, bucket in self._buckets.items():
            for idx, item in enumerate(bucket):
                if item.request.priority > priority:
                    continue
                if victim is None or (item.request.priority, item.seq) < (
                    victim.request.priority,
                    victim.seq,
                ):
                    victim, victim_key, victim_idx = item, key, idx
        if victim is None:
            return None
        assert victim_key is not None
        bucket = self._buckets[victim_key]
        bucket.pop(victim_idx)
        self._pending -= 1
        if not bucket:
            del self._buckets[victim_key]
        return victim
