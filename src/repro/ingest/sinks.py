"""Ingest sinks bridging gate-admitted events into live query stores.

The engine's ``store`` duck type (``write(event)`` + ``__len__``) was
satisfied only by the disconnected in-memory stores in
:mod:`~repro.ingest.engine` — admitted data never became queryable
without a full store rebuild.  :class:`PartitionedStoreSink` closes that
gap: each admitted event's coordinates land in a
:class:`~repro.querying.distributed.PartitionedStore` delta tail, making
the point visible to range/kNN queries immediately, no rebuild, no
re-partition.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from ..core.geometry import Point
from ..core.stid import STRecord
from .events import IngestEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..querying.distributed import PartitionedStore

__all__ = ["PartitionedStoreSink"]


class PartitionedStoreSink:
    """Store adapter: gate-admitted events feed a live partitioned store.

    Drop-in for :class:`~repro.ingest.engine.IngestEngine`'s ``store``
    parameter: every admitted event is appended to the store's delta tier
    and is queryable before ``write`` returns.  Pair the engine with
    :func:`repro.serve.epochs.ingest_epoch_hook` via ``on_admit`` — the
    hook fires *before* this sink's write, so cached serving results over
    the affected partitions are invalidated before the new point becomes
    visible (races cost a cache miss, never a stale serve).

    Thread-safe: writer threads may write concurrently — the store's delta
    tier serializes appends under its own lock, and the sink's counter
    and optional record log are guarded here.  With ``keep_records`` the
    sink also retains the admitted STID records (like
    :class:`~repro.ingest.engine.InMemoryStore`) for audits; leave it off
    for long-running ingest, where the store itself is the system of
    record.
    """

    def __init__(self, store: "PartitionedStore", *, keep_records: bool = False) -> None:
        self._lock = threading.Lock()
        self.store = store
        self.written = 0
        self._records: list[STRecord] | None = [] if keep_records else None

    def write(self, event: IngestEvent) -> None:
        """Append the event's position to the store's delta tier."""
        self.store.append(Point(event.x, event.y))
        with self._lock:
            self.written += 1
            if self._records is not None:
                self._records.append(event.to_record())

    def __len__(self) -> int:
        return self.written

    @property
    def records(self) -> list[STRecord]:
        """Copy of the retained records (empty unless ``keep_records``)."""
        with self._lock:
            return list(self._records) if self._records is not None else []
