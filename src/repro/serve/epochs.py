"""Quality-epoch registry: the invalidation backbone of the result cache.

Every partition of the served :class:`~repro.querying.distributed.PartitionedStore`
carries an integer *quality epoch*.  A write that survives the ingest
gates (an admit or repair — a *quality event* in the data a partition
serves) bumps the epoch of every partition whose extent contains the
written point; cached results remember the epoch vector of the partitions
they depend on and are refused the moment any of those epochs moved.  The
mechanism is deliberately conservative: epochs only ever advance, a bump
can only cause extra cache misses, and a stale result can therefore never
be served after a quality event (``tests/serve/test_epochs.py``).

:func:`ingest_epoch_hook` adapts a registry to the
:class:`~repro.ingest.engine.IngestEngine` ``on_admit`` seam, closing the
loop the tutorial's exploitation half asks for: quality metadata produced
at ingest time flows to query consumers at serving time.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.geometry import boxes_containing
from ..ingest.events import IngestEvent


class EpochRegistry:
    """Per-partition monotonic epoch counters (thread-safe).

    Writers (ingest writer threads) call :meth:`bump` / :meth:`bump_point`;
    the serving event loop reads :meth:`snapshot` and :meth:`vector`.
    Epochs only advance, so a reader comparing a remembered vector against
    the live one can race a writer and still never *under*-invalidate.
    """

    def __init__(self, boxes: np.ndarray) -> None:
        """``boxes`` is the ``(n_partitions, 4)`` min_x/min_y/max_x/max_y
        array of partition extents (see
        :attr:`~repro.querying.distributed.PartitionedStore.partition_boxes`)."""
        boxes = np.asarray(boxes, dtype=float)
        if boxes.ndim != 2 or boxes.shape[1] != 4:
            raise ValueError("boxes must be an (n_partitions, 4) array")
        self._boxes = [tuple(row) for row in boxes.tolist()]
        self._epochs = [0] * boxes.shape[0]
        self._bumps = 0
        self._epochs_lock = threading.Lock()

    @property
    def n_partitions(self) -> int:
        return len(self._epochs)

    # -- write side (ingest threads) --------------------------------------------

    def bump(self, partition_ids: Iterable[int]) -> None:
        """Advance the epoch of each listed partition by one."""
        pids = list(partition_ids)
        with self._epochs_lock:
            for pid in pids:
                self._epochs[pid] += 1
            self._bumps += len(pids)

    def bump_all(self) -> None:
        """Advance every partition's epoch (global quality event)."""
        self.bump(range(self.n_partitions))

    def bump_point(self, x: float, y: float) -> tuple[int, ...]:
        """Bump every partition whose extent contains ``(x, y)``.

        A point outside every partition box still changed the served data
        set, so it conservatively bumps *all* partitions.  Returns the
        bumped partition ids.
        """
        pids = self.partitions_containing(x, y)
        if pids:
            self.bump(pids)
        else:
            self.bump_all()
            pids = tuple(range(self.n_partitions))
        return pids

    # -- read side (serving event loop) ------------------------------------------

    def partitions_containing(self, x: float, y: float) -> tuple[int, ...]:
        """Ids of partitions whose closed bbox contains ``(x, y)``."""
        return tuple(boxes_containing(self._boxes, x, y))

    def epoch(self, partition_id: int) -> int:
        """Current epoch of one partition."""
        with self._epochs_lock:
            return self._epochs[partition_id]

    def snapshot(self) -> tuple[int, ...]:
        """Consistent copy of every partition's epoch."""
        with self._epochs_lock:
            return tuple(self._epochs)

    def vector(self, partition_ids: Sequence[int]) -> tuple[int, ...]:
        """Epochs of the listed partitions, in the order given."""
        with self._epochs_lock:
            return tuple(self._epochs[pid] for pid in partition_ids)

    @property
    def total_bumps(self) -> int:
        """How many (partition, quality-event) bumps ever happened."""
        with self._epochs_lock:
            return self._bumps


def ingest_epoch_hook(epochs: EpochRegistry) -> Callable[[IngestEvent], None]:
    """Adapt a registry to :class:`~repro.ingest.engine.IngestEngine`'s
    ``on_admit`` seam.

    Wire it as ``IngestEngine(..., on_admit=ingest_epoch_hook(epochs))``:
    every gate-admitted (or gate-repaired) reading bumps the epoch of the
    partitions containing its position, synchronously in the writer thread
    — by the time the write is observable in any store, the cache entries
    it could stale are already invalid.
    """

    def hook(event: IngestEvent) -> None:
        epochs.bump_point(event.x, event.y)

    return hook
