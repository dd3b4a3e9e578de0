"""Zero-copy shared-memory handoff of columnar batches to worker processes.

Process pools normally pay pickling twice per task: the parent serializes
every trajectory's point list, the worker deserializes it.  For fleet-scale
inputs that dwarfs the actual compute.  The classes here move the *columnar*
representation (the PR-2 ``as_xyt`` float64 blocks) through
:mod:`multiprocessing.shared_memory` instead: the parent packs each array
once into a named segment, workers attach and slice it zero-copy, and only
tiny picklable handles (segment name, dtype, shape, offsets) cross the
process boundary.

Lifecycle contract: the creating process owns the segment and must
``unlink`` it exactly once; workers ``close`` their attachments.  Both
classes are context managers whose ``__exit__`` runs on error paths too, so
a crashing worker or a raising consumer never leaks segments (see
``tests/test_parallel.py::TestSharedMemoryLifecycle``).  The consumers are
the fleet pipeline paths (:meth:`repro.core.Pipeline.run_many` and
``run_ablations``), which create one segment per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..core.trajectory import Trajectory
from ..obs import OBS

# Resource-tracker note: CPython < 3.13 registers the segment name on both
# create and attach, but pool workers share the parent's tracker process and
# its name cache is a set — the worker-side re-register is a no-op and the
# owner's single ``unlink`` removes the entry.  Explicitly unregistering on
# the worker side would instead *drop the owner's registration* and make the
# owner's later unlink raise inside the tracker, so we deliberately leave the
# default registration behaviour alone.


@dataclass(frozen=True)
class ArrayHandle:
    """Picklable reference to one array living in a shared segment."""

    name: str
    shape: tuple[int, ...]
    dtype: str


class SharedArray:
    """One NumPy array in one shared-memory segment.

    ``create`` copies the array in (parent side, owner); ``attach`` maps it
    read-only in a worker (borrower).  ``array`` is a view over the segment
    — no further copies on either side.
    """

    def __init__(self, shm: shared_memory.SharedMemory, array: np.ndarray, owner: bool) -> None:
        self._shm = shm
        self.array = array
        self.owner = owner
        self._released = False

    @classmethod
    def create(cls, array: np.ndarray) -> "SharedArray":
        """Copy ``array`` into a fresh owned segment (one copy, then views)."""
        arr = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
        view.flags.writeable = False
        if OBS.enabled:
            OBS.metrics.inc("repro_shm_bytes_total", (), float(arr.nbytes))
            OBS.metrics.inc("repro_shm_segments_total")
        return cls(shm, view, owner=True)

    @property
    def handle(self) -> ArrayHandle:
        return ArrayHandle(self._shm.name, tuple(self.array.shape), str(self.array.dtype))

    @classmethod
    def attach(cls, handle: ArrayHandle) -> "SharedArray":
        """Map the segment read-only (borrower side)."""
        shm = shared_memory.SharedMemory(name=handle.name)
        view = np.ndarray(handle.shape, dtype=np.dtype(handle.dtype), buffer=shm.buf)
        view.flags.writeable = False
        return cls(shm, view, owner=False)

    def release(self) -> None:
        """Close the mapping; the owner also unlinks the segment. Idempotent."""
        if self._released:
            return
        self._released = True
        self.array = np.empty(0)  # drop the buffer view before closing the map
        self._shm.close()
        if self.owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


@dataclass(frozen=True)
class TrajectoryBatchHandle:
    """Picklable reference to a packed trajectory batch."""

    block: ArrayHandle
    offsets: tuple[int, ...]
    object_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.object_ids)


class SharedTrajectoryBatch:
    """A trajectory collection packed as one shared ``(N, 3)`` xyt block.

    The parent concatenates every trajectory's cached ``as_xyt`` array into
    a single float64 segment; ``offsets[i]:offsets[i+1]`` delimits
    trajectory ``i``.  Workers attach the block and rebuild
    :class:`~repro.core.trajectory.Trajectory` objects on demand — the
    coordinate data itself is never re-pickled.
    """

    def __init__(self, block: SharedArray, offsets: tuple[int, ...], object_ids: tuple[str, ...]):
        self._block = block
        self._offsets = offsets
        self._object_ids = object_ids

    @classmethod
    def create(cls, trajectories: list[Trajectory]) -> "SharedTrajectoryBatch":
        """Pack the fleet into one owned segment."""
        offsets = [0]
        for traj in trajectories:
            offsets.append(offsets[-1] + len(traj))
        packed = (
            np.concatenate([t.as_xyt() for t in trajectories])
            if trajectories
            else np.zeros((0, 3))
        )
        # Ownership transfers to the returned batch, whose release() pairs it.
        block = SharedArray.create(packed)
        return cls(block, tuple(offsets), tuple(t.object_id for t in trajectories))

    @property
    def handle(self) -> TrajectoryBatchHandle:
        return TrajectoryBatchHandle(self._block.handle, self._offsets, self._object_ids)

    @classmethod
    def attach(cls, handle: TrajectoryBatchHandle) -> "SharedTrajectoryBatch":
        # Ownership transfers to the returned batch, whose release() pairs it.
        return cls(
            SharedArray.attach(handle.block),
            handle.offsets,
            handle.object_ids,
        )

    def __len__(self) -> int:
        return len(self._object_ids)

    def rows(self, i: int) -> np.ndarray:
        """Zero-copy ``(n_i, 3)`` xyt view of trajectory ``i``."""
        lo, hi = self._offsets[i], self._offsets[i + 1]
        return self._block.array[lo:hi]

    def trajectory(self, i: int) -> Trajectory:
        """Rebuild trajectory ``i`` (points materialized, coordinates shared)."""
        xyt = self.rows(i)
        return Trajectory.from_arrays(xyt[:, 0], xyt[:, 1], xyt[:, 2], self._object_ids[i])

    def trajectories(self, start: int = 0, stop: int | None = None) -> list[Trajectory]:
        """Rebuild the trajectories in the index span ``[start, stop)``."""
        stop = len(self) if stop is None else stop
        return [self.trajectory(i) for i in range(start, stop)]

    def release(self) -> None:
        """Close (and for the owner, unlink) the backing segment. Idempotent."""
        self._block.release()

    def __enter__(self) -> "SharedTrajectoryBatch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
