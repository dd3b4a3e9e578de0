"""Thread-safe registry of live per-sensor quality state and accounting.

The registry is the read side of the ingestion engine: writer threads fold
every incoming reading into per-sensor :class:`OnlineSensorStats` (or
windowed variants) and record every gate decision, while monitoring code
snapshots :class:`~repro.core.quality.QualityReport` objects — the *same*
report type, dimensions, and ``HIGH_IS_BAD`` polarity conventions the batch
metrics in :mod:`repro.core.quality` produce, so dashboards and the Table 1
benchmark can read live and batch quality identically.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Mapping

from ..core.quality import Dimension, QualityReport
from .events import Decision, GateOutcome, IngestEvent
from .online_stats import OnlineSensorStats


@dataclass
class IngestCounters:
    """Conservation accounting for an ingestion run.

    After shutdown every offered event is accounted for exactly once:
    ``offered == admitted + quarantined + dropped + rejected + failed``
    (``repaired`` is the subset of ``admitted`` that a gate modified;
    ``failed`` counts readings an engine accepted but never settled
    because a gate, hook or sink raised in its writer thread).
    """

    offered: int = 0
    admitted: int = 0
    repaired: int = 0
    quarantined: int = 0
    dropped: int = 0  # evicted by the drop_oldest backpressure policy
    rejected: int = 0  # refused by the reject backpressure policy
    failed: int = 0  # accepted, but stranded when a writer thread died

    def accounted(self) -> int:
        """Events with a terminal fate (everything but in-flight ones)."""
        return self.admitted + self.quarantined + self.dropped + self.rejected + self.failed

    def conserved(self) -> bool:
        """True when no event is unaccounted for (valid after shutdown)."""
        return self.offered == self.accounted()

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view for JSON summaries."""
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "repaired": self.repaired,
            "quarantined": self.quarantined,
            "dropped": self.dropped,
            "rejected": self.rejected,
            "failed": self.failed,
        }


class _SensorEntry:
    """One sensor's stats plus its lock (updates come from one shard only,
    but snapshots may race with updates)."""

    __slots__ = ("stats", "lock", "decisions")

    def __init__(self, stats) -> None:
        self.stats = stats
        self.lock = threading.Lock()
        self.decisions = {Decision.ADMIT: 0, Decision.REPAIR: 0, Decision.QUARANTINE: 0}


class QualityRegistry:
    """Live per-sensor DQ metrics plus engine-wide decision accounting.

    ``stats_factory`` builds the per-sensor accumulator — by default a
    cumulative :class:`OnlineSensorStats`; pass e.g.
    ``lambda: WindowedSensorStats(300.0, expected_interval=5.0)`` for a
    sliding horizon.  All methods are safe to call from any thread.
    """

    def __init__(self, stats_factory: Callable[[], object] | None = None) -> None:
        self._stats_factory = stats_factory or OnlineSensorStats
        self._sensors: dict[str, _SensorEntry] = {}
        self._registry_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self.counters = IngestCounters()

    # -- write side (writer threads) ------------------------------------------

    def observe(self, event: IngestEvent) -> None:
        """Fold one raw incoming reading into its sensor's online stats."""
        entry = self._entry(event.sensor_id)
        with entry.lock:
            entry.stats.update(event)

    def record_offer(self, n: int = 1) -> None:
        """Count events offered to the engine (before any gating)."""
        with self._counter_lock:
            self.counters.offered += n

    def record_outcome(self, outcome: GateOutcome) -> None:
        """Count one terminal gate decision for its sensor and globally."""
        entry = self._entry(outcome.event.sensor_id)
        with entry.lock:
            entry.decisions[outcome.decision] += 1
        with self._counter_lock:
            if outcome.decision is Decision.QUARANTINE:
                self.counters.quarantined += 1
            else:
                self.counters.admitted += 1
                if outcome.decision is Decision.REPAIR:
                    self.counters.repaired += 1

    def record_dropped(self, n: int = 1) -> None:
        """Count events evicted under the ``drop_oldest`` policy."""
        with self._counter_lock:
            self.counters.dropped += n

    def record_rejected(self, n: int = 1) -> None:
        """Count events refused under the ``reject`` policy."""
        with self._counter_lock:
            self.counters.rejected += n

    def record_failed(self, n: int) -> None:
        """Count events an engine accepted but never settled (its writer died)."""
        with self._counter_lock:
            self.counters.failed += n

    # -- read side (monitoring) ------------------------------------------------

    @property
    def sensor_ids(self) -> list[str]:
        """Sensors seen so far (sorted for stable output)."""
        with self._registry_lock:
            return sorted(self._sensors)

    def snapshot(self, sensor_id: str, now: float | None = None) -> QualityReport:
        """One sensor's live quality as a batch-compatible report.

        Raises :class:`KeyError` for a sensor the registry has never seen —
        reads never create entries, so a typo'd id cannot pollute
        :attr:`sensor_ids` or skew :meth:`aggregate`.
        """
        with self._registry_lock:
            if sensor_id not in self._sensors:
                raise KeyError(sensor_id)
            entry = self._sensors[sensor_id]
        with entry.lock:
            return entry.stats.snapshot(now)

    def snapshot_all(self, now: float | None = None) -> dict[str, QualityReport]:
        """Live reports for every sensor."""
        return {sid: self.snapshot(sid, now) for sid in self.sensor_ids}

    def aggregate(self, now: float | None = None) -> QualityReport:
        """Fleet-level report: per-dimension mean over all sensors.

        The staleness aggregate equals the batch
        :func:`repro.core.quality.staleness` (mean age of each source's
        freshest record); other dimensions are macro-averages.
        """
        sums: dict[Dimension, float] = {}
        counts: dict[Dimension, int] = {}
        for report in self.snapshot_all(now).values():
            for dim, value in report.values.items():
                sums[dim] = sums.get(dim, 0.0) + value
                counts[dim] = counts.get(dim, 0) + 1
        out = QualityReport()
        for dim, total in sums.items():
            if dim is Dimension.DATA_VOLUME:
                out.set(dim, total)  # volume adds up; averaging would hide load
            else:
                out.set(dim, total / counts[dim])
        return out

    def decision_counts(self, sensor_id: str) -> Mapping[Decision, int]:
        """Per-sensor terminal decision tallies (KeyError if never seen)."""
        with self._registry_lock:
            if sensor_id not in self._sensors:
                raise KeyError(sensor_id)
            entry = self._sensors[sensor_id]
        with entry.lock:
            return dict(entry.decisions)

    def counters_snapshot(self) -> IngestCounters:
        """Consistent copy of the global accounting counters."""
        with self._counter_lock:
            return IngestCounters(**self.counters.as_dict())

    # -- internals ---------------------------------------------------------------

    def _entry(self, sensor_id: str) -> _SensorEntry:
        with self._registry_lock:
            entry = self._sensors.get(sensor_id)
            if entry is None:
                entry = _SensorEntry(self._stats_factory())
                self._sensors[sensor_id] = entry
            return entry

