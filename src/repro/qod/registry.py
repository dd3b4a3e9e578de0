"""The thread-safe QoD registry: incremental evidence, on-demand scores.

:class:`QodRegistry` is the live end of the QoD engine.  It hangs off the
ingest engine's ``on_admit`` seam (:func:`qod_ingest_hook`) so every
gate-admitted reading folds into constant-memory per-sensor accumulators
— an :class:`~repro.ingest.online_stats.OnlineSensorStats` (or its
windowed pane-rotating variant) for the self checks, plus value moments
and a trend-slope regression for the deployment detectors — and a
scoring pass (:meth:`QodRegistry.scores`) composites the three control
points (:mod:`repro.qod.checks`) into one :class:`~repro.qod.checks
.QodScore` per sensor whenever exploitation needs fresh weights.

Concurrency mirrors :class:`repro.ingest.registry.QualityRegistry`: a
registry lock guards the sensor map, a per-sensor lock guards that
sensor's accumulators, and the two are never held together.  Scoring
snapshots each sensor under its own lock, then works on immutable
summaries — updates arriving mid-pass land in the *next* pass.

Determinism: everything is a pure function of the admitted event stream
(event times, not wall time).  ``scores(now=...)`` defaults ``now`` to
the injected :class:`~repro.obs.clock.Clock` when one was provided, else
to the fleet's newest event time — so un-clocked registries are fully
reproducible, R1-clean, and need no waiver.
"""

from __future__ import annotations

import math
import threading
from contextlib import nullcontext
from typing import Callable, Iterable

from ..core.quality import Dimension
from ..ingest.events import IngestEvent
from ..ingest.online_stats import OnlineSensorStats, Welford, WindowedSensorStats
from ..obs import OBS
from ..obs.clock import Clock
from .checks import (
    QodScore,
    SensorSummary,
    composite_score,
    deployment_score,
    drift_score,
    obstruction_score,
    reference_score,
    self_check_score,
    staleness_factor,
    stuck_score,
)
from .config import QodConfig
from .reference import _consensus, _Graph, fleet_dispersion, fleet_slope

#: Shared no-op context for disabled-observability paths.
_NULL = nullcontext()


class _ValueMoments:
    """One pane of value moments: Welford + a least-squares trend.

    ``push`` takes event times relative to the sensor's first reading
    (keeps the normal-equation sums well conditioned and lets panes
    combine by plain addition).
    """

    __slots__ = ("welford", "sum_t", "sum_v", "sum_tt", "sum_tv")

    def __init__(self) -> None:
        self.welford = Welford()
        self.sum_t = 0.0
        self.sum_v = 0.0
        self.sum_tt = 0.0
        self.sum_tv = 0.0

    def push(self, rel_t: float, value: float) -> None:
        self.welford.push(value)
        self.sum_t += rel_t
        self.sum_v += value
        self.sum_tt += rel_t * rel_t
        self.sum_tv += rel_t * value

    @classmethod
    def combine(cls, a: "_ValueMoments", b: "_ValueMoments") -> "_ValueMoments":
        out = cls()
        out.welford = Welford.combine(a.welford, b.welford)
        out.sum_t = a.sum_t + b.sum_t
        out.sum_v = a.sum_v + b.sum_v
        out.sum_tt = a.sum_tt + b.sum_tt
        out.sum_tv = a.sum_tv + b.sum_tv
        return out

    def slope(self) -> float:
        """Least-squares value trend (units/s); 0.0 when underdetermined."""
        n = self.welford.n
        if n < 2:
            return 0.0
        var_t = self.sum_tt - self.sum_t * self.sum_t / n
        if var_t <= 1e-12:
            return 0.0
        return (self.sum_tv - self.sum_t * self.sum_v / n) / var_t


class _SensorState:
    """Mutable per-sensor evidence; every access goes through its entry lock."""

    __slots__ = (
        "stats",
        "n",
        "n_out_of_bounds",
        "x",
        "y",
        "t_first",
        "t_last",
        "window",
        "pane_start",
        "pane_prev",
        "pane_cur",
    )

    def __init__(self, config: QodConfig) -> None:
        stats_kwargs = {
            "expected_interval": config.expected_interval,
            "value_rate_bounds": config.value_rate_bounds,
        }
        self.stats: OnlineSensorStats | WindowedSensorStats
        if config.window is not None:
            self.stats = WindowedSensorStats(config.window, **stats_kwargs)
        else:
            self.stats = OnlineSensorStats(**stats_kwargs)
        self.n = 0
        self.n_out_of_bounds = 0
        self.x = 0.0
        self.y = 0.0
        self.t_first: float | None = None
        self.t_last = 0.0
        self.window = config.window
        self.pane_start: float | None = None
        self.pane_prev: _ValueMoments | None = None
        self.pane_cur = _ValueMoments()

    def update(self, event: IngestEvent, value_bounds: tuple[float, float] | None) -> None:
        self.n += 1
        self.x = event.x
        self.y = event.y
        if self.t_first is None:
            self.t_first = event.t
        self.t_last = max(self.t_last, event.t) if self.n > 1 else event.t
        self.stats.update(event)
        value = event.value
        if math.isnan(value):
            return
        if value_bounds is not None and not (value_bounds[0] <= value <= value_bounds[1]):
            self.n_out_of_bounds += 1
            return  # implausible readings never contaminate the moments
        self._rotate(event.t)
        self.pane_cur.push(event.t - self.t_first, value)

    def _rotate(self, t: float) -> None:
        """Two-pane rotation matching :class:`WindowedSensorStats`."""
        if self.window is None:
            return
        if self.pane_start is None:
            self.pane_start = t
        elif t - self.pane_start >= self.window:
            self.pane_prev = self.pane_cur
            self.pane_cur = _ValueMoments()
            self.pane_start = self.pane_start + self.window * math.floor(
                (t - self.pane_start) / self.window
            )

    def moments(self) -> _ValueMoments:
        if self.pane_prev is None:
            return self.pane_cur
        return _ValueMoments.combine(self.pane_prev, self.pane_cur)

    def summary(self, sensor_id: str) -> SensorSummary:
        moments = self.moments()
        report = self.stats.snapshot()
        consistency = (
            report[Dimension.CONSISTENCY] if Dimension.CONSISTENCY in report else None
        )
        completeness = (
            report[Dimension.COMPLETENESS] if Dimension.COMPLETENESS in report else None
        )
        return SensorSummary(
            sensor_id=sensor_id,
            x=self.x,
            y=self.y,
            n=self.n,
            n_out_of_bounds=self.n_out_of_bounds,
            mean=moments.welford.mean,
            dispersion=moments.welford.std,
            slope=moments.slope(),
            consistency=consistency,
            completeness=completeness,
            last_t=self.t_last,
        )


class _SensorEntry:
    """One sensor's lock + state (the lock covers only this sensor)."""

    __slots__ = ("lock", "state")

    def __init__(self, config: QodConfig) -> None:
        self.lock = threading.Lock()
        self.state = _SensorState(config)


class QodRegistry:
    """Incrementally maintained per-sensor QoD scores for a sensor fleet.

    Feed it admitted readings — directly via :meth:`update`, or by
    installing :func:`qod_ingest_hook` as (part of) an
    :class:`~repro.ingest.engine.IngestEngine`'s ``on_admit`` — then call
    :meth:`scores` for the composite verdicts or :meth:`weights` for the
    exploitation-ready ``(0, 1]`` weights
    (:func:`repro.qod.weighting.quality_weights` applied with the
    config's floor and power).

    ``clock`` is optional; when provided, :meth:`scores` uses
    ``clock.now()`` as the staleness reference instant.  Without one the
    reference is the fleet's newest event time, keeping replayed streams
    bit-reproducible.
    """

    def __init__(self, config: QodConfig | None = None, clock: Clock | None = None) -> None:
        self.config = config if config is not None else QodConfig()
        self._clock = clock
        self._registry_lock = threading.Lock()
        self._entries: dict[str, _SensorEntry] = {}
        # The last pass's neighbor graph, published as one tuple.
        self._graph: _Graph | None = None

    # -- ingestion side ----------------------------------------------------------

    def _entry(self, sensor_id: str) -> _SensorEntry:
        with self._registry_lock:
            entry = self._entries.get(sensor_id)
            if entry is None:
                entry = _SensorEntry(self.config)
                self._entries[sensor_id] = entry
            return entry

    def update(self, event: IngestEvent) -> None:
        """Fold one admitted reading into its sensor's accumulators (O(1))."""
        entry = self._entry(event.sensor_id)
        with entry.lock:
            entry.state.update(event, self.config.value_bounds)
        if OBS.enabled:
            OBS.metrics.inc("repro_qod_updates_total")

    def update_many(self, events: Iterable[IngestEvent]) -> None:
        """Fold a batch of admitted readings in iteration order."""
        for event in events:
            self.update(event)

    @classmethod
    def from_events(
        cls,
        events: Iterable[IngestEvent],
        config: QodConfig | None = None,
        clock: Clock | None = None,
    ) -> "QodRegistry":
        """Batch construction: a fresh registry fed the whole stream.

        The incremental-maintenance oracle — a registry updated one event
        at a time scores identically to this batch rebuild
        (``tests/qod/test_scoring.py``).
        """
        registry = cls(config, clock)
        registry.update_many(events)
        return registry

    # -- read side ---------------------------------------------------------------

    def sensor_ids(self) -> list[str]:
        """Tracked sensor ids, sorted for deterministic iteration."""
        with self._registry_lock:
            return sorted(self._entries)

    def __len__(self) -> int:
        with self._registry_lock:
            return len(self._entries)

    def summaries(self) -> list[SensorSummary]:
        """Consistent per-sensor evidence snapshots, in sorted-id order.

        Each sensor is snapshotted under its own lock; the pass never
        holds two locks at once, so ingestion is never stalled for more
        than one sensor's copy.
        """
        with self._registry_lock:
            items = sorted(self._entries.items())
        out: list[SensorSummary] = []
        for sensor_id, entry in items:
            with entry.lock:
                out.append(entry.state.summary(sensor_id))
        return out

    def scores(self, now: float | None = None) -> dict[str, QodScore]:
        """One scoring pass: composite QoD per sensor, keyed by sensor id.

        ``now`` is the staleness reference instant (event-time units);
        it defaults to the injected clock's reading when the registry has
        one, else to the fleet's newest event time.
        """
        summaries = self.summaries()
        cm = (
            OBS.tracer.span("qod.score", sensors=len(summaries))
            if OBS.enabled
            else _NULL
        )
        with cm:
            out = self._score_pass(summaries, now)
        if OBS.enabled:
            OBS.metrics.set_gauge("repro_qod_sensors", (), float(len(out)))
            for score in out.values():
                OBS.metrics.observe("repro_qod_score", (), score.composite)
                band = "low" if score.composite < 0.3 else (
                    "mid" if score.composite < 0.7 else "high"
                )
                OBS.metrics.inc("repro_qod_scores_total", (("band", band),))
        return out

    def _score_pass(
        self, summaries: list[SensorSummary], now: float | None
    ) -> dict[str, QodScore]:
        config = self.config
        if not summaries:
            return {}
        if now is None:
            now = (
                self._clock.now()
                if self._clock is not None
                else max(s.last_t for s in summaries)
            )
        consensus, self._graph = _consensus(summaries, config.neighbors, self._graph)
        median_dispersion = fleet_dispersion(summaries)
        scale = max(median_dispersion, config.cqc_min_scale)
        trend = fleet_slope(summaries)
        out: dict[str, QodScore] = {}
        for summary, near in zip(summaries, consensus):
            out[summary.sensor_id] = self._score_one(
                summary, near, scale, trend, median_dispersion, now
            )
        return out

    def _score_one(
        self,
        summary: SensorSummary,
        consensus: float | None,
        scale: float,
        trend: float,
        median_dispersion: float,
        now: float,
    ) -> QodScore:
        config = self.config
        obc = 1.0 if summary.n == 0 else 1.0 - summary.n_out_of_bounds / summary.n
        if summary.n < config.min_readings:
            # Cold start: not enough evidence for the detectors to mean
            # anything — report the provisional score with neutral layers.
            s = config.provisional_score
            return QodScore(
                sensor_id=summary.sensor_id,
                composite=s,
                self_check=s,
                reference=s,
                deployment=s,
                out_of_bounds=obc,
                consistency=1.0 if summary.consistency is None else summary.consistency,
                completeness=1.0 if summary.completeness is None else summary.completeness,
                stuck=1.0,
                obstruction=1.0,
                drift=1.0,
                n=summary.n,
            )
        self_check = self_check_score(summary)
        ref = (
            1.0
            if consensus is None
            else reference_score(summary.mean, consensus, scale, config.cqc_tolerance)
        )
        stuck = stuck_score(summary.dispersion, config.stuck_sigma)
        obstruction = obstruction_score(
            summary.dispersion, median_dispersion, config.indoor_ratio
        )
        drift = drift_score(summary.slope, trend, config.drift_tolerance)
        deployment = deployment_score(stuck, obstruction, drift)
        composite = composite_score(self_check, ref, deployment, config.control_weights)
        composite *= staleness_factor(now - summary.last_t, config.staleness_horizon)
        return QodScore(
            sensor_id=summary.sensor_id,
            composite=composite,
            self_check=self_check,
            reference=ref,
            deployment=deployment,
            out_of_bounds=obc,
            consistency=1.0 if summary.consistency is None else summary.consistency,
            completeness=1.0 if summary.completeness is None else summary.completeness,
            stuck=stuck,
            obstruction=obstruction,
            drift=drift,
            n=summary.n,
        )

    def weights(self, now: float | None = None) -> dict[str, float]:
        """Exploitation-ready ``(0, 1]`` weights per sensor.

        The config's ``weight_floor`` / ``weight_power`` mapping applied
        to :meth:`scores` — see :func:`repro.qod.weighting.quality_weights`.
        """
        from .weighting import quality_weights

        return quality_weights(
            self.scores(now),
            floor=self.config.weight_floor,
            power=self.config.weight_power,
        )


def qod_ingest_hook(registry: QodRegistry) -> Callable[[IngestEvent], None]:
    """An ``on_admit`` callback folding admitted readings into ``registry``.

    Install on an :class:`~repro.ingest.engine.IngestEngine` (compose
    with the serving layer's epoch hook via :func:`compose_admit_hooks`
    when both are wanted)::

        engine = IngestEngine(..., on_admit=qod_ingest_hook(registry))
    """

    def hook(event: IngestEvent) -> None:
        registry.update(event)

    return hook


def compose_admit_hooks(
    *hooks: Callable[[IngestEvent], None] | None,
) -> Callable[[IngestEvent], None]:
    """One ``on_admit`` callback fanning each admitted event to ``hooks``.

    The ingest engine takes a single callback; live deployments usually
    want at least two — the serving layer's
    :func:`~repro.serve.epochs.ingest_epoch_hook` *and*
    :func:`qod_ingest_hook`.  Hooks run in argument order; ``None``
    entries are dropped, so optional hooks compose without branching.
    """
    live = tuple(h for h in hooks if h is not None)

    def hook(event: IngestEvent) -> None:
        for h in live:
            h(event)

    return hook
