"""Observability: tracing, metrics, and profiling for the DQ middleware.

The tutorial frames DQ management as a *monitored process*; this subsystem
makes the monitor itself observable.  It is zero-dependency, off by
default, and wired into every runtime layer of the package:

* :mod:`~repro.obs.trace` — :class:`Tracer`/span API with contextvar
  parenting, deterministic ids, and ring-buffer or JSONL export; spans are
  opened by :meth:`repro.core.Pipeline.run` (per stage), the ingest writer
  threads, the parallel executors (per map and per task, stitched across
  process boundaries), and the batched spatial query entry points,
* :mod:`~repro.obs.metrics` — :class:`MetricsRegistry` of counters, gauges,
  and histograms with lock-free per-thread accumulation, merged on
  snapshot and exportable as dict / JSON / Prometheus text,
* :mod:`~repro.obs.profiler` + :func:`profile` — a sampling wall-clock
  profiler and a profiling context manager for benchmark investigation,
* :mod:`~repro.obs.clock` — the injectable :class:`Clock` seam: the one
  audited place library code reads wall time (reprolint R1 waiver),
* :mod:`~repro.obs.runtime` — the :data:`OBS` switchboard: instrumentation
  sites cost a single attribute check while disabled, and worker-process
  captures merge back losslessly (``workers=1`` counts == ``workers=N``).

Enable with :func:`enable`; conventions and examples live in
``docs/OBSERVABILITY.md``.
"""

from .clock import Clock, ManualClock, MonotonicClock
from .metrics import (
    DEFAULT_BUCKETS,
    HistogramSummary,
    MetricsRegistry,
    MetricsSnapshot,
    escape_label_value,
    metric_key,
    render_key,
)
from .profiler import SamplingProfiler
from .runtime import (
    OBS,
    Observability,
    WorkerCapture,
    disable,
    enable,
    is_enabled,
    profile,
)
from .trace import (
    JsonlExporter,
    RingBufferExporter,
    SpanContext,
    SpanRecord,
    Tracer,
    span_tree,
)

__all__ = [
    "Clock",
    "ManualClock",
    "MonotonicClock",
    "DEFAULT_BUCKETS",
    "HistogramSummary",
    "MetricsRegistry",
    "MetricsSnapshot",
    "escape_label_value",
    "metric_key",
    "render_key",
    "SamplingProfiler",
    "OBS",
    "Observability",
    "WorkerCapture",
    "disable",
    "enable",
    "is_enabled",
    "profile",
    "JsonlExporter",
    "RingBufferExporter",
    "SpanContext",
    "SpanRecord",
    "Tracer",
    "span_tree",
]
