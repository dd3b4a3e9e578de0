"""Quality-management middleware (Sec. 2.4 of the tutorial).

The tutorial's closing direction is a *Quality Management Middleware for
SID*: a layer that coordinates individual DQ services (refinement, cleaning,
integration, reduction) into an application-facing pipeline.  This module
provides that coordination layer:

* :class:`Stage` — a named, pure data-in/data-out DQ operator,
* :class:`Pipeline` — an ordered composition with provenance recording,
* :class:`PipelineResult` — output plus a per-stage trace (timings and
  optional quality reports) for DQ-aware task planning.

Fleet-scale entry points (:meth:`Pipeline.run_many` over a dataset
collection, :meth:`Pipeline.run_ablations` with ``workers > 1``) execute on
:mod:`repro.parallel`: inputs travel to pool workers as pickled chunks (a
trajectory as its columnar ``xyt`` block), and the ``workers=1`` path
produces bit-identical outputs to any parallel schedule.  Stage functions
and probes must be picklable (module-level callables) for the parallel paths.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Generic, Iterable, Sequence, TypeVar

from ..obs import OBS

T = TypeVar("T")

#: Shared no-op context for disabled-observability paths (never allocated
#: per call; ``nullcontext`` is stateless and safely reentrant).
_NULL = nullcontext()


@dataclass(frozen=True)
class Stage(Generic[T]):
    """One DQ service: a name plus a pure transformation.

    ``fn`` must not mutate its input; all operators in this package follow
    that convention, so any of them can be lifted into a stage directly.
    """

    name: str
    fn: Callable[[T], T]

    def __call__(self, data: T) -> T:
        return self.fn(data)


@dataclass
class StageTrace:
    """Provenance of one stage execution.

    ``seconds`` is the stage transformation alone; ``probe_seconds`` is the
    cost of evaluating every quality probe on the stage's output.  Keeping
    the two separate is what lets :meth:`Pipeline.run_ablations` attribute
    cost to the DQ service rather than to the measurement harness.
    """

    name: str
    seconds: float
    metrics: dict[str, float] = field(default_factory=dict)
    probe_seconds: float = 0.0


@dataclass
class PipelineResult(Generic[T]):
    """Final output plus the ordered execution trace."""

    output: T
    trace: list[StageTrace]

    @property
    def total_seconds(self) -> float:
        """Total stage-transformation time (probe cost excluded)."""
        return sum(t.seconds for t in self.trace)

    @property
    def total_probe_seconds(self) -> float:
        """Total probe-evaluation time across all stages."""
        return sum(t.probe_seconds for t in self.trace)

    def metric_series(self, metric: str) -> list[tuple[str, float]]:
        """``(stage, value)`` pairs for one probe metric across stages."""
        return [(t.name, t.metrics[metric]) for t in self.trace if metric in t.metrics]


def _run_items_chunk(payload: tuple) -> list:
    """Worker: run a pipeline over a chunk of pickled datasets."""
    pipeline, items = payload
    return [pipeline.run(d) for d in items]


def _run_ablation_task(payload: tuple):
    """Worker: run one leave-one-out configuration."""
    pipeline, data = payload
    return pipeline.run(data)


class Pipeline(Generic[T]):
    """Ordered composition of DQ stages with optional quality probes.

    ``probes`` maps metric names to functions evaluated on the intermediate
    data after every stage, producing the quality trajectory through the
    pipeline — the information a DQ-aware task planner needs to decide which
    services are worth their cost.
    """

    def __init__(
        self,
        stages: Sequence[Stage[T]],
        probes: dict[str, Callable[[T], float]] | None = None,
    ) -> None:
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"stage names must be unique, got {names}")
        self._stages = list(stages)
        self._probes = dict(probes or {})

    @property
    def stage_names(self) -> list[str]:
        return [s.name for s in self._stages]

    def add_stage(self, stage: Stage[T]) -> "Pipeline[T]":
        """Return a new pipeline with ``stage`` appended."""
        return Pipeline(self._stages + [stage], self._probes)

    def run(self, data: T) -> PipelineResult[T]:
        """Execute all stages in order, recording provenance.

        With observability enabled (:func:`repro.obs.enable`), the run
        opens a ``pipeline.run`` span with one ``pipeline.stage`` child per
        stage and feeds each stage's transformation time into the
        ``repro_pipeline_stage_seconds{stage=...}`` histogram; when
        disabled the only extra cost is one attribute check.
        """
        obs_on = OBS.enabled
        trace: list[StageTrace] = []
        current = data
        with OBS.tracer.span("pipeline.run", stages=len(self._stages)) if obs_on else _NULL:
            for stage in self._stages:
                with OBS.tracer.span("pipeline.stage", stage=stage.name) if obs_on else _NULL:
                    start = time.perf_counter()
                    current = stage(current)
                    elapsed = time.perf_counter() - start
                if self._probes:
                    probe_start = time.perf_counter()
                    metrics = {name: float(probe(current)) for name, probe in self._probes.items()}
                    probe_elapsed = time.perf_counter() - probe_start
                else:
                    metrics, probe_elapsed = {}, 0.0
                if obs_on:
                    OBS.metrics.observe(
                        "repro_pipeline_stage_seconds", (("stage", stage.name),), elapsed
                    )
                trace.append(StageTrace(stage.name, elapsed, metrics, probe_seconds=probe_elapsed))
        if obs_on:
            OBS.metrics.inc("repro_pipeline_runs_total")
        return PipelineResult(current, trace)

    def run_many(
        self,
        datasets: Iterable[T],
        *,
        workers: int | None = None,
        chunk_size: int | None = None,
        executor: Any = None,
    ) -> list[PipelineResult[T]]:
        """Run the pipeline independently over a collection of datasets.

        Results come back in input order and match ``[self.run(d) for d in
        datasets]`` exactly, for every worker count.  Each chunk of
        datasets is pickled to its pool worker.
        """
        from ..parallel import chunk_spans, resolve_executor

        items = list(datasets)
        if not items:
            return []
        obs_on = OBS.enabled
        spans = chunk_spans(len(items), chunk_size)
        cm = (
            OBS.tracer.span("pipeline.run_many", datasets=len(items), chunks=len(spans))
            if obs_on
            else _NULL
        )
        with cm, resolve_executor(workers, executor) as ex:
            payloads = [(self, items[start:stop]) for start, stop in spans]
            chunks = ex.map_ordered(_run_items_chunk, payloads)
        if obs_on:
            OBS.metrics.inc("repro_pipeline_datasets_total", (), float(len(items)))
        return [result for chunk in chunks for result in chunk]

    def run_ablations(
        self,
        data: T,
        *,
        workers: int | None = None,
        executor: Any = None,
    ) -> dict[str, PipelineResult[T]]:
        """Run the pipeline once per leave-one-stage-out configuration.

        Returns a mapping from the omitted stage name to that run's result
        (plus key ``"full"`` for the complete pipeline) — the measurement a
        planner uses to attribute quality gains to individual DQ services.
        With ``workers > 1`` each configuration is one pool task, and
        outputs are identical to the serial run.
        """
        from ..parallel import resolve_executor

        configs: list[tuple[str, Pipeline[T]]] = [("full", self)]
        configs += [
            (skip, Pipeline([s for s in self._stages if s.name != skip], self._probes))
            for skip in self.stage_names
        ]
        cm = (
            OBS.tracer.span("pipeline.run_ablations", configs=len(configs))
            if OBS.enabled
            else _NULL
        )
        with cm, resolve_executor(workers, executor) as ex:
            payloads = [(p, data) for _, p in configs]
            outputs = ex.map_ordered(_run_ablation_task, payloads)
        return {name: result for (name, _), result in zip(configs, outputs)}
