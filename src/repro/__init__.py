"""repro — Spatial IoT data quality: management and exploitation.

A library-scale reproduction of the SIGMOD 2022 tutorial *Spatial Data
Quality in the IoT Era* (Li, Tang, Lu, Cheema, Jensen).  Sub-packages follow
the tutorial's taxonomy (Figure 2):

* :mod:`repro.core` — SID data model and DQ dimension metrics (Sec. 2.1),
* :mod:`repro.synth` — synthetic IoT worlds and quality-issue injectors,
* :mod:`repro.localization` — location refinement (Sec. 2.2.1),
* :mod:`repro.cleaning` — uncertainty elimination, outlier removal, fault
  correction (Sec. 2.2.2-2.2.4),
* :mod:`repro.integration` — semantic and non-semantic data integration
  (Sec. 2.2.5),
* :mod:`repro.reduction` — trajectory and STID reduction (Sec. 2.2.6),
* :mod:`repro.querying` — queries over low-quality SID (Sec. 2.3.1),
* :mod:`repro.analytics` — analyses on low-quality SID (Sec. 2.3.2),
* :mod:`repro.decision` — decision-making using low-quality SID (Sec. 2.3.3),
* :mod:`repro.ingest` — streaming ingestion with sharded quality gates and
  online DQ metrics (the Sec. 2.4 middleware, made live),
* :mod:`repro.kernels` — the vectorized compute core: columnar batch
  kernels backing every hot path above,
* :mod:`repro.parallel` — the fleet-scale execution layer: warm process
  pools behind a backend-agnostic ``Executor`` protocol,
* :mod:`repro.obs` — observability: tracing, metrics, and profiling hooks
  across the pipeline, ingest, parallel, and querying layers (off by
  default; a single guard check when disabled),
* :mod:`repro.serve` — the quality-aware serving layer: an asyncio query
  service with request coalescing, admission control, and an
  epoch-invalidated result cache over the partitioned store,
* :mod:`repro.qod` — per-sensor Quality-of-Data scoring (self checks,
  neighbor reference checks, deployment-status detectors) feeding
  quality-weighted kNN, aggregation, and interpolation.
"""

__version__ = "1.0.0"

from . import (
    analytics,
    cleaning,
    core,
    decision,
    indoor,
    ingest,
    integration,
    kernels,
    learning,
    localization,
    obs,
    parallel,
    qod,
    querying,
    reduction,
    serve,
    synth,
)

__all__ = [
    "analytics",
    "cleaning",
    "core",
    "decision",
    "indoor",
    "ingest",
    "integration",
    "kernels",
    "learning",
    "localization",
    "obs",
    "parallel",
    "qod",
    "querying",
    "reduction",
    "serve",
    "synth",
    "__version__",
]
