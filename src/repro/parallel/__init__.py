"""Fleet-scale parallel execution layer (the Sec. 2.3-2.4 scale-out seam).

:mod:`repro.kernels` vectorizes single-trajectory hot paths; this package
runs the *fleet-level* workloads — pipeline collections and ablation
grids — on all cores:

* :mod:`~repro.parallel.executor` — the :class:`Executor` protocol with
  :class:`SerialExecutor` / :class:`ProcessExecutor` backends and the
  deterministic :func:`map_chunks` API,
* :mod:`~repro.parallel.pool` — the process-wide
  :class:`WorkerPoolManager`: one warm, prewarmed, health-checked pool per
  ``(workers, start_method)`` key, leased to consumers through
  :func:`get_executor` and torn down by :func:`shutdown_all` (``atexit``),
* :mod:`~repro.parallel.dispatch` — :func:`dispatch_decision`, the route
  one batch takes (a pool exactly when more than one worker is asked for),
* :mod:`~repro.parallel.chunking` — worker-count-independent chunk spans
  and stable per-item seed derivation.

Work crosses the process boundary as ordinary pickled chunks; a
:class:`~repro.core.Trajectory` pickles as its ``(n, 3)`` xyt block.

Consumers: :meth:`repro.core.Pipeline.run_many` /
:meth:`~repro.core.Pipeline.run_ablations` and the Table-1 grid runner
(``benchmarks/table1_grid.py``).  Every consumer's ``workers=1`` path is
bit-identical to its parallel path (``tests/test_parallel.py``).  Batched
store queries, the serving layer and pairwise similarity run in-process:
their batches cost less than a pool round-trip.
"""

from .chunking import chunk_spans, derive_seed, derive_seeds
from .dispatch import dispatch_decision
from .executor import (
    START_METHOD_ENV,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    default_start_method,
    get_executor,
    map_chunks,
    resolve_executor,
    usable_cpus,
)
from .pool import PoolLease, PoolStats, WorkerPoolManager, get_pool_manager, shutdown_all

__all__ = [
    "chunk_spans",
    "derive_seed",
    "derive_seeds",
    "dispatch_decision",
    "START_METHOD_ENV",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "default_start_method",
    "get_executor",
    "map_chunks",
    "resolve_executor",
    "usable_cpus",
    "PoolLease",
    "PoolStats",
    "WorkerPoolManager",
    "get_pool_manager",
    "shutdown_all",
]
