"""Serial-vs-parallel routing of one batch.

Pools pay only for whole-fleet work (:meth:`repro.core.Pipeline.run_many`
and its relatives), so routing is a pure function of the requested worker
count: a batch runs on a pool exactly when more than one worker was asked
for.  Chunk boundaries and per-item seeds never depend on the route
(:mod:`repro.parallel.chunking`), so the decision changes timings, never
results.
"""

from __future__ import annotations


def dispatch_decision(
    n_items: int | None, workers: int | None, start_method: str | None = None
) -> str:
    """``"parallel"`` when ``workers > 1``, else ``"serial"``.

    ``n_items`` and ``start_method`` are accepted so callers can describe
    the batch; neither changes the route.
    """
    return "parallel" if workers is not None and workers > 1 else "serial"
