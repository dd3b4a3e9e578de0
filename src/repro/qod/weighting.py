"""Score→weight mapping and quality-weighted exploitation primitives.

The paper's exploitation argument: low-quality data should be *used with
confidence weights*, not discarded.  This module turns composite QoD
scores into ``(0, 1]`` weights and provides the weighted counterparts of
the three exploitation primitives the benchmark measures —

* **weighted kNN ranking** lives in the store
  (:meth:`repro.querying.distributed.PartitionedStore.knn_many` with
  ``weighted=True``); :func:`point_weights` builds its per-point weight
  vector from per-sensor weights;
* **weighted aggregation** — :func:`weighted_mean`;
* **weighted interpolation** — :func:`weighted_idw_interpolate`, IDW
  whose kernel is multiplied by each source's quality weight.

Weights are deliberately capped at 1.0: the store's best-first kNN
pruning divides distances by weights, and ``w <= 1`` keeps every
partition lower bound valid (weighted distance ≥ raw distance ≥ box
bound), so weighted search stays exact.
"""

from __future__ import annotations

from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from ..core.geometry import Point
from ..core.stid import STRecord
from .checks import QodScore
from .config import resolve_weight_floor, resolve_weight_power

#: Points per C-level gather in :func:`point_weights` (about 0.3 ms each).
_GATHER_CHUNK = 4096


def quality_weights(
    scores: Mapping[str, QodScore] | Mapping[str, float],
    floor: float | None = None,
    power: float | None = None,
) -> dict[str, float]:
    """Map composite scores to ``(0, 1]`` weights: ``floor + (1-floor)·s^p``.

    ``power`` sharpens the separation (the default 2.0 halves the weight
    of a 0.7-score sensor relative to linear); ``floor`` keeps even a
    zero-score sensor minimally represented so coverage never collapses
    to zero in a region where every sensor is bad.  Both default through
    the ``REPRO_QOD_*`` environment resolvers.
    """
    f = resolve_weight_floor(floor)
    p = resolve_weight_power(power)
    if not 0.0 < f <= 1.0:
        raise ValueError("floor must lie in (0, 1]")
    out: dict[str, float] = {}
    for sensor_id, score in scores.items():
        s = score.composite if isinstance(score, QodScore) else float(score)
        s = min(1.0, max(0.0, s))
        out[sensor_id] = f + (1.0 - f) * s**p
    return out


def point_weights(
    sources: Sequence[str],
    weights: Mapping[str, float],
    default: float = 1.0,
) -> np.ndarray:
    """Per-point weight vector for a store whose point ``i`` came from
    ``sources[i]``.

    Unknown sources get ``default`` (a sensor the registry has not seen
    is trusted until evidence arrives) — the same convention the store
    applies to points appended after ``set_quality_weights``.

    The lookups run in C, in chunks of 4096 points: one call over a whole
    large store would hold the GIL for milliseconds, stalling every other
    thread (the ingest writer) until it returns.
    """
    n = len(sources)
    out = np.empty(n, dtype=float)
    values = map(weights.get, sources, repeat(default))
    for start in range(0, n, _GATHER_CHUNK):
        count = min(_GATHER_CHUNK, n - start)
        out[start : start + count] = np.fromiter(values, dtype=float, count=count)
    return out


def weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    """Quality-weighted aggregation of one region's readings."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.shape != w.shape:
        raise ValueError("values and weights must align")
    if v.size == 0:
        raise ValueError("cannot aggregate zero readings")
    total = float(w.sum())
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    return float((v * w).sum() / total)


def weighted_idw_interpolate(
    records: list[STRecord],
    where: Point,
    when: float,
    source_weights: Mapping[str, float],
    power: float = 2.0,
    time_scale: float = 1.0,
    k: int | None = 12,
    default_weight: float = 1.0,
) -> float:
    """Quality-weighted inverse-distance interpolation at ``(where, when)``.

    Mirrors :func:`repro.cleaning.interpolation.idw_interpolate` — same
    anisotropic space-time metric, same ``k``-nearest restriction, same
    exact-hit short-circuit — but each record's IDW kernel is multiplied
    by its source's quality weight, so a stuck or drifting sensor pulls
    the estimate far less than an equally-near healthy one.  With all
    weights equal it reduces to plain IDW exactly.
    """
    if not records:
        raise ValueError("no records to interpolate from")
    xs = np.array([r.x for r in records])
    ys = np.array([r.y for r in records])
    ts = np.array([r.t for r in records])
    vs = np.array([r.value for r in records])
    qw = np.array(
        [float(source_weights.get(r.source, default_weight)) for r in records]
    )
    if np.any(qw <= 0):
        raise ValueError("source weights must be positive")
    d = np.sqrt(
        (xs - where.x) ** 2 + (ys - where.y) ** 2 + ((ts - when) * time_scale) ** 2
    )
    if k is not None and k < len(records):
        idx = np.argpartition(d, k)[:k]
        d, vs, qw = d[idx], vs[idx], qw[idx]
    exact = d < 1e-9
    if exact.any():
        # Among exact hits, trust the heaviest source (first on ties,
        # matching the unweighted short-circuit when weights are equal).
        hit_w = np.where(exact, qw, -np.inf)
        return float(vs[int(np.argmax(hit_w))])
    w = qw / d**power
    return float((w * vs).sum() / w.sum())
