"""Trajectory similarity measures and search (Sec. 2.3.1, [111, 119]).

Distributed trajectory similarity search rests on (a) similarity measures
robust to the sampling and noise artifacts of SID and (b) cheap lower
bounds that prune candidates before the expensive measure runs.  Provided:

* :func:`dtw_distance` — dynamic time warping (handles rate differences),
* :func:`hausdorff_distance` — shape distance (ignores time),
* :func:`edr_distance` — edit distance on real sequences (robust to
  outliers via the match threshold),
* :func:`bbox_lower_bound` — a metric lower bound on Hausdorff from the
  trajectories' bounding boxes,
* :func:`pairwise_distances` — the full symmetric distance matrix over a
  fleet, one in-process pass over the upper-triangle pairs,
* :class:`SimilaritySearch` — k-most-similar search with lower-bound
  pruning, reporting how much work pruning saved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import kernels
from ..core.trajectory import Trajectory


def _coords(traj: Trajectory) -> np.ndarray:
    if len(traj) == 0:
        return np.zeros((0, 2))
    return traj.as_xyt()[:, :2]


def dtw_distance(a: Trajectory, b: Trajectory, band: int | None = None) -> float:
    """Dynamic time warping with optional Sakoe-Chiba band (cells).

    The pairwise cost matrix is one batched kernel call; only the
    inherently sequential DP recurrence stays in Python.
    """
    pa, pb = _coords(a), _coords(b)
    n, m = len(pa), len(pb)
    if n == 0 or m == 0:
        raise ValueError("empty trajectory")
    cost = kernels.cross_dists(pa, pb)
    inf = math.inf
    dp = np.full((n + 1, m + 1), inf)
    dp[0, 0] = 0.0
    for i in range(1, n + 1):
        lo, hi = 1, m
        if band is not None:
            center = int(round(i * m / n))
            lo, hi = max(1, center - band), min(m, center + band)
        row = cost[i - 1]
        for j in range(lo, hi + 1):
            dp[i, j] = row[j - 1] + min(dp[i - 1, j], dp[i, j - 1], dp[i - 1, j - 1])
    return float(dp[n, m])


def hausdorff_distance(a: Trajectory, b: Trajectory) -> float:
    """Symmetric Hausdorff distance between the two point sets."""
    pa, pb = _coords(a), _coords(b)
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError("empty trajectory")
    d = kernels.cross_dists(pa, pb)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def edr_distance(a: Trajectory, b: Trajectory, epsilon: float) -> float:
    """Edit Distance on Real sequences, normalized to [0, 1].

    Two samples match when within ``epsilon``; insert/delete/substitute
    each cost 1.  Robust to outlier samples (they cost at most one edit).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    pa, pb = _coords(a), _coords(b)
    n, m = len(pa), len(pb)
    if n == 0 or m == 0:
        raise ValueError("empty trajectory")
    sub_cost = (kernels.cross_dists(pa, pb) > epsilon).astype(float)
    dp = np.zeros((n + 1, m + 1))
    dp[:, 0] = np.arange(n + 1)
    dp[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        row = sub_cost[i - 1]
        for j in range(1, m + 1):
            dp[i, j] = min(
                dp[i - 1, j - 1] + row[j - 1],
                dp[i - 1, j] + 1,
                dp[i, j - 1] + 1,
            )
    return float(dp[n, m]) / max(n, m)


def frechet_distance(a: Trajectory, b: Trajectory) -> float:
    """Discrete Fréchet distance (the "dog-leash" measure).

    Order-aware like DTW but max-based instead of sum-based: the smallest
    leash length letting both endpoints traverse their curves monotonically.
    """
    pa, pb = _coords(a), _coords(b)
    n, m = len(pa), len(pb)
    if n == 0 or m == 0:
        raise ValueError("empty trajectory")
    d = kernels.cross_dists(pa, pb)
    dp = np.full((n, m), math.inf)
    dp[0, 0] = d[0, 0]
    for i in range(n):
        for j in range(m):
            if i == 0 and j == 0:
                continue
            best_prev = math.inf
            if i > 0:
                best_prev = min(best_prev, dp[i - 1, j])
            if j > 0:
                best_prev = min(best_prev, dp[i, j - 1])
            if i > 0 and j > 0:
                best_prev = min(best_prev, dp[i - 1, j - 1])
            dp[i, j] = max(best_prev, d[i, j])
    return float(dp[n - 1, m - 1])


def bbox_lower_bound(a: Trajectory, b: Trajectory) -> float:
    """A cheap lower bound on the Hausdorff distance.

    If the two bounding boxes are separated by gap ``g``, every point of
    one trajectory is at least ``g`` from every point of the other, so
    Hausdorff >= g.  Overlapping boxes bound nothing (returns 0).
    """
    ba, bb = a.bbox(), b.bbox()
    dx = max(bb.min_x - ba.max_x, ba.min_x - bb.max_x, 0.0)
    dy = max(bb.min_y - ba.max_y, ba.min_y - bb.max_y, 0.0)
    return math.hypot(dx, dy)


#: Pairwise measures usable by :func:`pairwise_distances`.  Each maps
#: ``(a, b, **kwargs) -> float`` and is symmetric in its arguments.
PAIRWISE_METRICS = {
    "hausdorff": hausdorff_distance,
    "dtw": dtw_distance,
    "edr": edr_distance,
    "frechet": frechet_distance,
}


def pairwise_distances(
    trajectories: Sequence[Trajectory], metric: str = "hausdorff", **metric_kwargs
) -> np.ndarray:
    """Symmetric ``(n, n)`` distance matrix over a trajectory fleet.

    Each upper-triangle pair ``(i, j)``, ``i < j``, is measured once in
    row-major order and mirrored.  ``metric`` is a key of
    :data:`PAIRWISE_METRICS`; measure-specific arguments (e.g. ``epsilon``
    for ``"edr"``, ``band`` for ``"dtw"``) pass through as keyword
    arguments.
    """
    if metric not in PAIRWISE_METRICS:
        raise ValueError(f"unknown metric {metric!r}; options: {sorted(PAIRWISE_METRICS)}")
    fn = PAIRWISE_METRICS[metric]
    trajs = list(trajectories)
    n = len(trajs)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = float(fn(trajs[i], trajs[j], **metric_kwargs))
    return out


@dataclass
class SearchStats:
    """Work accounting for a pruned similarity search."""

    candidates: int = 0
    pruned: int = 0
    refined: int = 0

    @property
    def pruning_ratio(self) -> float:
        return self.pruned / self.candidates if self.candidates else 0.0


class SimilaritySearch:
    """k-most-similar search under Hausdorff with bbox lower-bound pruning.

    Corpus bounding boxes are columnarized once at construction, so the
    per-query lower bounds are one vectorized gap computation instead of a
    per-candidate Python loop.
    """

    def __init__(self, corpus: list[Trajectory]) -> None:
        if not corpus:
            raise ValueError("empty corpus")
        self.corpus = corpus
        self._boxes = np.array(
            [
                (bb.min_x, bb.min_y, bb.max_x, bb.max_y)
                for bb in (t.bbox() for t in corpus)
            ],
            dtype=float,
        )

    def knn(self, query: Trajectory, k: int) -> tuple[list[int], SearchStats]:
        """Indices of the k nearest corpus trajectories, plus work stats.

        Candidates are visited in ascending lower-bound order; once k exact
        distances are known, any candidate whose lower bound exceeds the
        current k-th distance is pruned without refinement.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        stats = SearchStats(candidates=len(self.corpus))
        lbs = kernels.box_gap_dists(query.bbox(), self._boxes)
        bounds = sorted(zip(lbs.tolist(), range(len(self.corpus))))
        results: list[tuple[float, int]] = []
        kth = math.inf
        for lb, i in bounds:
            if len(results) >= k and lb > kth:
                stats.pruned += 1
                continue
            stats.refined += 1
            d = hausdorff_distance(query, self.corpus[i])
            results.append((d, i))
            results.sort()
            if len(results) >= k:
                kth = results[k - 1][0]
        return [i for _, i in results[:k]], stats

    def knn_brute_force(self, query: Trajectory, k: int) -> list[int]:
        """Exact k nearest without pruning (validation baseline)."""
        ranked = sorted(
            range(len(self.corpus)),
            key=lambda i: hausdorff_distance(query, self.corpus[i]),
        )
        return ranked[:k]
