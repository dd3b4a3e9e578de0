"""Batch distance kernels: point-set, pairwise, box-bound, and spherical.

Each function is a single NumPy reduction over columnar inputs (see
:mod:`repro.kernels.columnar`) and is equivalence-tested against the scalar
reference implementations in :mod:`repro.kernels.reference`.
"""

from __future__ import annotations

import numpy as np

from .columnar import center_of

EARTH_RADIUS_M = 6_371_000.0


# Below this distance the squares start losing precision to subnormal
# underflow, so the slow-but-safe hypot path takes over (see _sqrt_sum_sq).
_UNDERFLOW_DIST = 1e-150


def _sqrt_sum_sq(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``sqrt(dx^2 + dy^2)``, falling back to ``hypot`` near underflow.

    Every distance kernel shares this one formula so that batched and
    single-query paths agree bit-for-bit.  ``np.hypot`` is immune to
    intermediate under/overflow but its per-element libm call is an order
    of magnitude slower than the fused form, so the kernel squares
    directly and repairs the only regime where that loses accuracy:
    components so small their squares go subnormal (distances below
    ``1e-150``), which the slow path recomputes exactly.
    """
    d = dx * dx
    d += dy * dy
    np.sqrt(d, out=d)
    tiny = d < _UNDERFLOW_DIST
    if tiny.any():
        tiny &= (dx != 0.0) | (dy != 0.0)
        d[tiny] = np.hypot(dx[tiny], dy[tiny])
    return d


def dists_to(coords: np.ndarray, center) -> np.ndarray:
    """Euclidean distances ``(n,)`` from every row of ``coords`` to ``center``."""
    c = center_of(center)
    if coords.shape[0] == 0:
        return np.zeros(0)
    return _sqrt_sum_sq(coords[:, 0] - c[0], coords[:, 1] - c[1])


def cross_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full ``(n, m)`` Euclidean distance matrix between two point sets."""
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    return _sqrt_sum_sq(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])


def paired_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``(n,)`` Euclidean distances between ``a[i]`` and ``b[i]``.

    Row ``i`` is bit-identical to ``dists_to(a[i:i+1], b[i])``: the same
    ``a - b`` differences through the same fused formula.
    """
    if a.shape[0] == 0:
        return np.zeros(0)
    return _sqrt_sum_sq(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])


def range_mask(coords: np.ndarray, center, radius: float) -> np.ndarray:
    """Boolean ``(n,)`` mask of rows within ``radius`` of ``center``."""
    return dists_to(coords, center) <= radius


def range_masks(coords: np.ndarray, centers: np.ndarray, radii) -> np.ndarray:
    """Boolean ``(m, n)`` masks for ``m`` disk queries in one reduction.

    ``radii`` may be a scalar (shared radius) or an ``(m,)`` array.
    """
    d = cross_dists(centers, coords)
    r = np.asarray(radii, dtype=float)
    if r.ndim == 0:
        return d <= r
    return d <= r[:, None]


def knn_select(dists: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Ids of the ``k`` smallest distances under the ``(distance, id)`` rule.

    Equal distances are broken by ascending id, making results fully
    deterministic (the tie rule every index in :mod:`repro.querying`
    follows).  Returns all ids ranked when ``k >= n``.
    """
    n = dists.shape[0]
    if k <= 0 or n == 0:
        return np.zeros(0, dtype=np.int64)
    if k < n:
        # Cheap O(n) cut to ~k candidates, then exact ordering of the cut.
        # argpartition's boundary is arbitrary among ties, so keep every
        # candidate whose distance ties the k-th before ranking.
        part = np.argpartition(dists, k - 1)
        kth = dists[part[k - 1]]
        cand = np.flatnonzero(dists <= kth)
    else:
        cand = np.arange(n)
    order = np.lexsort((ids[cand], dists[cand]))
    return ids[cand[order]][:k]


def knn_select_many(
    coords: np.ndarray, ids: np.ndarray, centers: np.ndarray, k: int
) -> list[np.ndarray]:
    """Per-center kNN ids over one shared point set (``(distance, id)`` rule)."""
    d = cross_dists(centers, coords)
    return [knn_select(d[i], ids, k) for i in range(centers.shape[0])]


def chunked_range_hits(chunks, centers: np.ndarray, radii) -> list[np.ndarray]:
    """Per-query ids within radius over a chunked point set (merged scan).

    ``chunks`` is a sequence of ``(coords, ids)`` pairs — e.g. a store
    partition's packed base columns followed by its delta tail — and each
    of the ``m`` queries gets back the matching ids in chunk order, then
    row order within each chunk: exactly what one scan over the
    concatenated arrays would return, without materializing the
    concatenation.  ``radii`` is a scalar or an ``(m,)`` array.
    """
    m = centers.shape[0]
    r = np.asarray(radii, dtype=float)
    parts: list[list[np.ndarray]] = [[] for _ in range(m)]
    for coords, ids in chunks:
        if coords.shape[0] == 0:
            continue
        masks = range_masks(coords, centers, r)
        for qi in range(m):
            parts[qi].append(ids[masks[qi]])
    empty = np.zeros(0, dtype=np.int64)
    return [np.concatenate(p) if p else empty for p in parts]


def box_min_dists(boxes: np.ndarray, center) -> np.ndarray:
    """Min distance from ``center`` to each box row ``(min_x, min_y, max_x, max_y)``."""
    c = center_of(center)
    if boxes.shape[0] == 0:
        return np.zeros(0)
    dx = np.maximum(np.maximum(boxes[:, 0] - c[0], c[0] - boxes[:, 2]), 0.0)
    dy = np.maximum(np.maximum(boxes[:, 1] - c[1], c[1] - boxes[:, 3]), 0.0)
    return np.hypot(dx, dy)


def box_min_dists_many(boxes: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``(m, n)`` min distances from each of ``m`` centers to each box row.

    Row ``q`` is elementwise identical to ``box_min_dists(boxes, centers[q])``
    (same operations per element), so one broadcast replaces a per-query
    loop without moving any pruning decision.
    """
    c = np.asarray(centers, dtype=float).reshape(-1, 2)
    if boxes.shape[0] == 0 or c.shape[0] == 0:
        return np.zeros((c.shape[0], boxes.shape[0]))
    cx, cy = c[:, 0:1], c[:, 1:2]
    dx = np.maximum(np.maximum(boxes[None, :, 0] - cx, cx - boxes[None, :, 2]), 0.0)
    dy = np.maximum(np.maximum(boxes[None, :, 1] - cy, cy - boxes[None, :, 3]), 0.0)
    return np.hypot(dx, dy)


def box_max_dists(boxes: np.ndarray, center) -> np.ndarray:
    """Max distance from ``center`` to any point of each box row."""
    c = center_of(center)
    if boxes.shape[0] == 0:
        return np.zeros(0)
    dx = np.maximum(np.abs(c[0] - boxes[:, 0]), np.abs(c[0] - boxes[:, 2]))
    dy = np.maximum(np.abs(c[1] - boxes[:, 1]), np.abs(c[1] - boxes[:, 3]))
    return np.hypot(dx, dy)


def box_gap_dists(query_box, boxes: np.ndarray) -> np.ndarray:
    """Separation gap between one box and each box row (0 when overlapping).

    ``query_box`` is anything exposing ``min_x/min_y/max_x/max_y``;
    ``boxes`` is ``(n, 4)`` rows of ``min_x, min_y, max_x, max_y``.  The gap
    is a lower bound on the distance between any two points drawn from the
    respective boxes — the pruning bound used by trajectory similarity
    search.
    """
    if boxes.shape[0] == 0:
        return np.zeros(0)
    dx = np.maximum(
        np.maximum(boxes[:, 0] - query_box.max_x, query_box.min_x - boxes[:, 2]), 0.0
    )
    dy = np.maximum(
        np.maximum(boxes[:, 1] - query_box.max_y, query_box.min_y - boxes[:, 3]), 0.0
    )
    return np.hypot(dx, dy)


def haversine_m_many(lon1, lat1, lon2, lat2) -> np.ndarray:
    """Vectorized great-circle distance in meters (degrees in, broadcast out)."""
    phi1, phi2 = np.radians(np.asarray(lat1, float)), np.radians(np.asarray(lat2, float))
    dphi = phi2 - phi1
    dlmb = np.radians(np.asarray(lon2, float) - np.asarray(lon1, float))
    h = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlmb / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))
