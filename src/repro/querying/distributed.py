"""Distributed query processing over skewed SID (Sec. 2.3.1, [93, 104, 111]).

Simulates the partition-and-route layer of a distributed spatial store:

* :func:`grid_partition` — static uniform tiling (ignores skew),
* :func:`kd_partition` — recursive median splits (SATO-style [104],
  adapts to skew),
* :func:`load_imbalance` — max/mean partition load, the quantity
  data-partitioning work minimizes,
* :class:`PartitionedStore` — routes range and kNN queries to the
  partitions that can contribute and counts partitions touched (the
  communication proxy).

The store's scan layer is columnar (the PR-2 batched kernels) and
two-tiered, LSM-style: each partition's construction-time points live in
contiguous base coordinate/index arrays, later
:meth:`~PartitionedStore.append_many` points land in per-partition
columnar *delta tails* that every query merges on the fly (no rebuild),
and :meth:`~PartitionedStore.compact` folds tails back into packed base
columns partition by partition.  Batch queries
(:meth:`PartitionedStore.range_query_many` /
:meth:`~PartitionedStore.knn_many`) route the whole batch in one
vectorized pass over one read snapshot, in-process: a batch of hundreds
of queries costs milliseconds, less than shipping it to a worker pool.
Routing decisions, result order, and the partitions-touched accounting
(the SATO-style [104] communication proxy) are identical at every
compaction state.

The measurable claim: on skewed data, median partitioning yields near-1
imbalance while uniform tiling degrades — "node load-balancing and data
partitioning have been studied [for] queries over skewed SID".
"""

from __future__ import annotations

import os
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .. import kernels
from ..core.geometry import BBox, Point, boxes_containing
from ..obs import OBS
from ..obs.clock import MonotonicClock

#: Shared no-op context for disabled-observability paths.
_NULL = nullcontext()


@dataclass(frozen=True)
class Partition:
    """One shard: its spatial extent and the points assigned to it."""

    bbox: BBox
    point_indices: tuple[int, ...]

    @property
    def load(self) -> int:
        return len(self.point_indices)


def grid_partition(points: list[Point], region: BBox, n_cells_per_side: int) -> list[Partition]:
    """Uniform n x n tiling of the region."""
    if n_cells_per_side < 1:
        raise ValueError("need at least one cell per side")
    n = n_cells_per_side
    w, h = region.width / n, region.height / n
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(points):
        xi = min(n - 1, max(0, int((p.x - region.min_x) / w)))
        yi = min(n - 1, max(0, int((p.y - region.min_y) / h)))
        buckets.setdefault((xi, yi), []).append(i)
    parts = []
    for yi in range(n):
        for xi in range(n):
            bbox = BBox(
                region.min_x + xi * w,
                region.min_y + yi * h,
                region.min_x + (xi + 1) * w,
                region.min_y + (yi + 1) * h,
            )
            parts.append(Partition(bbox, tuple(buckets.get((xi, yi), []))))
    return parts


def kd_partition(points: list[Point], region: BBox, n_partitions: int) -> list[Partition]:
    """Recursive median splitting into ``n_partitions`` (power of 2 rounded up)."""
    if n_partitions < 1:
        raise ValueError("need at least one partition")
    idx = list(range(len(points)))

    def split(indices: list[int], bbox: BBox, parts_left: int, depth: int) -> list[Partition]:
        if parts_left <= 1 or len(indices) <= 1:
            return [Partition(bbox, tuple(indices))]
        by_x = depth % 2 == 0
        vals = np.array([points[i].x if by_x else points[i].y for i in indices])
        median = float(np.median(vals))
        left = [i for i in indices if (points[i].x if by_x else points[i].y) <= median]
        right = [i for i in indices if (points[i].x if by_x else points[i].y) > median]
        if not left or not right:
            return [Partition(bbox, tuple(indices))]
        if by_x:
            b_left = BBox(bbox.min_x, bbox.min_y, median, bbox.max_y)
            b_right = BBox(median, bbox.min_y, bbox.max_x, bbox.max_y)
        else:
            b_left = BBox(bbox.min_x, bbox.min_y, bbox.max_x, median)
            b_right = BBox(bbox.min_x, median, bbox.max_x, bbox.max_y)
        half = parts_left // 2
        return split(left, b_left, parts_left - half, depth + 1) + split(
            right, b_right, half, depth + 1
        )

    return split(idx, region, n_partitions, 0)


def load_imbalance(partitions: list[Partition]) -> float:
    """Max load / mean load (1.0 = perfectly balanced)."""
    loads = [p.load for p in partitions]
    mean = float(np.mean(loads)) if loads else 0.0
    if mean == 0.0:
        return float("inf") if any(loads) else 1.0
    return max(loads) / mean


def skewed_points(
    rng: np.random.Generator,
    n_points: int,
    region: BBox,
    n_hotspots: int = 3,
    hotspot_sigma: float = 50.0,
    hotspot_fraction: float = 0.8,
) -> list[Point]:
    """Skewed workload: most points cluster in a few Gaussian hotspots."""
    centers = [
        (
            rng.uniform(region.min_x, region.max_x),
            rng.uniform(region.min_y, region.max_y),
        )
        for _ in range(n_hotspots)
    ]
    out = []
    for _ in range(n_points):
        if rng.random() < hotspot_fraction:
            cx, cy = centers[int(rng.integers(n_hotspots))]
            x = float(np.clip(rng.normal(cx, hotspot_sigma), region.min_x, region.max_x))
            y = float(np.clip(rng.normal(cy, hotspot_sigma), region.min_y, region.max_y))
        else:
            x = rng.uniform(region.min_x, region.max_x)
            y = rng.uniform(region.min_y, region.max_y)
        out.append(Point(x, y))
    return out


class _ColumnarView:
    """One consistent read snapshot of the two-tier columns.

    ``coords_chunks[p]`` / ``index_chunks[p]`` list partition ``p``'s
    column chunks in scan order — packed base first, then the delta tail —
    so routing scans merge both tiers without materializing their
    concatenation.  ``boxes`` are the *scan* boxes (each partition's static
    bbox grown to cover every member point), which keeps bbox pruning
    sound for points routed to a partition from outside its static extent.

    Taken under the tier lock, it holds the base arrays by reference (they
    are replaced, never mutated) and zero-copy prefixes of the delta
    buffers (rows below the published size are never rewritten), so a
    snapshot stays valid while appends and compactions continue.
    """

    __slots__ = ("boxes", "coords_chunks", "index_chunks", "part_sizes")

    def __init__(
        self,
        boxes: np.ndarray,
        coords_chunks: list[list[np.ndarray]],
        index_chunks: list[list[np.ndarray]],
    ) -> None:
        self.boxes = boxes
        self.coords_chunks = coords_chunks
        self.index_chunks = index_chunks
        self.part_sizes = [sum(c.shape[0] for c in cc) for cc in coords_chunks]

    @property
    def n_partitions(self) -> int:
        return self.boxes.shape[0]

    def merged_index(self, p: int) -> np.ndarray:
        """Partition ``p``'s point ids across its chunks, in scan order."""
        chunks = self.index_chunks[p]
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


#: Initial per-partition delta buffer rows; buffers double beyond this.
_DELTA_MIN_CAPACITY = 64

_EMPTY_COORDS = np.zeros((0, 2))
_EMPTY_INDEX = np.zeros(0, dtype=np.int64)


class _TwoTierColumns:
    """The store's mutable column state: packed base tier + delta tails.

    Base tier: per-partition contiguous ``coords``/``index`` arrays,
    immutable between compactions (and therefore safe to hold in a
    snapshot).  Delta tier: one amortized-growth columnar tail per partition
    that :meth:`append` / :meth:`append_one` fill and :meth:`compact_one`
    folds into the base.
    All mutation happens under one lock; :meth:`snapshot` captures a
    consistent read view cheaply, so queries never block on ingest for
    longer than one bucketed append or one partition's fold.
    """

    def __init__(self, points: list[Point], partitions: list[Partition]) -> None:
        self._lock = threading.Lock()
        self.points = points
        n = len(partitions)
        self.static_boxes = np.array(
            [(p.bbox.min_x, p.bbox.min_y, p.bbox.max_x, p.bbox.max_y) for p in partitions],
            dtype=float,
        ).reshape(n, 4)
        self._box_tuples = [tuple(row) for row in self.static_boxes.tolist()]
        self.scan_boxes = self.static_boxes.copy()
        self.base_coords: list[np.ndarray] = []
        self.base_index: list[np.ndarray] = []
        for p, part in enumerate(partitions):
            index = np.fromiter(
                part.point_indices, dtype=np.int64, count=len(part.point_indices)
            )
            coords = kernels.coords_of([points[i] for i in part.point_indices])
            self.base_coords.append(coords)
            self.base_index.append(index)
            if coords.shape[0]:
                self._grow_scan_box(p, coords)
        self.delta_coords: list[np.ndarray] = [_EMPTY_COORDS] * n
        self.delta_index: list[np.ndarray] = [_EMPTY_INDEX] * n
        self.delta_sizes: list[int] = [0] * n
        self.appended_total = 0
        self._snapshot: _ColumnarView | None = None

    @property
    def n_partitions(self) -> int:
        return self.static_boxes.shape[0]

    def _grow_scan_box(self, p: int, coords: np.ndarray) -> None:
        box = self.scan_boxes[p]
        box[0] = min(box[0], float(coords[:, 0].min()))
        box[1] = min(box[1], float(coords[:, 1].min()))
        box[2] = max(box[2], float(coords[:, 0].max()))
        box[3] = max(box[3], float(coords[:, 1].max()))

    def _route_coords(self, coords: np.ndarray) -> np.ndarray:
        """Home partition per row: minimum static-box distance, lowest id on ties.

        A contained point has distance 0 to every box holding it, so one
        argmin covers both cases — lowest containing partition when inside,
        nearest partition when outside every static box.
        """
        b = self.static_boxes
        x = coords[:, 0][:, None]
        y = coords[:, 1][:, None]
        dx = np.maximum(np.maximum(b[None, :, 0] - x, x - b[None, :, 2]), 0.0)
        dy = np.maximum(np.maximum(b[None, :, 1] - y, y - b[None, :, 3]), 0.0)
        return np.argmin(np.hypot(dx, dy), axis=1)

    def append(self, new_points: list[Point]) -> list[int]:
        """Route and append points to their delta tails; returns global ids."""
        coords = kernels.coords_of(new_points)
        with self._lock:
            homes = self._route_coords(coords)
            start = self._extend_points(new_points)
            order = np.argsort(homes, kind="stable")  # stable: admit order kept per partition
            sorted_homes = homes[order]
            cuts = np.flatnonzero(np.diff(sorted_homes)) + 1
            for group in np.split(order, cuts):
                p = int(homes[group[0]])
                rows = coords[group]
                size = self.delta_sizes[p]
                self._reserve(p, size + group.shape[0])
                self.delta_coords[p][size : size + group.shape[0]] = rows
                self.delta_index[p][size : size + group.shape[0]] = start + group
                self.delta_sizes[p] = size + group.shape[0]
                self._grow_scan_box(p, rows)
            self.appended_total += len(new_points)
            self._snapshot = None
            return list(range(start, start + len(new_points)))

    def append_one(self, point: Point) -> int:
        """Route and append one point as one delta row; returns its global id.

        A point inside a static box goes to the lowest such box by a scalar
        scan, and its scan box (a superset of the static one) already
        covers it.  Any other point takes :meth:`_route_coords`, so the
        home partition always equals :meth:`append`'s.
        """
        x, y = point.x, point.y
        inside = boxes_containing(self._box_tuples, x, y)
        with self._lock:
            start = self._extend_points((point,))
            if inside:
                p = inside[0]
            else:
                p = int(self._route_coords(np.array([[x, y]], dtype=float))[0])
                box = self.scan_boxes[p]
                box[0], box[1] = min(box[0], x), min(box[1], y)
                box[2], box[3] = max(box[2], x), max(box[3], y)
            size = self.delta_sizes[p]
            self._reserve(p, size + 1)
            self.delta_coords[p][size] = (x, y)
            self.delta_index[p][size] = start
            self.delta_sizes[p] = size + 1
            self.appended_total += 1
            self._snapshot = None
            return start

    def _extend_points(self, new_points: Sequence[Point]) -> int:
        """Add points to the store's list (caller holds the lock); first new id."""
        start = len(self.points)
        self.points.extend(new_points)  # reprolint: disable=R7 — the delta tier is the sanctioned append seam
        return start

    def _reserve(self, p: int, need: int) -> None:
        """Grow partition ``p``'s delta buffers to hold ``need`` rows.

        Filled rows are copied into the fresh buffers *before* they are
        published, so a snapshot slice taken at any point keeps reading
        rows that are never rewritten.
        """
        capacity = self.delta_coords[p].shape[0]
        if capacity >= need:
            return
        new_cap = max(_DELTA_MIN_CAPACITY, capacity)
        while new_cap < need:
            new_cap *= 2
        size = self.delta_sizes[p]
        coords = np.empty((new_cap, 2))
        coords[:size] = self.delta_coords[p][:size]
        index = np.empty(new_cap, dtype=np.int64)
        index[:size] = self.delta_index[p][:size]
        self.delta_coords[p] = coords
        self.delta_index[p] = index

    def compact_one(self, p: int) -> int:
        """Fold partition ``p``'s delta tail into its packed base columns.

        The pause is bounded by one partition's size: the lock is held for
        a single concat/copy, the delta buffer resets to empty, and the new
        base arrays are fresh objects (snapshots holding the old ones stay
        valid).  Returns the number of rows folded.
        """
        with self._lock:
            size = self.delta_sizes[p]
            if size == 0:
                return 0
            self.base_coords[p] = np.concatenate(
                [self.base_coords[p], self.delta_coords[p][:size]]
            )
            self.base_index[p] = np.concatenate(
                [self.base_index[p], self.delta_index[p][:size]]
            )
            self.delta_coords[p] = _EMPTY_COORDS
            self.delta_index[p] = _EMPTY_INDEX
            self.delta_sizes[p] = 0
            self._snapshot = None
            return size

    def snapshot(self) -> _ColumnarView:
        """Consistent read snapshot, cached until the next append/compact."""
        with self._lock:
            if self._snapshot is not None:
                return self._snapshot
            coords_chunks: list[list[np.ndarray]] = []
            index_chunks: list[list[np.ndarray]] = []
            for p in range(self.n_partitions):
                cc: list[np.ndarray] = []
                ic: list[np.ndarray] = []
                if self.base_coords[p].shape[0]:
                    cc.append(self.base_coords[p])
                    ic.append(self.base_index[p])
                size = self.delta_sizes[p]
                if size:
                    cc.append(self.delta_coords[p][:size])
                    ic.append(self.delta_index[p][:size])
                coords_chunks.append(cc)
                index_chunks.append(ic)
            self._snapshot = _ColumnarView(
                self.scan_boxes.copy(), coords_chunks, index_chunks
            )
            return self._snapshot

    def members(self) -> list[np.ndarray]:
        """Per-partition point ids, base rows then delta rows (admit order)."""
        with self._lock:
            return [
                np.concatenate(
                    [self.base_index[p], self.delta_index[p][: self.delta_sizes[p]]]
                )
                for p in range(self.n_partitions)
            ]

    def tier_sizes(self) -> tuple[list[int], list[int]]:
        """(base rows, delta rows) per partition, one consistent read."""
        with self._lock:
            return (
                [a.shape[0] for a in self.base_index],
                list(self.delta_sizes),
            )

    def delta_fractions(self) -> list[float]:
        """Per-partition ``delta / (base + delta)`` (0.0 for empty partitions)."""
        base, delta = self.tier_sizes()
        return [
            d / (b + d) if (b + d) else 0.0 for b, d in zip(base, delta)
        ]


def _route_range(
    view: _ColumnarView, centers: np.ndarray, radii: np.ndarray
) -> tuple[list[list[int]], int]:
    """Range routing: per-query hit lists plus partitions-touched count.

    A partition is *touched* by a query when its scan box overlaps the
    disk (whether or not any point qualifies), matching the legacy
    per-query scalar router.  Hits come back in partition order, then in
    each partition's member order (base rows before delta rows).  The
    overlap test is one ``(queries, partitions)`` broadcast and scans are
    batched partition-major: one :func:`repro.kernels.chunked_range_hits`
    merged scan covers every query routed to a partition across both
    tiers.
    """
    n_queries = centers.shape[0]
    hits: list[list[int]] = [[] for _ in range(n_queries)]
    if n_queries == 0 or view.n_partitions == 0:
        return hits, 0
    overlap = kernels.box_min_dists_many(view.boxes, centers) <= radii[:, None]
    for p in np.flatnonzero(overlap.any(axis=0)).tolist():
        if view.part_sizes[p] == 0:
            continue
        routed = np.flatnonzero(overlap[:, p])
        chunks = list(zip(view.coords_chunks[p], view.index_chunks[p]))
        per_query = kernels.chunked_range_hits(chunks, centers[routed], radii[routed])
        for qi, ids in zip(routed.tolist(), per_query):
            hits[qi].extend(ids.tolist())
    return hits, int(overlap.sum())


def _route_knn(
    view: _ColumnarView,
    centers: np.ndarray,
    k: int,
    weights: np.ndarray | None = None,
) -> tuple[list[list[int]], int]:
    """kNN routing: scan partitions best-first, prune by the k-th distance.

    Each query visits partitions in ascending ``(scan-box min-distance,
    partition index)`` order and stops once ``k`` candidates are known and
    the next partition's lower bound exceeds its current k-th distance.
    Every visited partition counts as touched (empty ones too), and a
    scanned partition contributes both its tiers.  Ties break by ascending
    point index (the package-wide ``(distance, id)`` rule).

    The batch advances in rounds: in round ``r`` every still-active query
    takes its ``r``-th partition, and the queries that landed on the same
    partition share one :func:`repro.kernels.cross_dists` scan per column
    chunk.  Each query sees exactly the per-query sequence above, so
    answers and the touched count do not depend on the batch around it.
    Per query, ``best`` keeps the ``k`` smallest distances seen (padded
    with ``inf``, so its last column is the k-th distance once ``k``
    candidates exist and ``inf`` before) and only candidates within that
    running k-th distance are kept for the final ``(distance, id)``
    ranking: the k-th distance only falls, so nothing dropped could
    re-enter the answer.

    ``weights`` (the store's per-point vector) turns the scan into
    quality-weighted ranking: candidates order by *effective* distance
    ``d / w``, with weights gathered only for scanned chunks.  Weights are
    capped at 1.0, so ``d / w >= d >=`` every scan-box lower bound — the
    best-first pruning stays sound (merely less tight) and weighted
    results stay exact.
    """
    n_queries = centers.shape[0]
    n_parts = view.n_partitions
    if n_queries == 0 or n_parts == 0 or k < 1:
        return [[] for _ in range(n_queries)], 0
    lower = kernels.box_min_dists_many(view.boxes, centers)
    order = np.argsort(lower, axis=1, kind="stable")  # stable: ties by partition id
    sizes = view.part_sizes
    # A k beyond the store ranks everything: one inf column past the store
    # size keeps the stop rule off exactly as an unbounded k would.
    k = min(k, sum(sizes) + 1)
    best = np.full((n_queries, k), np.inf)
    active = np.arange(n_queries)
    weight_chunks: dict[tuple[int, int], np.ndarray] = {}
    cand_q: list[np.ndarray] = []
    cand_d: list[np.ndarray] = []
    cand_id: list[np.ndarray] = []
    touched = 0
    for r in range(n_parts):
        parts = order[active, r]
        # The negated stop test (not ``<=``) keeps a NaN bound scanning.
        go = ~(lower[active, parts] > best[active, k - 1])
        active, parts = active[go], parts[go]
        if active.size == 0:
            break
        touched += active.size
        groups: dict[int, list[int]] = {}
        for qi, p in zip(active.tolist(), parts.tolist()):
            if sizes[p]:
                groups.setdefault(p, []).append(qi)
        for p, members in groups.items():
            qs = np.array(members)
            dist_parts: list[np.ndarray] = []
            for ci, (coords, index) in enumerate(
                zip(view.coords_chunks[p], view.index_chunks[p])
            ):
                if coords.shape[0] == 0:
                    continue
                d = kernels.cross_dists(centers[qs], coords)
                if weights is not None:
                    w = weight_chunks.get((p, ci))
                    if w is None:
                        w = weight_chunks[(p, ci)] = _weights_for(index, weights)
                    d /= w
                dist_parts.append(d)
            d = dist_parts[0] if len(dist_parts) == 1 else np.hstack(dist_parts)
            ids = view.merged_index(p)
            head = np.partition(d, k - 1, axis=1)[:, :k] if d.shape[1] >= k else d
            if r == 0 and head.shape[1] == k:
                best[qs] = head  # nothing seen yet: head is the k smallest
            else:
                merged = np.concatenate((best[qs], head), axis=1)
                best[qs] = np.partition(merged, k - 1, axis=1)[:, :k]
            hit = np.flatnonzero(d <= best[qs, k - 1][:, None])
            rows, cols = np.divmod(hit, d.shape[1])
            cand_q.append(qs[rows])
            cand_d.append(d.ravel()[hit])
            cand_id.append(ids[cols])
    return _rank_candidates(n_queries, k, cand_q, cand_d, cand_id), touched


def _rank_candidates(
    n_queries: int,
    k: int,
    cand_q: list[np.ndarray],
    cand_d: list[np.ndarray],
    cand_id: list[np.ndarray],
) -> list[list[int]]:
    """Per-query top-``k`` ids under the ``(distance, id)`` rule, in one sort."""
    if not cand_q:
        return [[] for _ in range(n_queries)]
    q = np.concatenate(cand_q)
    ids = np.concatenate(cand_id)
    ranked = np.lexsort((ids, np.concatenate(cand_d), q))
    q, ids = q[ranked], ids[ranked]
    first = np.searchsorted(q, np.arange(n_queries))
    keep = np.arange(q.shape[0]) - first[q] < k
    return _split_by_row(ids[keep], q[keep], n_queries)


def _split_by_row(values: np.ndarray, rows: np.ndarray, n_rows: int) -> list[list[int]]:
    """Per-row Python lists of ``values``, which arrive grouped by ascending ``rows``."""
    flat = values.tolist()
    bounds = [0] + np.cumsum(np.bincount(rows, minlength=n_rows)).tolist()
    return [flat[bounds[i] : bounds[i + 1]] for i in range(n_rows)]


def _weights_for(index: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-row weights for one column chunk's global point ids.

    Points appended after ``set_quality_weights`` sit past the end of the
    weight vector and default to 1.0 (fully trusted until the next QoD
    pass assigns them a weight).
    """
    if index.shape[0] == 0 or index.max() < weights.shape[0]:
        return weights[index]
    out = np.ones(index.shape[0])
    known = index < weights.shape[0]
    out[known] = weights[index[known]]
    return out


#: Environment override for the default compaction trigger.
COMPACT_THRESHOLD_ENV = "REPRO_STORE_COMPACT_THRESHOLD"

#: Default delta fraction above which a partition is folded.
DEFAULT_COMPACT_THRESHOLD = 0.25


def resolve_compact_threshold(value: float | None = None) -> float:
    """Compaction trigger: explicit value, else the env override, else 0.25."""
    if value is not None:
        return float(value)
    raw = os.environ.get(COMPACT_THRESHOLD_ENV, "")
    return float(raw) if raw else DEFAULT_COMPACT_THRESHOLD


@dataclass(frozen=True)
class CompactionStats:
    """One :meth:`PartitionedStore.compact` call's outcome."""

    partitions: int  # partitions folded
    points_folded: int  # delta rows moved into base columns
    seconds: float  # wall time for the whole call


class PartitionedStore:
    """Query router over a partitioned point set with a live append tier.

    The store is two-tiered, LSM-style: construction packs each
    partition's points into contiguous base columns, and
    :meth:`append` / :meth:`append_many` land later points in
    per-partition columnar delta tails that every query merges on the fly
    — new data is queryable immediately, no rebuild.  :meth:`compact`
    folds delta tails back into packed base columns (per-partition, so
    pauses stay bounded) once their fraction passes a threshold.

    Single-query entry points (:meth:`range_query`, :meth:`knn`) are thin
    wrappers over the batched ones, which scan each partition with the
    columnar kernels in-process.  Results are bit-identical across delta
    state and compaction timing — equal to a store rebuilt from scratch
    with the same membership (:meth:`rebuilt`).

    ``partitions_touched`` counts every (query, partition) routing
    decision.  Appends are thread-safe (ingest writers may append at once);
    each batch reads one snapshot, and compaction never changes an answer
    (the serving layer runs it between batches).
    """

    def __init__(self, points: list[Point], partitions: list[Partition]) -> None:
        self.points = list(points)
        self.partitions_touched = 0
        self.queries_run = 0
        self.compactions = 0
        self.compacted_points = 0
        self.last_compaction_seconds = 0.0
        self.weights_epoch = 0
        self._weights: np.ndarray | None = None
        self._bboxes = [p.bbox for p in partitions]
        self._tiers = _TwoTierColumns(self.points, partitions)

    @property
    def partitions(self) -> list[Partition]:
        """Live membership: construction assignment plus routed appends."""
        return [
            Partition(bbox, tuple(int(i) for i in members))
            for bbox, members in zip(self._bboxes, self._tiers.members())
        ]

    # -- the live tier -----------------------------------------------------------

    def append(self, point: Point) -> int:
        """Append one point to its partition's delta tail; returns its id.

        The one-point path of :meth:`append_many`, with the same home
        partition and id: a point inside a static bbox is routed by a
        scalar scan over the boxes and written as one delta row, and only
        a point outside every bbox pays for the vectorized router.  This
        is the ingest sink's per-reading call.
        """
        if self._tiers.n_partitions == 0:
            raise ValueError("cannot append to a store with no partitions")
        pid = self._tiers.append_one(point)
        if OBS.enabled:
            self._observe_appends(1)
        return pid

    def append_many(self, points: Sequence[Point]) -> list[int]:
        """Append points to the delta tier; queryable immediately.

        Points are routed to the partition whose static bbox contains them
        (lowest partition index on boundary ties) or the nearest partition
        when outside every bbox — that partition's scan box grows to keep
        bbox pruning sound.  Ids continue the store's sequence in admit
        order, so results stay bit-identical to a from-scratch rebuild
        with the same membership.
        """
        pts = list(points)
        if not pts:
            return []
        if self._tiers.n_partitions == 0:
            raise ValueError("cannot append to a store with no partitions")
        ids = self._tiers.append(pts)
        if OBS.enabled:
            self._observe_appends(len(pts))
        return ids

    def _observe_appends(self, n: int) -> None:
        OBS.metrics.inc("repro_store_appends_total", (), float(n))
        OBS.metrics.set_gauge("repro_store_delta_fraction", (), self.max_delta_fraction())

    def max_delta_fraction(self) -> float:
        """Largest per-partition delta fraction (the compaction trigger)."""
        fractions = self._tiers.delta_fractions()
        return max(fractions) if fractions else 0.0

    def delta_stats(self) -> dict[str, float]:
        """Two-tier accounting for ops surfaces and the serving layer."""
        base, delta = self._tiers.tier_sizes()
        fractions = self._tiers.delta_fractions()
        return {
            "points": float(len(self.points)),
            "base_points": float(sum(base)),
            "delta_points": float(sum(delta)),
            "delta_fraction_max": max(fractions) if fractions else 0.0,
            "appends_total": float(self._tiers.appended_total),
            "compactions": float(self.compactions),
            "compacted_points_total": float(self.compacted_points),
            "last_compaction_seconds": self.last_compaction_seconds,
        }

    def compact(
        self,
        partition_ids: Sequence[int] | None = None,
        *,
        threshold: float | None = None,
        clock: Any = None,
    ) -> CompactionStats:
        """Fold delta tails into packed base columns, one partition at a time.

        With no ``partition_ids``, folds every partition whose delta
        fraction is at least the threshold (explicit ``threshold``, else
        ``$REPRO_STORE_COMPACT_THRESHOLD``, else 0.25).  Query results are
        unchanged by construction — and cached results stay valid:
        compaction does not bump quality epochs.
        """
        clk = clock if clock is not None else MonotonicClock()
        delta_sizes = self._tiers.tier_sizes()[1]
        if partition_ids is None:
            thr = resolve_compact_threshold(threshold)
            fractions = self._tiers.delta_fractions()
            targets = [
                p
                for p in range(self._tiers.n_partitions)
                if delta_sizes[p] and fractions[p] >= thr
            ]
        else:
            targets = [p for p in partition_ids if delta_sizes[p]]
        start = clk.now()
        folded = 0
        cm = (
            OBS.tracer.span("store.compact", partitions=len(targets))
            if OBS.enabled
            else _NULL
        )
        with cm:
            for p in targets:
                folded += self._tiers.compact_one(p)
        seconds = clk.now() - start
        if targets:
            self.compactions += 1
            self.compacted_points += folded
            self.last_compaction_seconds = seconds
            if OBS.enabled:
                OBS.metrics.inc("repro_store_compactions_total")
                OBS.metrics.inc("repro_store_compacted_points_total", (), float(folded))
                OBS.metrics.observe("repro_store_compaction_seconds", (), seconds)
                OBS.metrics.set_gauge(
                    "repro_store_delta_fraction", (), self.max_delta_fraction()
                )
        return CompactionStats(len(targets), folded, seconds)

    # -- quality weights (the QoD exploitation seam) -----------------------------

    def set_quality_weights(self, weights: Sequence[float] | np.ndarray | None) -> int:
        """Install per-point quality weights for weighted kNN ranking.

        ``weights[i]`` weights point ``i`` (typically
        :func:`repro.qod.weighting.point_weights` over the per-sensor
        output of a :class:`~repro.qod.registry.QodRegistry` pass); points
        beyond the vector's length — appended after this call — default
        to 1.0 until the next pass.  ``None`` clears weighting.

        Every weight must lie in ``(0, 1]``: weighted ranking divides
        distances by weights, and the cap keeps effective distances at or
        above raw ones, so best-first partition pruning stays exact.

        Bumps and returns :attr:`weights_epoch` — the serving layer keys
        weighted cached results on it, so an update (or a clear) can
        never serve a stale weighted answer.  Calls must not overlap an
        in-flight query batch; the serving layer updates weights between
        batches.
        """
        if weights is None:
            self._weights = None
        else:
            w = np.asarray(weights, dtype=float).copy()
            if w.ndim != 1:
                raise ValueError("weights must be one-dimensional")
            if w.size and (not np.all(np.isfinite(w)) or w.min() <= 0 or w.max() > 1.0):
                raise ValueError("weights must be finite and lie in (0, 1]")
            self._weights = w
        self.weights_epoch += 1
        return self.weights_epoch

    def quality_weights(self) -> np.ndarray | None:
        """The installed per-point weight vector (read-only view), or None."""
        if self._weights is None:
            return None
        view = self._weights.view()
        view.flags.writeable = False
        return view

    def rebuilt(self) -> "PartitionedStore":
        """A from-scratch store with this store's exact live membership.

        The rebuild packs every partition's base+delta members into fresh
        base columns in the same order the live store scans them, so its
        query results are bit-identical to the delta-merged ones — the
        oracle the tests and ``bench_store.py`` check against.
        """
        return PartitionedStore(self.points, self.partitions)

    # -- queries -----------------------------------------------------------------

    def range_query(self, center: Point, radius: float) -> list[int]:
        """Route to overlapping partitions; returns matching point indices."""
        return self.range_query_many([center], [radius])[0]

    def range_query_many(
        self,
        centers: Sequence[Point],
        radii,
        *,
        workers: int | None = None,
        executor: Any = None,
    ) -> list[list[int]]:
        """Batch range routing; one hit list per center, in input order.

        ``radii`` is a scalar shared by every query or a per-query sequence.
        ``workers`` and ``executor`` are accepted for call-shape
        compatibility and ignored: every batch runs in-process.
        """
        c = kernels.centers_of(centers)
        r = np.asarray(radii, dtype=float)
        if r.ndim == 0:
            r = np.full(c.shape[0], float(r))
        elif r.shape != (c.shape[0],):
            raise ValueError("radii must be a scalar or match the number of centers")
        return self._run_batch("range", c, r)

    def knn(self, center: Point, k: int, *, weighted: bool = False) -> list[int]:
        """Indices of the k nearest points (``(distance, index)`` tie rule)."""
        return self.knn_many([center], k, weighted=weighted)[0]

    def knn_many(
        self,
        centers: Sequence[Point],
        k: int,
        *,
        workers: int | None = None,
        executor: Any = None,
        weighted: bool = False,
    ) -> list[list[int]]:
        """Batch kNN routing with best-first partition pruning.

        With ``weighted=True`` and quality weights installed
        (:meth:`set_quality_weights`), candidates rank by effective
        distance ``d / w`` — low-QoD points must be proportionally closer
        to make the top-k — under the same ``(distance, id)`` tie rule.
        Without installed weights the flag is a no-op.  ``workers`` and
        ``executor`` are ignored, as in :meth:`range_query_many`.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        c = kernels.centers_of(centers)
        return self._run_batch("knn", c, k, weighted=weighted)

    def _run_batch(
        self, mode: str, centers: np.ndarray, arg, *, weighted: bool = False
    ) -> list[list[int]]:
        obs_on = OBS.enabled
        self.queries_run += centers.shape[0]
        view = self._tiers.snapshot()
        cm = (
            OBS.tracer.span("query.partitioned_batch", mode=mode, queries=centers.shape[0])
            if obs_on
            else _NULL
        )
        with cm:
            if mode == "range":
                hits, touched = _route_range(view, centers, arg)
            else:
                weights = self._weights if weighted else None
                hits, touched = _route_knn(view, centers, arg, weights)
        self.partitions_touched += touched
        if obs_on:
            OBS.metrics.inc(
                "repro_query_partitions_touched_total", (("mode", mode),), float(touched)
            )
        return hits

    def mean_partitions_per_query(self) -> float:
        """Average partitions touched per query (communication proxy)."""
        if self.queries_run == 0:
            return 0.0
        return self.partitions_touched / self.queries_run

    # -- cache-aware entry points (the serving layer's dependency oracle) --------

    @property
    def partition_boxes(self) -> np.ndarray:
        """Read-only ``(n_partitions, 4)`` min_x/min_y/max_x/max_y extents.

        These are the *static* construction-time boxes — the stable
        identity the serving layer's :class:`~repro.serve.epochs
        .EpochRegistry` is built over.  (Internal routing additionally
        grows per-partition scan boxes as out-of-box points are appended;
        the dependency oracles below use those, which is strictly
        conservative for invalidation.)
        """
        boxes = self._tiers.static_boxes.view()
        boxes.flags.writeable = False
        return boxes

    def range_partition_sets(
        self, centers: Sequence[Point], radii
    ) -> list[tuple[int, ...]]:
        """Per-query partition dependency sets for range queries.

        A partition belongs to a query's set exactly when its scan box
        overlaps the query disk — the same predicate the router uses — so
        a write outside the set provably cannot change the query's answer.
        The serving layer keys cached results on these sets for
        quality-epoch invalidation.  A disk that overlaps no scan box
        depends on every partition: an append routed to the nearest
        partition grows that partition's scan box toward the disk, and
        :meth:`~repro.serve.epochs.EpochRegistry.bump_point` likewise bumps
        every partition for a write outside all of them.
        """
        c = kernels.centers_of(centers)
        r = np.asarray(radii, dtype=float)
        if r.ndim == 0:
            r = np.full(c.shape[0], float(r))
        elif r.shape != (c.shape[0],):
            raise ValueError("radii must be a scalar or match the number of centers")
        boxes = self._tiers.snapshot().boxes
        return _dependency_sets(kernels.box_min_dists_many(boxes, c) <= r[:, None])

    def knn_partition_sets(
        self,
        centers: Sequence[Point],
        hits: Sequence[Sequence[int]],
        k: int | None = None,
        *,
        append_only: bool = True,
        weighted: bool = False,
    ) -> list[tuple[int, ...]]:
        """Per-query partition dependency sets for answered kNN queries.

        ``hits`` is the corresponding :meth:`knn_many` output (pass the
        requested ``k`` to detect short answers).  A full top-k changes
        only when a new point lands *strictly* inside the current k-th
        distance: the store is append-only and new points always get ids
        above every existing id, so a newcomer at exactly the k-th
        distance loses the ``(distance, id)`` tie.  Partitions whose scan
        box lower bound equals the k-th distance can therefore be pruned
        (pass ``append_only=False`` for the conservative ``<=`` bound,
        which also covers hypothetical in-place mutation).  A full answer
        whose strict bound keeps no partition (every hit at distance 0)
        depends on every partition, the same fallback as
        :meth:`range_partition_sets`.

        A short or empty answer (the store held fewer than ``k`` points)
        depends on every partition — *exactly*, not conservatively: a
        short answer ranks the whole store, so an append anywhere enters
        it.  No tightening is possible there.

        For hits computed with ``knn_many(..., weighted=True)``, pass
        ``weighted=True``: the k-th distance is then the k-th *effective*
        distance ``d / w``.  New appends default to weight 1.0, so a
        newcomer's effective distance equals its raw distance and the raw
        scan-box lower bound still under-estimates it — the same pruning
        logic holds, just against the weighted k-th.

        The whole batch is one pass: every full answer's hit coordinates
        are gathered at once, one row-wise distance call measures them,
        and each query's k-th is its segment maximum.
        """
        c = kernels.centers_of(centers)
        if c.shape[0] != len(hits):
            raise ValueError("hits must align with centers")
        boxes = self._tiers.snapshot().boxes
        full = [
            qi for qi, ids in enumerate(hits) if ids and (k is None or len(ids) >= k)
        ]
        overlap = np.zeros((c.shape[0], boxes.shape[0]), dtype=bool)
        if full:
            lengths = [len(hits[qi]) for qi in full]
            flat = [i for qi in full for i in hits[qi]]
            coords = kernels.coords_of([self.points[i] for i in flat])
            rows = np.asarray(full)
            dists = kernels.paired_dists(coords, c[np.repeat(rows, lengths)])
            if weighted and self._weights is not None:
                dists = dists / _weights_for(np.asarray(flat, dtype=np.int64), self._weights)
            kth = np.maximum.reduceat(dists, np.cumsum([0] + lengths[:-1]))[:, None]
            lower = kernels.box_min_dists_many(boxes, c[rows])
            overlap[rows] = lower < kth if append_only else lower <= kth
        return _dependency_sets(overlap)


def _dependency_sets(mask: np.ndarray) -> list[tuple[int, ...]]:
    """Row-wise partition ids of a ``(queries, partitions)`` mask.

    An empty row becomes every partition: a query no partition bounds is
    a query any write could reach.
    """
    everything = tuple(range(mask.shape[1]))
    rows, cols = np.nonzero(mask)
    return [tuple(pids) or everything for pids in _split_by_row(cols, rows, mask.shape[0])]
