"""Retained scalar reference implementations for equivalence testing.

These are the seed's per-point Python loops, kept verbatim (modulo the
deterministic ``(distance, item_id)`` tie rule) after the hot paths moved
onto the columnar kernels.  They serve two purposes:

* the property-based suite in ``tests/test_kernels.py`` asserts every
  vectorized path returns *exactly* what the scalar loop returns,
* ``benchmarks/bench_kernels.py`` times them against the kernels to
  document the speedup.

Nothing here should be called on a hot path.
"""

from __future__ import annotations

import math

import numpy as np


def scalar_range(entries, center, radius: float) -> list[int]:
    """Linear-scan disk query: per-entry ``distance_to`` calls (seed path)."""
    return [e.item_id for e in entries if e.point.distance_to(center) <= radius]


def scalar_knn(entries, center, k: int) -> list[int]:
    """Linear-scan kNN with the ``(distance, item_id)`` tie rule."""
    ranked = sorted(entries, key=lambda e: (e.point.distance_to(center), e.item_id))
    return [e.item_id for e in ranked[:k]]


def scalar_speeds(points) -> list[float]:
    """Per-leg speeds via per-sample attribute walks (seed path)."""
    out = []
    for a, b in zip(points, points[1:]):
        out.append(math.hypot(b.x - a.x, b.y - a.y) / (b.t - a.t))
    return out


def scalar_headings(points) -> list[float]:
    """Per-leg headings via per-sample ``atan2`` calls (seed path)."""
    return [math.atan2(b.y - a.y, b.x - a.x) for a, b in zip(points, points[1:])]


def scalar_speed_outliers(traj, max_speed: float) -> list[int]:
    """Both-legs speed screen as an index loop (seed path)."""
    n = len(traj)
    if n < 3:
        return []
    speeds = traj.speeds()
    flagged = []
    for i in range(1, n - 1):
        if speeds[i - 1] > max_speed and speeds[i] > max_speed:
            flagged.append(i)
    return flagged


def scalar_heading_outliers(traj, max_turn: float = 2.8) -> list[int]:
    """Heading-reversal screen as an index loop (seed path)."""
    n = len(traj)
    if n < 3:
        return []
    headings = traj.headings()
    flagged = []
    for i in range(1, n - 1):
        turn = abs(float(headings[i] - headings[i - 1]))
        turn = min(turn, 2.0 * np.pi - turn)
        if turn > max_turn:
            flagged.append(i)
    return flagged


def scalar_zscore_outliers(traj, window: int = 7, threshold: float = 3.0) -> list[int]:
    """Windowed-median robust z-score screen as a per-point loop (seed path)."""
    n = len(traj)
    if n < 3:
        return []
    half = max(1, window // 2)
    xyt = traj.as_xyt()
    residuals = np.empty(n)
    for i in range(n):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        mx = float(np.median(xyt[lo:hi, 0]))
        my = float(np.median(xyt[lo:hi, 1]))
        residuals[i] = float(np.hypot(xyt[i, 0] - mx, xyt[i, 1] - my))
    mad = float(np.median(np.abs(residuals - np.median(residuals))))
    scale = 1.4826 * mad if mad > 1e-12 else float(np.std(residuals)) or 1e-12
    center = float(np.median(residuals))
    return [i for i in range(n) if (residuals[i] - center) / scale > threshold]


# -- same-named scalar twins (R3 kernel parity) -------------------------------
#
# One loop-based twin per public kernel in distances/motion/screens, under
# the *same name*, so `tools/reprolint` rule R3 can mechanically pair them
# and `tests/test_kernels.py::TestReferenceTwins` can diff every kernel
# against its twin.  Twins favour per-element clarity over speed and mirror
# each kernel's edge-case conventions (empty inputs, shrinking windows, the
# (distance, id) tie rule, the subnormal-underflow hypot fallback).


def _center_xy(center) -> tuple[float, float]:
    """Mirror of :func:`repro.kernels.columnar.center_of` for scalar code."""
    if hasattr(center, "x"):
        return float(center.x), float(center.y)
    c = np.asarray(center, dtype=float).reshape(2)
    return float(c[0]), float(c[1])


def _pair_dist(dx: float, dy: float) -> float:
    """Scalar twin of the kernels' fused sqrt(dx^2 + dy^2) with hypot repair."""
    d = math.sqrt(dx * dx + dy * dy)
    if d < 1e-150 and (dx != 0.0 or dy != 0.0):
        return math.hypot(dx, dy)
    return d


def dists_to(coords, center) -> np.ndarray:
    """Per-row Euclidean distance loop (twin of kernels.dists_to)."""
    cx, cy = _center_xy(center)
    rows = np.asarray(coords, dtype=float).reshape(-1, 2)
    return np.array([_pair_dist(float(x) - cx, float(y) - cy) for x, y in rows])


def cross_dists(a, b) -> np.ndarray:
    """Nested-loop distance matrix (twin of kernels.cross_dists)."""
    ra = np.asarray(a, dtype=float).reshape(-1, 2)
    rb = np.asarray(b, dtype=float).reshape(-1, 2)
    out = np.zeros((ra.shape[0], rb.shape[0]))
    for i in range(ra.shape[0]):
        for j in range(rb.shape[0]):
            out[i, j] = _pair_dist(ra[i, 0] - rb[j, 0], ra[i, 1] - rb[j, 1])
    return out


def paired_dists(a, b) -> np.ndarray:
    """Per-row-pair distance loop (twin of kernels.paired_dists)."""
    ra = np.asarray(a, dtype=float).reshape(-1, 2)
    rb = np.asarray(b, dtype=float).reshape(-1, 2)
    out = [_pair_dist(ra[i, 0] - rb[i, 0], ra[i, 1] - rb[i, 1]) for i in range(ra.shape[0])]
    return np.array(out) if out else np.zeros(0)


def range_mask(coords, center, radius: float) -> np.ndarray:
    """Per-row disk-membership loop (twin of kernels.range_mask)."""
    return np.array([d <= radius for d in dists_to(coords, center)], dtype=bool)


def range_masks(coords, centers, radii) -> np.ndarray:
    """Per-query disk-membership loops (twin of kernels.range_masks)."""
    centers_arr = np.asarray(centers, dtype=float).reshape(-1, 2)
    r = np.asarray(radii, dtype=float)
    rows = []
    for i in range(centers_arr.shape[0]):
        radius = float(r) if r.ndim == 0 else float(r[i])
        rows.append(range_mask(coords, centers_arr[i], radius))
    n = np.asarray(coords, dtype=float).reshape(-1, 2).shape[0]
    if not rows:
        return np.zeros((0, n), dtype=bool)
    return np.stack(rows)


def knn_select(dists, ids, k: int) -> np.ndarray:
    """Sort-based k-smallest under the (distance, id) tie rule."""
    d = np.asarray(dists, dtype=float)
    item_ids = np.asarray(ids)
    if k <= 0 or d.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    ranked = sorted(range(d.shape[0]), key=lambda i: (float(d[i]), int(item_ids[i])))
    return np.array([int(item_ids[i]) for i in ranked[:k]], dtype=np.int64)


def knn_select_many(coords, ids, centers, k: int) -> list[np.ndarray]:
    """Per-center kNN loop (twin of kernels.knn_select_many)."""
    centers_arr = np.asarray(centers, dtype=float).reshape(-1, 2)
    return [
        knn_select(dists_to(coords, centers_arr[i]), ids, k)
        for i in range(centers_arr.shape[0])
    ]


def chunked_range_hits(chunks, centers, radii) -> list[np.ndarray]:
    """Per-chunk, per-row disk-membership loop (twin of kernels.chunked_range_hits)."""
    centers_arr = np.asarray(centers, dtype=float).reshape(-1, 2)
    r = np.asarray(radii, dtype=float)
    out = []
    for qi in range(centers_arr.shape[0]):
        cx, cy = float(centers_arr[qi, 0]), float(centers_arr[qi, 1])
        radius = float(r) if r.ndim == 0 else float(r[qi])
        found: list[int] = []
        for coords, ids in chunks:
            rows = np.asarray(coords, dtype=float).reshape(-1, 2)
            for row in range(rows.shape[0]):
                if _pair_dist(rows[row, 0] - cx, rows[row, 1] - cy) <= radius:
                    found.append(int(ids[row]))
        out.append(np.asarray(found, dtype=np.int64))
    return out


def box_min_dists(boxes, center) -> np.ndarray:
    """Per-box min-distance loop (twin of kernels.box_min_dists)."""
    cx, cy = _center_xy(center)
    rows = np.asarray(boxes, dtype=float).reshape(-1, 4)
    out = []
    for min_x, min_y, max_x, max_y in rows:
        dx = max(min_x - cx, cx - max_x, 0.0)
        dy = max(min_y - cy, cy - max_y, 0.0)
        out.append(math.hypot(dx, dy))
    return np.array(out) if out else np.zeros(0)


def box_min_dists_many(boxes, centers) -> np.ndarray:
    """Per-center min-distance loops (twin of kernels.box_min_dists_many)."""
    centers_arr = np.asarray(centers, dtype=float).reshape(-1, 2)
    n = np.asarray(boxes, dtype=float).reshape(-1, 4).shape[0]
    if not centers_arr.shape[0]:
        return np.zeros((0, n))
    return np.stack([box_min_dists(boxes, c) for c in centers_arr])


def box_max_dists(boxes, center) -> np.ndarray:
    """Per-box max-distance loop (twin of kernels.box_max_dists)."""
    cx, cy = _center_xy(center)
    rows = np.asarray(boxes, dtype=float).reshape(-1, 4)
    out = []
    for min_x, min_y, max_x, max_y in rows:
        dx = max(abs(cx - min_x), abs(cx - max_x))
        dy = max(abs(cy - min_y), abs(cy - max_y))
        out.append(math.hypot(dx, dy))
    return np.array(out) if out else np.zeros(0)


def box_gap_dists(query_box, boxes) -> np.ndarray:
    """Per-box separation-gap loop (twin of kernels.box_gap_dists)."""
    rows = np.asarray(boxes, dtype=float).reshape(-1, 4)
    out = []
    for min_x, min_y, max_x, max_y in rows:
        dx = max(min_x - query_box.max_x, query_box.min_x - max_x, 0.0)
        dy = max(min_y - query_box.max_y, query_box.min_y - max_y, 0.0)
        out.append(math.hypot(dx, dy))
    return np.array(out) if out else np.zeros(0)


def haversine_m_many(lon1, lat1, lon2, lat2) -> np.ndarray:
    """Per-pair great-circle loop (twin of kernels.haversine_m_many).

    Unlike the broadcasting kernel, the twin expects equal-length
    sequences — the shape the parity suite exercises.
    """
    earth_radius_m = 6_371_000.0
    out = []
    for a, b, c, d in zip(
        np.atleast_1d(np.asarray(lon1, dtype=float)),
        np.atleast_1d(np.asarray(lat1, dtype=float)),
        np.atleast_1d(np.asarray(lon2, dtype=float)),
        np.atleast_1d(np.asarray(lat2, dtype=float)),
    ):
        phi1, phi2 = math.radians(b), math.radians(d)
        dphi = phi2 - phi1
        dlmb = math.radians(c - a)
        h = (
            math.sin(dphi / 2.0) ** 2
            + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2.0) ** 2
        )
        out.append(2.0 * earth_radius_m * math.asin(min(1.0, math.sqrt(h))))
    return np.array(out)


def leg_displacements(xyt) -> np.ndarray:
    """Per-leg distance loop (twin of kernels.leg_displacements)."""
    rows = np.asarray(xyt, dtype=float).reshape(-1, 3)
    if rows.shape[0] < 2:
        return np.zeros(0)
    return np.array(
        [
            math.hypot(rows[i + 1, 0] - rows[i, 0], rows[i + 1, 1] - rows[i, 1])
            for i in range(rows.shape[0] - 1)
        ]
    )


def leg_speeds(xyt) -> np.ndarray:
    """Per-leg speed loop (twin of kernels.leg_speeds)."""
    rows = np.asarray(xyt, dtype=float).reshape(-1, 3)
    if rows.shape[0] < 2:
        return np.zeros(0)
    disp = leg_displacements(rows)
    return np.array(
        [disp[i] / (rows[i + 1, 2] - rows[i, 2]) for i in range(rows.shape[0] - 1)]
    )


def leg_headings(xyt) -> np.ndarray:
    """Per-leg heading loop (twin of kernels.leg_headings)."""
    rows = np.asarray(xyt, dtype=float).reshape(-1, 3)
    if rows.shape[0] < 2:
        return np.zeros(0)
    return np.array(
        [
            math.atan2(rows[i + 1, 1] - rows[i, 1], rows[i + 1, 0] - rows[i, 0])
            for i in range(rows.shape[0] - 1)
        ]
    )


def sampling_intervals(times) -> np.ndarray:
    """Per-gap timestamp-difference loop (twin of kernels.sampling_intervals)."""
    t = np.asarray(times, dtype=float).reshape(-1)
    if t.shape[0] < 2:
        return np.zeros(0)
    return np.array([t[i + 1] - t[i] for i in range(t.shape[0] - 1)])


def turn_angles(headings) -> np.ndarray:
    """Per-pair wrapped heading-change loop (twin of kernels.turn_angles)."""
    h = np.asarray(headings, dtype=float).reshape(-1)
    if h.shape[0] < 2:
        return np.zeros(0)
    out = []
    for i in range(h.shape[0] - 1):
        turn = abs(h[i + 1] - h[i])
        out.append(min(turn, 2.0 * math.pi - turn))
    return np.array(out)


def path_length(xyt) -> float:
    """Summed per-leg distance loop (twin of kernels.path_length)."""
    return float(sum(leg_displacements(xyt), 0.0))


def windowed_medians(values, half: int) -> np.ndarray:
    """Per-element shrinking-window median loop (twin of kernels.windowed_medians)."""
    v = np.asarray(values, dtype=float).reshape(-1)
    n = v.shape[0]
    out = np.empty(n)
    for i in range(n):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        out[i] = float(np.median(v[lo:hi]))
    return out if n else np.zeros(0)


def windowed_median_residuals(xyt, window: int) -> np.ndarray:
    """Per-sample residual loop (twin of kernels.windowed_median_residuals)."""
    rows = np.asarray(xyt, dtype=float).reshape(-1, 3)
    half = max(1, window // 2)
    mx = windowed_medians(rows[:, 0], half)
    my = windowed_medians(rows[:, 1], half)
    return np.array(
        [math.hypot(rows[i, 0] - mx[i], rows[i, 1] - my[i]) for i in range(rows.shape[0])]
    )


def robust_zscores(residuals) -> np.ndarray:
    """Per-element robust z-score loop (twin of kernels.robust_zscores)."""
    r = np.asarray(residuals, dtype=float).reshape(-1)
    if r.size == 0:
        return np.zeros(0)
    center = float(np.median(r))
    mad = float(np.median(np.abs(r - center)))
    scale = 1.4826 * mad if mad > 1e-12 else float(np.std(r)) or 1e-12
    return np.array([(float(x) - center) / scale for x in r])


def both_leg_flags(leg_mask) -> list[int]:
    """Interior both-legs-flagged loop (twin of kernels.both_leg_flags)."""
    m = [bool(x) for x in np.asarray(leg_mask).reshape(-1)]
    if len(m) < 2:
        return []
    return [i for i in range(1, len(m)) if m[i - 1] and m[i]]
