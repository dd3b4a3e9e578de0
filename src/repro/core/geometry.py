"""Planar and spherical geometry primitives.

All spatial algorithms in this package operate on a small set of primitives
defined here: :class:`Point`, :class:`BBox`, and free functions over
polylines.  Synthetic worlds are planar (coordinates in meters), which keeps
error metrics exact; :func:`haversine_m` is provided for lon/lat data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True, slots=True)
class Point:
    """A 2-D point in planar coordinates (meters unless stated otherwise)."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in the same units as coordinates."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def translate(self, dx: float, dy: float) -> "Point":
        """Return a new point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def midpoint(self, other: "Point") -> "Point":
        """Return the midpoint of the segment from this point to ``other``."""
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def as_array(self) -> np.ndarray:
        """Return the point as a numpy ``(2,)`` float array."""
        return np.array([self.x, self.y], dtype=float)

    def __iter__(self):
        yield self.x
        yield self.y


@dataclass(frozen=True, slots=True)
class BBox:
    """An axis-aligned bounding box ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(f"degenerate bbox: {self}")

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "BBox":
        """Smallest bbox covering ``points``.  Raises on an empty iterable."""
        pts = list(points)
        if not pts:
            raise ValueError("cannot build a bbox from zero points")
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        return cls(min(xs), min(ys), max(xs), max(ys))

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def contains(self, p: Point) -> bool:
        """Whether ``p`` lies inside or on the border of the box."""
        return self.min_x <= p.x <= self.max_x and self.min_y <= p.y <= self.max_y

    def intersects(self, other: "BBox") -> bool:
        """Whether the two boxes share at least a border point."""
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    def expand(self, margin: float) -> "BBox":
        """Return a copy grown by ``margin`` on every side."""
        return BBox(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )

    def union(self, other: "BBox") -> "BBox":
        """Smallest bbox covering both boxes."""
        return BBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def min_distance_to(self, p: Point) -> float:
        """Minimum Euclidean distance from ``p`` to the box (0 if inside)."""
        dx = max(self.min_x - p.x, 0.0, p.x - self.max_x)
        dy = max(self.min_y - p.y, 0.0, p.y - self.max_y)
        return math.hypot(dx, dy)

    def max_distance_to(self, p: Point) -> float:
        """Maximum Euclidean distance from ``p`` to any point of the box."""
        dx = max(abs(p.x - self.min_x), abs(p.x - self.max_x))
        dy = max(abs(p.y - self.min_y), abs(p.y - self.max_y))
        return math.hypot(dx, dy)


def boxes_containing(
    boxes: Sequence[tuple[float, float, float, float]], x: float, y: float
) -> list[int]:
    """Ascending indices of the closed ``(min_x, min_y, max_x, max_y)``
    boxes that contain ``(x, y)`` (the :meth:`BBox.contains` test).

    A scalar scan for one point: over a few dozen box tuples it costs
    less than building a NumPy mask.  A NaN coordinate lies in no box.
    """
    return [
        i
        for i, (x0, y0, x1, y1) in enumerate(boxes)
        if x0 <= x <= x1 and y0 <= y <= y1
    ]


def euclidean(a: Point, b: Point) -> float:
    """Euclidean distance between two planar points."""
    return a.distance_to(b)


def haversine_m(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Great-circle distance in meters between two lon/lat pairs (degrees)."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlmb = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def bearing(a: Point, b: Point) -> float:
    """Direction from ``a`` to ``b`` in radians in ``[-pi, pi]``."""
    return math.atan2(b.y - a.y, b.x - a.x)


def angle_difference(theta1: float, theta2: float) -> float:
    """Smallest absolute difference between two angles (radians), in [0, pi]."""
    d = (theta1 - theta2) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def interpolate(a: Point, b: Point, fraction: float) -> Point:
    """Linear interpolation between ``a`` (fraction 0) and ``b`` (fraction 1)."""
    return Point(a.x + (b.x - a.x) * fraction, a.y + (b.y - a.y) * fraction)


def project_point_to_segment(p: Point, a: Point, b: Point) -> tuple[Point, float]:
    """Project ``p`` onto segment ``ab``.

    Returns ``(q, t)`` where ``q`` is the closest point on the segment and
    ``t`` in ``[0, 1]`` the normalized position of ``q`` along ``ab``.
    """
    ax, ay = a.x, a.y
    vx, vy = b.x - ax, b.y - ay
    seg_len_sq = vx * vx + vy * vy
    if seg_len_sq == 0.0:
        return a, 0.0
    t = ((p.x - ax) * vx + (p.y - ay) * vy) / seg_len_sq
    t = min(1.0, max(0.0, t))
    return Point(ax + t * vx, ay + t * vy), t


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    """Euclidean distance from ``p`` to segment ``ab``."""
    q, _ = project_point_to_segment(p, a, b)
    return p.distance_to(q)


def perpendicular_distance(p: Point, a: Point, b: Point) -> float:
    """Distance from ``p`` to the infinite line through ``a`` and ``b``.

    Falls back to point distance when ``a == b``.
    """
    vx, vy = b.x - a.x, b.y - a.y
    norm = math.hypot(vx, vy)
    if norm == 0.0:
        return p.distance_to(a)
    # Normalize the direction before the cross product: with a subnormal
    # ``ab`` the unnormalized products lose their precision and the ratio
    # can exceed the true distance.
    ux, uy = vx / norm, vy / norm
    return abs(ux * (a.y - p.y) - (a.x - p.x) * uy)


def polyline_length(points: Sequence[Point]) -> float:
    """Total length of the polyline through ``points`` (0 for < 2 points)."""
    return sum(points[i].distance_to(points[i + 1]) for i in range(len(points) - 1))


def point_along_polyline(points: Sequence[Point], distance: float) -> Point:
    """Point at ``distance`` along the polyline, clamped to its endpoints."""
    if not points:
        raise ValueError("empty polyline")
    if distance <= 0.0:
        return points[0]
    remaining = distance
    for i in range(len(points) - 1):
        seg = points[i].distance_to(points[i + 1])
        if remaining <= seg:
            if seg == 0.0:
                return points[i]
            return interpolate(points[i], points[i + 1], remaining / seg)
        remaining -= seg
    return points[-1]


def synchronized_euclidean_distance(
    p: Point, t: float, a: Point, ta: float, b: Point, tb: float
) -> float:
    """Synchronized Euclidean distance (SED) of ``(p, t)`` w.r.t. anchor segment.

    The SED is the distance between ``p`` and the position a uniform motion
    from ``(a, ta)`` to ``(b, tb)`` would occupy at time ``t``.  It is the
    error measure used by time-aware trajectory simplification (TD-TR,
    SQUISH-E).
    """
    if tb == ta:
        return p.distance_to(a)
    fraction = (t - ta) / (tb - ta)
    fraction = min(1.0, max(0.0, fraction))
    return p.distance_to(interpolate(a, b, fraction))


def pairwise_distances(points: Sequence[Point]) -> np.ndarray:
    """Symmetric ``(n, n)`` matrix of Euclidean distances."""
    arr = np.array([[p.x, p.y] for p in points], dtype=float)
    if arr.size == 0:
        return np.zeros((0, 0))
    diff = arr[:, None, :] - arr[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def convex_hull_area(points: Sequence[Point]) -> float:
    """Area of the convex hull of ``points`` (0 for < 3 points or collinear)."""
    pts = sorted(set((p.x, p.y) for p in points))
    if len(pts) < 3:
        return 0.0

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return 0.0
    area = 0.0
    for i in range(len(hull)):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % len(hull)]
        area += x1 * y2 - x2 * y1
    return abs(area) / 2.0
