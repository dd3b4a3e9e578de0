"""Trajectory data model.

A *trajectory* is a time-ordered sequence of located samples from one moving
object — the first of the two SID special cases the tutorial distinguishes
(the other being STID, see :mod:`repro.core.stid`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from ..kernels import columnar, motion
from .geometry import BBox, Point, interpolate


@dataclass(frozen=True, slots=True)
class TrajectoryPoint:
    """One located sample: planar position, timestamp (seconds), metadata."""

    x: float
    y: float
    t: float

    @property
    def point(self) -> Point:
        return Point(self.x, self.y)

    def distance_to(self, other: "TrajectoryPoint") -> float:
        """Planar distance to another sample (timestamps ignored)."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def with_position(self, p: Point) -> "TrajectoryPoint":
        """Copy with position replaced by ``p`` (timestamp kept)."""
        return TrajectoryPoint(p.x, p.y, self.t)


class Trajectory:
    """An immutable, time-ordered sequence of :class:`TrajectoryPoint`.

    Construction validates temporal order (strictly increasing timestamps);
    all transformation methods return new trajectories.  Because points are
    frozen and every transform builds a new trajectory, the derived arrays
    (:meth:`as_xyt`, :meth:`speeds`, :meth:`headings`,
    :meth:`sampling_intervals`) are computed lazily once and cached as
    **read-only** NumPy arrays — repeated cleaning/quality/analytics passes
    over the same trajectory stop recomputing them.  Copy before mutating.
    """

    __slots__ = ("object_id", "_points", "_times", "_xyt", "_speeds", "_headings", "_gaps")

    def __init__(self, points: Sequence[TrajectoryPoint], object_id: str = "") -> None:
        pts = tuple(points)
        ts = np.fromiter((p.t for p in pts), dtype=float, count=len(pts))
        if ts.size > 1:
            bad = np.flatnonzero(np.diff(ts) <= 0)
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"timestamps must be strictly increasing, got {pts[i].t} then {pts[i + 1].t}"
                )
        self.object_id = object_id
        self._points: tuple[TrajectoryPoint, ...] = pts
        self._times: list[float] = ts.tolist()
        self._xyt: np.ndarray | None = None
        self._speeds: np.ndarray | None = None
        self._headings: np.ndarray | None = None
        self._gaps: np.ndarray | None = None

    # -- basic container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[TrajectoryPoint]:
        return iter(self._points)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Trajectory(self._points[idx], self.object_id)
        return self._points[idx]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Trajectory)
            and self.object_id == other.object_id
            and self._points == other._points
        )

    def __repr__(self) -> str:
        span = f"[{self._times[0]:.1f}, {self._times[-1]:.1f}]" if self._points else "[]"
        return f"Trajectory(id={self.object_id!r}, n={len(self)}, t={span})"

    def __reduce__(self) -> tuple[Callable[[np.ndarray, str], Trajectory], tuple[np.ndarray, str]]:
        """Pickle as the ``(n, 3)`` xyt block plus ``object_id``.

        One float block per trajectory instead of one object per point;
        cached derived arrays are not pickled and recompute lazily.
        """
        return _trajectory_from_xyt, (self.as_xyt(), self.object_id)

    # -- constructors --------------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        xs: Sequence[float],
        ys: Sequence[float],
        ts: Sequence[float],
        object_id: str = "",
    ) -> "Trajectory":
        """Build a trajectory from parallel coordinate/time arrays."""
        if not (len(xs) == len(ys) == len(ts)):
            raise ValueError("xs, ys, ts must have equal length")
        return cls(
            [TrajectoryPoint(float(x), float(y), float(t)) for x, y, t in zip(xs, ys, ts)],
            object_id,
        )

    # -- views ----------------------------------------------------------------------

    @property
    def points(self) -> tuple[TrajectoryPoint, ...]:
        return self._points

    @property
    def times(self) -> list[float]:
        return list(self._times)

    @property
    def duration(self) -> float:
        """Elapsed time between first and last sample (0 if < 2 points)."""
        if len(self._points) < 2:
            return 0.0
        return self._times[-1] - self._times[0]

    @property
    def length(self) -> float:
        """Total traveled path length."""
        return motion.path_length(self.as_xyt())

    def bbox(self) -> BBox:
        """Smallest bounding box covering all samples."""
        if not self._points:
            raise ValueError("cannot build a bbox from zero points")
        xyt = self.as_xyt()
        lo = xyt[:, :2].min(axis=0)
        hi = xyt[:, :2].max(axis=0)
        return BBox(float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))

    def as_xyt(self) -> np.ndarray:
        """The ``(n, 3)`` array of ``x, y, t`` rows (cached, read-only)."""
        if self._xyt is None:
            self._xyt = columnar.frozen(columnar.xyt_columns(self._points))
        return self._xyt

    def speeds(self) -> np.ndarray:
        """Per-leg speeds, ``(n-1,)`` (m/s) (cached, read-only)."""
        if self._speeds is None:
            self._speeds = columnar.frozen(motion.leg_speeds(self.as_xyt()))
        return self._speeds

    def headings(self) -> np.ndarray:
        """Per-leg headings in radians, ``(n-1,)`` (cached, read-only)."""
        if self._headings is None:
            self._headings = columnar.frozen(motion.leg_headings(self.as_xyt()))
        return self._headings

    def sampling_intervals(self) -> np.ndarray:
        """Gaps between consecutive timestamps, ``(n-1,)`` (cached, read-only)."""
        if self._gaps is None:
            self._gaps = columnar.frozen(motion.sampling_intervals(np.array(self._times)))
        return self._gaps

    # -- temporal access ------------------------------------------------------------

    def position_at(self, t: float) -> Point:
        """Linearly interpolated position at time ``t``.

        Raises ``ValueError`` outside the trajectory's time span.
        """
        if not self._points:
            raise ValueError("empty trajectory")
        if t < self._times[0] or t > self._times[-1]:
            raise ValueError(f"time {t} outside span [{self._times[0]}, {self._times[-1]}]")
        i = bisect_left(self._times, t)
        if i < len(self._times) and self._times[i] == t:
            return self._points[i].point
        a, b = self._points[i - 1], self._points[i]
        fraction = (t - a.t) / (b.t - a.t)
        return interpolate(a.point, b.point, fraction)

    def slice_time(self, t_start: float, t_end: float) -> "Trajectory":
        """Sub-trajectory of samples with ``t_start <= t <= t_end``."""
        lo = bisect_left(self._times, t_start)
        hi = bisect_right(self._times, t_end)
        return Trajectory(self._points[lo:hi], self.object_id)

    # -- transforms -----------------------------------------------------------------

    def resample(self, interval: float) -> "Trajectory":
        """Uniformly resample at ``interval`` seconds by linear interpolation."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        if len(self._points) < 2:
            return Trajectory(self._points, self.object_id)
        t0, t1 = self._times[0], self._times[-1]
        ts = np.arange(t0, t1 + 1e-9, interval)
        xyt = self.as_xyt()
        xs = np.interp(ts, xyt[:, 2], xyt[:, 0])
        ys = np.interp(ts, xyt[:, 2], xyt[:, 1])
        out = [
            TrajectoryPoint(float(x), float(y), float(t)) for x, y, t in zip(xs, ys, ts)
        ]
        return Trajectory(out, self.object_id)

    def downsample(self, keep_every: int) -> "Trajectory":
        """Keep every ``keep_every``-th point (always keeps the last point)."""
        if keep_every < 1:
            raise ValueError("keep_every must be >= 1")
        pts = list(self._points[::keep_every])
        if self._points and pts[-1] is not self._points[-1]:
            pts.append(self._points[-1])
        return Trajectory(pts, self.object_id)

    def shift_time(self, offset: float) -> "Trajectory":
        """Copy with every timestamp shifted by ``offset`` seconds."""
        return Trajectory(
            [TrajectoryPoint(p.x, p.y, p.t + offset) for p in self._points], self.object_id
        )

    def map_points(
        self, fn: Callable[[TrajectoryPoint], TrajectoryPoint]
    ) -> "Trajectory":
        """Apply ``fn`` to every point; timestamps must stay ordered."""
        return Trajectory([fn(p) for p in self._points], self.object_id)

    def split_on_gap(self, max_gap: float) -> list["Trajectory"]:
        """Split where consecutive timestamps differ by more than ``max_gap``."""
        if len(self._points) == 0:
            return []
        pieces: list[list[TrajectoryPoint]] = [[self._points[0]]]
        for prev, cur in zip(self._points, self._points[1:]):
            if cur.t - prev.t > max_gap:
                pieces.append([])
            pieces[-1].append(cur)
        return [Trajectory(piece, self.object_id) for piece in pieces]

    def concat(self, other: "Trajectory") -> "Trajectory":
        """Append ``other`` (whose first timestamp must come after our last)."""
        return Trajectory(self._points + other._points, self.object_id)


def _trajectory_from_xyt(xyt: np.ndarray, object_id: str) -> Trajectory:
    """Unpickle target of :meth:`Trajectory.__reduce__`."""
    return Trajectory([TrajectoryPoint(x, y, t) for x, y, t in xyt.tolist()], object_id)


def mean_pointwise_error(truth: Trajectory, estimate: Trajectory) -> float:
    """Mean distance between time-aligned samples of two equal-length trajectories."""
    if len(truth) != len(estimate):
        raise ValueError("trajectories must have equal length for pointwise error")
    if len(truth) == 0:
        return 0.0
    a, b = truth.as_xyt(), estimate.as_xyt()
    return float(np.mean(np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])))


def synchronized_error(truth: Trajectory, estimate: Trajectory, interval: float = 1.0) -> float:
    """Mean distance between the two trajectories sampled at common times.

    Used to score reconstructions whose sample times differ from the truth's.
    """
    t0 = max(truth.times[0], estimate.times[0])
    t1 = min(truth.times[-1], estimate.times[-1])
    if t1 < t0:
        raise ValueError("trajectories do not overlap in time")
    ts = np.arange(t0, t1 + 1e-9, interval)
    if ts.size == 0:
        return 0.0
    a, b = truth.as_xyt(), estimate.as_xyt()
    dx = np.interp(ts, a[:, 2], a[:, 0]) - np.interp(ts, b[:, 2], b[:, 0])
    dy = np.interp(ts, a[:, 2], a[:, 1]) - np.interp(ts, b[:, 2], b[:, 1])
    return float(np.mean(np.hypot(dx, dy)))
