"""Columnar adapters: object rows -> contiguous NumPy arrays.

The object model (:class:`~repro.core.geometry.Point`,
:class:`~repro.querying.index.IndexEntry`, trajectory samples) is ideal for
correctness but disastrous for throughput: every distance evaluation pays a
Python attribute walk and a function call.  The adapters here convert object
sequences into contiguous ``float64`` arrays **once**, after which every
kernel in this package runs as a handful of NumPy reductions.

Conventions used throughout :mod:`repro.kernels`:

* coordinates are ``(n, 2)`` C-contiguous ``float64`` arrays,
* space-time rows are ``(n, 3)`` arrays of ``x, y, t``,
* item identifiers are ``(n,)`` ``int64`` arrays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.geometry import Point


def coords_of(points: Iterable["Point"]) -> np.ndarray:
    """Pack points into an ``(n, 2)`` float array (``(0, 2)`` when empty)."""
    pts = points if isinstance(points, (list, tuple)) else list(points)
    # A flat fromiter is ~6x faster than np.array over a list of tuples:
    # no per-row tuple allocation, no sequence-protocol dispatch.
    flat = np.fromiter((c for p in pts for c in (p.x, p.y)), dtype=float, count=2 * len(pts))
    return flat.reshape(len(pts), 2)


def center_of(center) -> np.ndarray:
    """Coerce a query center (``Point`` or 2-sequence) to a ``(2,)`` array."""
    if hasattr(center, "x"):
        return np.array([center.x, center.y], dtype=float)
    return np.asarray(center, dtype=float).reshape(2)


def centers_of(centers: Sequence) -> np.ndarray:
    """Coerce a batch of query centers to an ``(m, 2)`` array."""
    if len(centers) == 0:
        return np.zeros((0, 2))
    if all(hasattr(c, "x") for c in centers):
        return coords_of(centers)
    return np.stack([center_of(c) for c in centers])


def entry_columns(entries: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Split index entries into ``(coords (n, 2), ids (n,) int64)`` columns."""
    if not entries:
        return np.zeros((0, 2)), np.zeros(0, dtype=np.int64)
    points = [e.point for e in entries]
    flat = np.fromiter(
        (c for p in points for c in (p.x, p.y)), dtype=float, count=2 * len(points)
    )
    ids = np.fromiter((e.item_id for e in entries), dtype=np.int64, count=len(entries))
    return flat.reshape(len(points), 2), ids


def xyt_columns(samples: Sequence) -> np.ndarray:
    """Pack ``(x, y, t)`` samples into an ``(n, 3)`` float array."""
    flat = np.fromiter(
        (c for s in samples for c in (s.x, s.y, s.t)), dtype=float, count=3 * len(samples)
    )
    return flat.reshape(len(samples), 3)


def frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only (for cache-safe sharing) and return it."""
    arr.flags.writeable = False
    return arr
