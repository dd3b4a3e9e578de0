"""Vectorized compute core: columnar kernels for the package's hot paths.

IoT-scale quality assessment is a *volume* problem: the per-point object
loops that make the operator implementations readable collapse under the
100k-point workloads the ROADMAP targets.  This package is the shared
escape hatch — object sequences are packed into contiguous NumPy arrays
once (:mod:`~repro.kernels.columnar`) and every downstream hot path runs as
batched reductions:

* :mod:`~repro.kernels.distances` — point-set / pairwise / box-bound
  distances, deterministic kNN selection, spherical distance,
* :mod:`~repro.kernels.motion` — per-leg speeds, headings, turn angles,
  sampling intervals,
* :mod:`~repro.kernels.screens` — windowed-median residuals, robust
  z-scores, both-leg spike flags,
* :mod:`~repro.kernels.reference` — the retained scalar loops every kernel
  is equivalence-tested against (``tests/test_kernels.py``) and benchmarked
  against (``benchmarks/bench_kernels.py``).

Consumers: :mod:`repro.querying.index` (batch range/kNN),
:mod:`repro.cleaning.outliers`, :mod:`repro.analytics.similarity`,
:mod:`repro.querying.aggregates`, and the cached derived arrays on
:class:`repro.core.Trajectory`.
"""

from .columnar import (
    center_of,
    centers_of,
    coords_of,
    entry_columns,
    frozen,
    xyt_columns,
)
from .distances import (
    box_gap_dists,
    box_max_dists,
    box_min_dists,
    box_min_dists_many,
    chunked_range_hits,
    cross_dists,
    dists_to,
    haversine_m_many,
    knn_select,
    knn_select_many,
    paired_dists,
    range_mask,
    range_masks,
)
from .motion import (
    leg_displacements,
    leg_headings,
    leg_speeds,
    path_length,
    sampling_intervals,
    turn_angles,
)
from .screens import (
    both_leg_flags,
    robust_zscores,
    windowed_median_residuals,
    windowed_medians,
)

__all__ = [
    "center_of",
    "centers_of",
    "coords_of",
    "entry_columns",
    "frozen",
    "xyt_columns",
    "box_gap_dists",
    "box_max_dists",
    "box_min_dists",
    "box_min_dists_many",
    "chunked_range_hits",
    "cross_dists",
    "dists_to",
    "haversine_m_many",
    "knn_select",
    "knn_select_many",
    "paired_dists",
    "range_mask",
    "range_masks",
    "leg_displacements",
    "leg_headings",
    "leg_speeds",
    "path_length",
    "sampling_intervals",
    "turn_angles",
    "both_leg_flags",
    "robust_zscores",
    "windowed_median_residuals",
    "windowed_medians",
]
