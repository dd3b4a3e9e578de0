"""Comparative quality control: each sensor versus its spatial neighbors.

The reference control point asks whether a sensor *agrees with the
phenomenon around it*.  For every sensor this module finds the ``k``
nearest *other* sensor sites — one batched
:func:`repro.querying.index.brute_force_knn_many` call over the whole
fleet, which runs on the PR-2 columnar kernels — and takes the median of
their (windowed) mean values as the neighborhood consensus.  The median
makes the consensus robust: a bad sensor cannot poison its neighbors'
reference values unless a majority of a neighborhood is bad.

The neighbor lists form one rectangular graph (every row holds
``min(k, n - 1)`` ids, or none for a site that cannot be placed), so
the consensus is a single ``np.median(axis=1)``.  The graph depends
only on ``k`` and the sites, which rarely move: a caller that keeps the
graph of its last pass (as :class:`~repro.qod.registry.QodRegistry`
does) rebuilds it only when a sensor joins or moves.

Fleet-level robust statistics (median dispersion, median trend slope)
come from the same summaries and anchor the deployment detectors in
:mod:`repro.qod.checks`.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from ..core.geometry import Point
from ..obs import OBS
from ..querying.index import brute_force_knn_many, build_entries
from .checks import SensorSummary

#: Shared no-op context for disabled-observability paths.
_NULL = nullcontext()


#: A neighbor graph with the key it was built for: ``((k, sites), graph)``,
#: where ``sites`` holds each sensor's ``(x, y)`` in summary order and row
#: ``i`` of the ``(n, min(k, n - 1))`` index array lists sensor ``i``'s
#: neighbors nearest first, or is all ``-1`` when it found none.
_Graph = tuple[tuple[int, tuple[tuple[float, float], ...]], np.ndarray]


def neighbor_consensus(summaries: list[SensorSummary], k: int) -> list[float | None]:
    """Per-sensor median of the ``k`` nearest *other* sensors' mean values.

    One batched kNN call covers the whole fleet (``k + 1`` neighbors per
    site, self dropped by id).  Sensors with no neighbors — a fleet of
    one, or a site with a NaN coordinate — get ``None``, which the
    reference check reads as "unchecked, never penalize".  The output
    aligns with ``summaries``.
    """
    return _consensus(summaries, k, None)[0]


def _consensus(
    summaries: list[SensorSummary], k: int, cached: _Graph | None
) -> tuple[list[float | None], _Graph | None]:
    """:func:`neighbor_consensus`, reusing ``cached`` while its key matches.

    Returns the consensus and the graph it used, for the caller to pass
    back on its next pass; the graph is rebuilt when ``k`` or any site
    differs from ``cached``'s key (a sensor joined or moved).  The
    ``qod.reference`` span's ``graph`` attribute says which happened.
    """
    n = len(summaries)
    m = min(k, n - 1)
    if m < 1:
        return [None] * n, None
    key = (k, tuple((s.x, s.y) for s in summaries))
    graph = cached[1] if cached is not None and cached[0] == key else None
    cm = (
        OBS.tracer.span(
            "qod.reference", sensors=n, k=k, graph="rebuilt" if graph is None else "cached"
        )
        if OBS.enabled
        else _NULL
    )
    with cm:
        if graph is None:
            graph = _neighbor_graph(key[1], m)
        means = np.array([s.mean for s in summaries], dtype=float)
        medians = np.median(means[graph], axis=1).tolist()
    consensus = [v if j >= 0 else None for v, j in zip(medians, graph[:, 0].tolist())]
    return consensus, (key, graph)


def _neighbor_graph(sites: tuple[tuple[float, float], ...], m: int) -> np.ndarray:
    """Each site's ``m`` nearest *other* sites, ``(distance, id)`` order.

    Asks for ``m + 1`` neighbors and drops self by id; with coincident
    sites self may rank past the ``m + 1``-th, so each row is cut to ``m``
    either way.  The kNN kernel returns all ``m + 1`` ids or none: none
    when the ``(m + 1)``-th distance is NaN (the site has a NaN
    coordinate, or too few others have finite ones), and that row stays
    all ``-1``.
    """
    points = [Point(x, y) for x, y in sites]
    hits = brute_force_knn_many(build_entries(points), points, m + 1)
    graph = np.full((len(points), m), -1, dtype=np.intp)
    for i, ids in enumerate(hits):
        row = [j for j in ids if j != i][:m]
        graph[i, : len(row)] = row
    return graph


def fleet_dispersion(summaries: list[SensorSummary]) -> float:
    """Robust fleet-typical value dispersion: the median over sensors."""
    if not summaries:
        return 0.0
    return float(np.median([s.dispersion for s in summaries]))


def fleet_slope(summaries: list[SensorSummary]) -> float:
    """Robust fleet-typical value trend (units/s): the median over sensors."""
    if not summaries:
        return 0.0
    return float(np.median([s.slope for s in summaries]))
