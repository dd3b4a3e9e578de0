"""Reference tests for the batched routers and dependency-set oracles.

``PartitionedStore`` answers a whole batch in one vectorized pass: range
overlap is one ``(queries, partitions)`` broadcast, kNN advances all
queries through their best-first partition orders in rounds, and both
dependency-set oracles work on the whole batch.  The contract is that a
batch is indistinguishable from its queries asked one at a time — the
same answers, the same ``partitions_touched`` total, the same dependency
sets — and that the answers equal a brute-force scan computed with the
scalar reference distance (bit-identical to the kernels' formula, so
near-ties rank the same way).

The stores are drawn to hit the awkward cases: integer coordinates and
duplicate points (tied distances), grids with empty cells, delta tails
(some outside the static boxes, growing scan boxes), partial compaction,
installed weights shorter than the store (appended points weigh 1.0) and
``k`` at or beyond the store size.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core import BBox, Point
from repro.kernels import reference
from repro.querying import PartitionedStore, grid_partition, kd_partition

REGION = BBox(0.0, 0.0, 20.0, 20.0)

inside = st.integers(min_value=0, max_value=20).map(float)
coord = st.integers(min_value=-4, max_value=24).map(float)  # appends may land outside
points = st.lists(st.builds(Point, coord, coord), min_size=0, max_size=40)


@st.composite
def stores(draw):
    """A store plus the weights it carries (``None`` when unweighted)."""
    base = draw(st.lists(st.builds(Point, inside, inside), min_size=1, max_size=60))
    base += base[: draw(st.integers(min_value=0, max_value=5))]  # duplicates
    if draw(st.booleans()):
        parts = grid_partition(base, REGION, draw(st.integers(min_value=1, max_value=4)))
    else:
        parts = kd_partition(base, REGION, draw(st.integers(min_value=1, max_value=8)))
    store = PartitionedStore(base, parts)
    store.append_many(draw(points))
    if draw(st.booleans()):
        store.compact(threshold=draw(st.sampled_from([0.0, 0.5])))
    store.append_many(draw(points))
    weights = None
    if draw(st.booleans()):
        n = len(store.points) - draw(st.integers(min_value=0, max_value=5))
        levels = st.sampled_from([0.25, 0.5, 1.0])
        weights = np.array(draw(st.lists(levels, min_size=max(n, 0), max_size=max(n, 0))))
        store.set_quality_weights(weights)
    return store, weights


centers = st.lists(st.builds(Point, coord, coord), min_size=1, max_size=12)


def brute_knn(store, weights, center, k):
    """Rank every point by ``(d / w, id)`` with the scalar reference distance."""
    d = reference.dists_to([(p.x, p.y) for p in store.points], center)
    if weights is not None:
        w = np.ones(len(store.points))
        w[: len(weights)] = weights
        d = d / w
    return sorted(range(len(store.points)), key=lambda i: (float(d[i]), i))[:k]


def scalar_touched(store, weights, center, k):
    """Partitions one query visits under the best-first rule, as a plain loop.

    Visit in ``(scan-box lower bound, partition id)`` order; stop once ``k``
    candidates are known and the next bound exceeds the k-th distance.
    """
    boxes = store._tiers.snapshot().boxes  # scan boxes, grown by appends
    lower = kernels.box_min_dists(boxes, center)  # the per-query bound
    d = reference.dists_to([(p.x, p.y) for p in store.points], center)
    if weights is not None:
        w = np.ones(len(store.points))
        w[: len(weights)] = weights
        d = d / w
    seen: list[float] = []
    touched = 0
    for p in sorted(range(len(boxes)), key=lambda p: (lower[p], p)):
        if len(seen) >= k and lower[p] > sorted(seen)[k - 1]:
            break
        touched += 1
        seen += [float(d[i]) for i in store.partitions[p].point_indices]
    return touched


def brute_range(store, center, radius):
    d = reference.dists_to([(p.x, p.y) for p in store.points], center)
    return [i for i in range(len(store.points)) if d[i] <= radius]


def touched_by(store, call):
    before = store.partitions_touched
    out = call()
    return out, store.partitions_touched - before


@settings(max_examples=80, deadline=None, derandomize=True)
@given(world=stores(), cs=centers, k_extra=st.integers(min_value=-3, max_value=3))
def test_knn_batch_equals_single_queries_and_brute_force(world, cs, k_extra):
    store, weights = world
    k = max(1, min(len(store.points), 8) + k_extra)  # also k >= store size
    for weighted in (False, True):
        effective = weights if weighted else None
        batch, batch_touched = touched_by(
            store, lambda: store.knn_many(cs, k, weighted=weighted)
        )
        singles = []
        single_touched = 0
        for c in cs:
            hit, t = touched_by(store, lambda c=c: store.knn(c, k, weighted=weighted))
            singles.append(hit)
            single_touched += t
        assert batch == singles
        assert batch_touched == single_touched
        assert batch_touched == sum(scalar_touched(store, effective, c, k) for c in cs)
        assert batch == [brute_knn(store, effective, c, k) for c in cs]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    world=stores(),
    cs=centers,
    radii=st.lists(st.sampled_from([0.0, 1.0, 2.5, 5.0, 40.0]), min_size=12, max_size=12),
)
def test_range_batch_equals_single_queries_and_brute_force(world, cs, radii):
    store, _ = world
    rs = radii[: len(cs)]
    batch, batch_touched = touched_by(store, lambda: store.range_query_many(cs, rs))
    singles = []
    single_touched = 0
    for c, r in zip(cs, rs):
        hit, t = touched_by(store, lambda c=c, r=r: store.range_query(c, r))
        singles.append(hit)
        single_touched += t
    assert batch == singles
    assert batch_touched == single_touched
    boxes = store._tiers.snapshot().boxes
    assert batch_touched == sum(
        int(np.sum(kernels.box_min_dists(boxes, c) <= r)) for c, r in zip(cs, rs)
    )
    assert [sorted(h) for h in batch] == [brute_range(store, c, r) for c, r in zip(cs, rs)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    world=stores(),
    cs=centers,
    radius=st.sampled_from([0.0, 2.5, 40.0]),
    k=st.integers(min_value=1, max_value=70),
)
def test_dependency_oracles_batch_equals_single_queries(world, cs, radius, k):
    store, _ = world
    everything = tuple(range(len(store.partitions)))
    sets = store.range_partition_sets(cs, radius)
    assert sets == [store.range_partition_sets([c], radius)[0] for c in cs]
    assert all(sets)  # never empty: a disk no box bounds depends on everything
    for weighted in (False, True):
        hits = store.knn_many(cs, k, weighted=weighted)
        for append_only in (True, False):
            sets = store.knn_partition_sets(
                cs, hits, k, append_only=append_only, weighted=weighted
            )
            singles = [
                store.knn_partition_sets(
                    [c], [h], k, append_only=append_only, weighted=weighted
                )[0]
                for c, h in zip(cs, hits)
            ]
            assert sets == singles
            for s, h in zip(sets, hits):
                assert s  # never empty
                if len(h) < k:
                    assert s == everything  # a short answer ranks the whole store
