"""Serving-layer QoD regression tests.

The bug class under guard: the result cache must never serve a weighted
answer computed under an old weight vector.  Weighted requests carry the
``weighted`` flag in their signature AND are keyed on the store's
``weights_epoch``, so ``set_quality_weights`` (or clearing weights)
implicitly invalidates every cached weighted answer while leaving
unweighted entries untouched.
"""

import asyncio

import numpy as np
import pytest

from repro.core import Point
from repro.querying import PartitionedStore, kd_partition, skewed_points
from repro.serve import KnnQueryRequest, QueryService


@pytest.fixture
def store(rng, box):
    pts = skewed_points(rng, 400, box, n_hotspots=3, hotspot_sigma=40.0)
    return PartitionedStore(pts, kd_partition(pts, box, 8))


def knn_requests(n, k=5, weighted=False):
    return [
        KnnQueryRequest(Point(100.0 + 83.0 * i, 140.0 + 61.0 * i), k, weighted=weighted)
        for i in range(n)
    ]


def serve_all(store, requests, **kwargs):
    async def go():
        async with QueryService(store, **kwargs) as svc:
            return await svc.submit_many(requests), svc.stats

    return asyncio.run(go())


def fresh_weights(rng, store):
    return 0.05 + 0.95 * rng.random(len(store.points))


class TestWeightedServing:
    def test_weighted_results_match_direct_store(self, rng, store):
        store.set_quality_weights(fresh_weights(rng, store))
        reqs = knn_requests(6, weighted=True)
        responses, _ = serve_all(store, reqs)
        for req, resp in zip(reqs, responses):
            assert resp.ok
            assert list(resp.results) == store.knn(req.center, req.k, weighted=True)

    def test_weighted_and_unweighted_cached_separately(self, rng, store):
        store.set_quality_weights(fresh_weights(rng, store))
        plain = knn_requests(4)
        weighted = knn_requests(4, weighted=True)

        async def go():
            async with QueryService(store) as svc:
                first = await svc.submit_many(plain + weighted)
                second = await svc.submit_many(plain + weighted)  # all hits
                return first, second, svc.stats

        first, second, stats = asyncio.run(go())
        assert stats.cache_hits == 8  # each flavor re-served from its own entry
        assert all(r.cached for r in second)
        assert [r.results for r in first] == [r.results for r in second]
        # the two flavors really ranked differently somewhere
        assert any(
            a.results != b.results for a, b in zip(first[:4], first[4:8])
        )

    def test_regression_weight_update_invalidates_weighted_cache(self, rng, store):
        """Toggling/replacing weights must never serve a stale weighted hit."""
        req = knn_requests(1, k=7, weighted=True)[0]
        store.set_quality_weights(fresh_weights(rng, store))

        async def go():
            async with QueryService(store) as svc:
                first = await svc.submit(req)
                repeat = await svc.submit(req)  # same epoch: a legitimate hit
                store.set_quality_weights(fresh_weights(rng, store))
                after_update = await svc.submit(req)
                want_updated = store.knn(req.center, req.k, weighted=True)
                store.set_quality_weights(None)
                after_clear = await svc.submit(req)
                return first, repeat, after_update, after_clear, want_updated

        first, repeat, after_update, after_clear, want_updated = asyncio.run(go())
        assert not first.cached and repeat.cached
        assert not after_update.cached, "served stale weighted result"
        assert not after_clear.cached, "clearing weights must also invalidate"
        assert list(after_update.results) == want_updated
        assert list(after_clear.results) == store.knn(req.center, req.k)

    def test_weight_update_leaves_unweighted_cache_alone(self, rng, store):
        reqs = knn_requests(4)

        async def go():
            async with QueryService(store) as svc:
                await svc.submit_many(reqs)
                store.set_quality_weights(fresh_weights(rng, store))
                return await svc.submit_many(reqs)

        responses = asyncio.run(go())
        assert all(r.cached for r in responses), "unweighted entries over-invalidated"

    def test_weighted_without_installed_weights_serves_plain_ranking(self, store):
        reqs = knn_requests(3, weighted=True)
        responses, _ = serve_all(store, reqs)
        for req, resp in zip(reqs, responses):
            assert list(resp.results) == store.knn(req.center, req.k)

    def test_weighted_epoch_survives_service_restart(self, rng, store):
        """Epoch keying is store state, not service state: a new service
        instance over the same store still distinguishes epochs."""
        req = knn_requests(1, weighted=True)[0]
        store.set_quality_weights(fresh_weights(rng, store))
        first, _ = serve_all(store, [req])
        store.set_quality_weights(np.full(len(store.points), 0.5))
        second, _ = serve_all(store, [req])
        assert first[0].ok and second[0].ok
        assert not second[0].cached
