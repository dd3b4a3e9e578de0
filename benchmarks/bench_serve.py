"""Benchmark: the quality-aware serving layer under closed-loop load (ISSUE 6).

Drives :class:`repro.serve.QueryService` with thousands of simulated
closed-loop clients (each awaits its response before issuing the next
query) over a partitioned spatial store and measures:

* **latency** — per-request p50/p99 and mean, queue wait included,
* **throughput** — sustained QPS over the closed-loop run,
* **coalescing** — kernel calls versus a naive ``max_batch=1`` service on
  the same workload (the ratio is the batching win),
* **caching** — epoch-validated hit rate on a skewed signature pool.

Writes ``BENCH_serve.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full run
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke    # CI gate

``--smoke`` runs a small client fleet and *asserts* the serving
invariants: zero dropped responses under the lossless ``block`` policy,
p99 latency under a generous budget, coalescing strictly beating the
naive service, and cached responses bit-identical to their uncached
originals.
"""

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import BBox, Point
from repro.querying import PartitionedStore, kd_partition, skewed_points
from repro.serve import KnnQueryRequest, QueryService, RangeQueryRequest

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

SEED = 2022

#: CI latency budget for the smoke fleet (generous: shared-runner safe).
SMOKE_P99_BUDGET_S = 0.25


def make_store(rng, n_points: int, n_partitions: int) -> PartitionedStore:
    box = BBox(0.0, 0.0, 1000.0, 1000.0)
    pts = skewed_points(rng, n_points, box, n_hotspots=5, hotspot_sigma=60.0)
    return PartitionedStore(pts, kd_partition(pts, box, n_partitions))


def make_workload(rng, n_clients: int, queries_per_client: int, n_distinct: int):
    """Per-client query scripts drawn from a shared skewed signature pool.

    The pool is what makes caching matter: clients re-ask popular questions
    (geometric rank weights), as dashboards and tiles do in practice.
    """
    centers = rng.uniform(50.0, 950.0, size=(n_distinct, 2))
    radii = rng.uniform(20.0, 80.0, size=n_distinct)
    ks = rng.integers(3, 12, size=n_distinct)
    weights = 0.97 ** np.arange(n_distinct)
    weights /= weights.sum()
    pool = []
    for i in range(n_distinct):
        center = Point(float(centers[i, 0]), float(centers[i, 1]))
        if i % 3:
            pool.append(RangeQueryRequest(center, float(radii[i])))
        else:
            pool.append(KnnQueryRequest(center, int(ks[i])))
    picks = rng.choice(n_distinct, size=(n_clients, queries_per_client), p=weights)
    return [[pool[j] for j in row] for row in picks]


async def _closed_loop(service: QueryService, scripts, latencies: list) -> None:
    async def client(script) -> None:
        for request in script:
            start = time.perf_counter()
            response = await service.submit(request)
            latencies.append(time.perf_counter() - start)
            assert response.ok, "closed-loop client lost a response"

    await asyncio.gather(*(client(s) for s in scripts))


def run_fleet(store: PartitionedStore, scripts, **svc_kwargs) -> dict:
    """One closed-loop run; returns latency/throughput/serving stats."""
    latencies: list = []

    async def go():
        async with QueryService(store, policy="block", **svc_kwargs) as svc:
            start = time.perf_counter()
            await _closed_loop(svc, scripts, latencies)
            wall = time.perf_counter() - start
        return wall, svc.stats, svc.cache.hit_rate()

    wall, stats, hit_rate = asyncio.run(go())
    lat = np.asarray(latencies)
    return {
        "clients": len(scripts),
        "requests": int(lat.size),
        "wall_s": wall,
        "qps": lat.size / wall,
        "latency_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "latency_p99_ms": float(np.percentile(lat, 99)) * 1e3,
        "latency_mean_ms": float(lat.mean()) * 1e3,
        "cache_hit_rate": hit_rate,
        "stats": stats.as_dict(),
    }


def check_cache_identity(store: PartitionedStore, scripts) -> None:
    """Cached responses must be bit-identical to their uncached originals."""

    async def go():
        async with QueryService(store) as svc:
            for request in {r.signature(): r for s in scripts[:20] for r in s}.values():
                first = await svc.submit(request)
                second = await svc.submit(request)
                assert not first.cached and second.cached
                assert second.results == first.results, "cache broke bit-identity"

    asyncio.run(go())


def check_epoch_invalidation(store: PartitionedStore) -> None:
    """A bumped dependency partition must force recomputation."""

    async def go():
        async with QueryService(store) as svc:
            request = RangeQueryRequest(Point(500.0, 500.0), 60.0)
            first = await svc.submit(request)
            svc.epochs.bump_point(500.0, 500.0)
            again = await svc.submit(request)
            assert not again.cached and again.results == first.results

    asyncio.run(go())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fleet; assert zero drops, p99 budget, coalescing > naive",
    )
    args = parser.parse_args(argv)
    rng = np.random.default_rng(SEED)

    if args.smoke:
        n_points, n_partitions = 4_000, 16
        n_clients, per_client, n_distinct = 400, 3, 120
    else:
        n_points, n_partitions = 20_000, 32
        n_clients, per_client, n_distinct = 10_000, 3, 2_000

    store = make_store(rng, n_points, n_partitions)
    scripts = make_workload(rng, n_clients, per_client, n_distinct)

    coalesced = run_fleet(store, scripts, max_batch=128)
    naive = run_fleet(store, scripts, max_batch=1)
    kernel_call_ratio = naive["stats"]["kernel_calls"] / coalesced["stats"]["kernel_calls"]
    check_cache_identity(store, scripts)
    check_epoch_invalidation(store)

    print(
        f"workload: {n_clients} closed-loop clients x {per_client} queries, "
        f"{n_distinct} distinct signatures, {n_points} points / {n_partitions} partitions"
    )
    print(f"{'service':<12} {'qps':>10} {'p50 ms':>8} {'p99 ms':>8} {'kernel calls':>13} {'hit rate':>9}")
    for name, r in (("coalesced", coalesced), ("naive", naive)):
        print(
            f"{name:<12} {r['qps']:>10.0f} {r['latency_p50_ms']:>8.2f} "
            f"{r['latency_p99_ms']:>8.2f} {r['stats']['kernel_calls']:>13.0f} "
            f"{r['cache_hit_rate']:>9.2%}"
        )
    print(
        f"coalescing: {kernel_call_ratio:.1f}x fewer kernel calls than naive "
        f"({coalesced['stats']['coalesce_ratio']:.1f} requests per call)"
    )

    if args.smoke:
        assert coalesced["stats"]["shed"] == 0, "block policy dropped responses"
        assert naive["stats"]["shed"] == 0, "naive run dropped responses"
        assert coalesced["latency_p99_ms"] < SMOKE_P99_BUDGET_S * 1e3, (
            f"p99 budget blown: {coalesced['latency_p99_ms']:.1f} ms "
            f">= {SMOKE_P99_BUDGET_S * 1e3:.0f} ms"
        )
        assert kernel_call_ratio > 1.0, "coalescing did not beat the naive service"
        print("smoke OK: zero drops, p99 within budget, coalescing beats naive")
        return 0

    OUT_PATH.write_text(
        json.dumps(
            {
                "seed": SEED,
                "cpu_count": os.cpu_count(),
                "workload": {
                    "clients": n_clients,
                    "queries_per_client": per_client,
                    "distinct_signatures": n_distinct,
                    "store_points": n_points,
                    "partitions": n_partitions,
                },
                "coalesced": coalesced,
                "naive": naive,
                "kernel_call_ratio_naive_over_coalesced": kernel_call_ratio,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
