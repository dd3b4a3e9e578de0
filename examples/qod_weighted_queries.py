"""Quality-of-Data scoring driving quality-weighted queries, end to end.

The full QoD loop of the tutorial: a sensor fleet reads a smooth
space-time field, but a few devices misbehave — one reports with a
constant bias, one froze an hour ago, one drifts steadily out of
calibration.  Every reading streams through an ingestion engine whose
``on_admit`` hook incrementally maintains a :class:`~repro.qod.QodRegistry`;
the registry's three control points (self checks, comparative reference
checks against spatial neighbors, deployment-status detectors) composite
into one score per sensor, with no labels or ground truth involved.

The scores then flow into exploitation: mapped to weights and installed
on the :class:`~repro.querying.PartitionedStore`, kNN queries rank by
effective distance ``d / w`` so low-quality sensors only answer when no
trustworthy one is near — and the asyncio serving layer caches weighted
answers keyed on the store's weights epoch, so re-scoring never serves a
stale result.

Run:  PYTHONPATH=src python examples/qod_weighted_queries.py
"""

import asyncio

import numpy as np

from repro.core import BBox, Point
from repro.ingest import IngestEngine, IngestEvent
from repro.qod import QodConfig, QodRegistry, qod_ingest_hook, quality_weights
from repro.querying import PartitionedStore, kd_partition
from repro.serve import KnnQueryRequest, QueryService
from repro.synth import SmoothField, random_sensor_sites, stuck_sensor
from repro.synth.corrupt import add_sensor_bias

SEED = 2022
N_SENSORS = 40
N_READINGS = 40
N_QUERIES = 60


def build_fleet(rng):
    """A field world with three misbehaving sensors hidden in the fleet."""
    box = BBox(0.0, 0.0, 1000.0, 1000.0)
    field = SmoothField(
        rng, box, n_bumps=5, length_scale=250.0, drift_speed=0.05, period=7200.0
    )
    sites = random_sensor_sites(rng, N_SENSORS, box)
    times = np.arange(N_READINGS, dtype=float) * 60.0
    series = field.sample_sensors(sites, times, rng, noise_sigma=0.3)
    series[3] = add_sensor_bias(series[3], 8.0)  # miscalibrated
    series[11] = stuck_sensor(series[11], 0, N_READINGS)  # frozen
    series[27] = series[27].with_values(  # drifting
        series[27].values + 0.01 * (times - times[0])
    )
    return box, field, sites, times, series, {3, 11, 27}


def ingest_and_score(series):
    """Stream every reading through the engine; the hook scores as we go."""
    registry = QodRegistry(
        QodConfig(
            value_bounds=(-50.0, 100.0),
            value_rate_bounds=(-0.05, 0.05),
            expected_interval=60.0,
            cqc_tolerance=4.0,
            cqc_min_scale=1.0,
            drift_tolerance=5e-3,
        )
    )
    with IngestEngine(n_shards=4, on_admit=qod_ingest_hook(registry)) as engine:
        for s in series:
            for t, v in zip(s.times, s.values):
                engine.offer(
                    IngestEvent(s.sensor_id, s.location.x, s.location.y, t, v, t)
                )
    return registry


async def serve_weighted(store, queries):
    """Ask each question both ways through the serving layer."""
    plain = [KnnQueryRequest(q, 5) for q in queries]
    weighted = [KnnQueryRequest(q, 5, weighted=True) for q in queries]
    async with QueryService(store) as svc:
        plain_responses = await svc.submit_many(plain)
        weighted_responses = await svc.submit_many(weighted)
    return plain_responses, weighted_responses


def main():
    rng = np.random.default_rng(SEED)
    box, field, sites, times, series, bad = build_fleet(rng)

    registry = ingest_and_score(series)
    scores = registry.scores()
    print("lowest-scoring sensors (no labels were used):")
    for sid, s in sorted(scores.items(), key=lambda kv: kv[1].composite)[:5]:
        print(
            f"  {sid:<10} composite={s.composite:.2f} "
            f"(self={s.self_check:.2f} ref={s.reference:.2f} deploy={s.deployment:.2f})"
        )
    flagged = {sid for sid, s in scores.items() if s.composite < 0.5}
    truth = {series[i].sensor_id for i in bad}
    print(f"flagged {sorted(flagged)} / injected faults {sorted(truth)}")

    # scores -> weights -> store: weighted kNN ranks by effective distance
    weights = quality_weights(scores)
    points = [Point(s.x, s.y) for s in sites]
    store = PartitionedStore(points, kd_partition(points, box, 8))
    store.set_quality_weights([weights[s.sensor_id] for s in series])

    queries = [
        Point(rng.uniform(50, 950), rng.uniform(50, 950)) for _ in range(N_QUERIES)
    ]
    plain_responses, weighted_responses = asyncio.run(serve_weighted(store, queries))

    ti = N_READINGS - 1
    t = float(times[ti])

    def score_responses(responses):
        err = []
        for q, resp in zip(queries, responses):
            estimate = np.mean([series[i].values[ti] for i in resp.results])
            err.append(estimate - field.value(q, t))
        return float(np.sqrt(np.mean(np.square(err))))

    rmse_plain = score_responses(plain_responses)
    rmse_weighted = score_responses(weighted_responses)
    print(f"\nkNN field estimate over {N_QUERIES} queries (truth = noise-free field):")
    print(f"  unweighted RMSE: {rmse_plain:.3f}")
    print(f"  QoD-weighted:    {rmse_weighted:.3f}")

    dodged = sum(
        len(set(p.results) & {i for i in range(N_SENSORS) if series[i].sensor_id in truth})
        - len(set(w.results) & {i for i in range(N_SENSORS) if series[i].sensor_id in truth})
        for p, w in zip(plain_responses, weighted_responses)
    )
    print(f"  faulty-sensor answers avoided by weighting: {dodged}")
    assert rmse_weighted <= rmse_plain, "weighting should not hurt on this fleet"


if __name__ == "__main__":
    main()
