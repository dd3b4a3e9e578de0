"""Seeded city generator: every input a workload run receives.

This is the benchmark's ``loadgen`` layer on the input side.  Everything
here is a pure function of ``(workload, seed, seconds)``; the system
under test receives only the generated objects (base points, the offered
reading stream, query requests and their schedules), never the seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.core import BBox, Point
from repro.ingest import IngestEvent, corrupt_stream
from repro.querying.distributed import skewed_points
from repro.serve import KnnQueryRequest, RangeQueryRequest
from repro.synth import SmoothField

REGION = BBox(0.0, 0.0, 10_000.0, 10_000.0)

#: Physical range and change-rate limits shared by the gates and the QoD config.
VALUE_RANGE = (-20.0, 80.0)
RATE_LIMIT = 0.5  # units per second
READING_INTERVAL = 10.0  # seconds of event time between one sensor's readings

KNN_K = 8


@dataclass(frozen=True)
class Workload:
    """Parameters of one named workload (all recorded in the provenance).

    ``ingest_rate`` is an open-loop reading rate (readings/s).  A
    ``flood_rate`` above 0 first floods a stream of ``flood_rate *
    seconds`` readings, offered as fast as the ``block`` policy allows.
    ``query_rate`` is an open-loop Poisson rate (q/s); ``None`` runs
    ``clients`` closed-loop coroutine clients for the run's seconds.
    ``query_pool`` is the number of distinct signatures that a
    ``reuse_share`` of requests draws from with Zipf-skewed reuse; the rest
    are one-off.  ``None`` makes every request distinct.

    A workload that leaves one side idle still has to report that side's
    end-to-end metrics, so it probes it for ``probe_window`` seconds once
    its main load is done, with the main load absent:
    ``probe="ingest"`` offers paced readings after the closed-loop
    queries; ``probe="both"`` offers paced readings and open-loop queries
    once the flood has settled.
    """

    name: str
    base_points: int
    partitions: int
    sensors: int
    districts: int
    district_side: float
    mean_delay: float
    ingest_rate: float
    query_rate: float | None
    clients: int
    query_pool: int | None
    reuse_share: float
    mix: tuple[float, float, float]  # shares of range, kNN, weighted kNN
    qod_refresh_s: float
    flood_rate: float = 0.0
    flood_chunk: int = 256
    probe: str | None = None
    probe_window: float = 0.0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="city_loop",
            base_points=50_000,
            partitions=32,
            sensors=120,
            districts=2,
            district_side=800.0,
            mean_delay=2.0,
            ingest_rate=300.0,
            query_rate=300.0,
            clients=0,
            query_pool=2_000,
            reuse_share=0.55,
            mix=(0.4, 0.4, 0.2),
            qod_refresh_s=0.25,
        ),
        Workload(
            name="scan_cold",
            base_points=100_000,
            partitions=32,
            sensors=30,
            districts=1,
            district_side=1_000.0,
            mean_delay=2.0,
            ingest_rate=500.0,
            query_rate=None,
            clients=32,
            query_pool=None,
            reuse_share=0.0,
            mix=(0.4, 0.4, 0.2),
            qod_refresh_s=0.25,
            probe="ingest",
            probe_window=10.0,
        ),
        Workload(
            name="ingest_flood",
            base_points=50_000,
            partitions=32,
            sensors=100,
            districts=0,
            district_side=0.0,
            mean_delay=4.0,
            ingest_rate=400.0,
            query_rate=200.0,
            clients=0,
            query_pool=None,
            reuse_share=0.0,
            mix=(0.4, 0.4, 0.2),
            qod_refresh_s=0.25,
            flood_rate=3_000.0,
            probe="both",
            probe_window=10.0,
        ),
    )
}


@dataclass
class City:
    """Generated inputs of one run."""

    points: list[Point]
    readings: list[IngestEvent]  # in offer order: the flood, then paced readings
    n_flood: int
    reading_due: np.ndarray  # offer offsets (s) of the paced readings, readings[n_flood:]
    site_sensor: dict[tuple[float, float], str]
    queries: list  # requests in issue order
    query_due: np.ndarray | None  # open-loop issue offsets (s); None = closed loop
    warmup: list
    check_sample: list
    params: dict[str, object] = field(default_factory=dict)


def _sensor_sites(rng: np.random.Generator, w: Workload) -> list[Point]:
    """Sites city-wide, or clustered into ``w.districts`` square districts."""
    if w.districts == 0:
        xs = rng.uniform(REGION.min_x, REGION.max_x, w.sensors)
        ys = rng.uniform(REGION.min_y, REGION.max_y, w.sensors)
        return [Point(float(x), float(y)) for x, y in zip(xs, ys)]
    half = w.district_side / 2.0
    centers = rng.uniform(REGION.min_x + half, REGION.max_x - half, (w.districts, 2))
    which = np.arange(w.sensors) % w.districts
    offsets = rng.uniform(-half, half, (w.sensors, 2))
    xy = centers[which] + offsets
    return [Point(float(x), float(y)) for x, y in xy]


def _reading_stream(
    rng: np.random.Generator, w: Workload, n_readings: int
) -> tuple[list[IngestEvent], dict[tuple[float, float], str]]:
    """A corrupted field stream (spikes, duplicates, transport delay).

    Readings are keyed downstream by ``(sensor_id, t)``; exact repeats of
    that key (a zero-jitter duplicate) are dropped here so the key is unique.
    """
    field_ = SmoothField(rng, REGION, n_bumps=6, length_scale=1_500.0, drift_speed=0.05)
    sites = _sensor_sites(rng, w)
    per_sensor = int(np.ceil(n_readings / w.sensors)) + 2
    times = np.arange(per_sensor, dtype=float) * READING_INTERVAL
    series = field_.sample_sensors(sites, times, rng, noise_sigma=0.5)
    events = corrupt_stream(
        series,
        rng,
        duplicate_rate=0.05,
        spike_rate=0.03,
        spike_magnitude=60.0,
        mean_delay=w.mean_delay,
    )
    seen: set[tuple[str, float]] = set()
    unique: list[IngestEvent] = []
    for ev in events:
        key = (ev.sensor_id, ev.t)
        if key not in seen:
            seen.add(key)
            unique.append(ev)
    site_sensor = {(s.location.x, s.location.y): s.sensor_id for s in series}
    return unique[:n_readings], site_sensor


def _requests(
    rng: np.random.Generator, w: Workload, points: list[Point], n: int
) -> list:
    """``n`` requests: centers near base points (70%) or anywhere (30%)."""
    kinds = rng.choice(3, size=n, p=list(w.mix))
    near = rng.random(n) < 0.7
    anchors = rng.integers(0, len(points), n)
    jitter = rng.normal(0.0, 60.0, (n, 2))
    uniform = rng.uniform(REGION.min_x, REGION.max_x, (n, 2))
    radii = rng.uniform(50.0, 150.0, n)
    out = []
    for i in range(n):
        if near[i]:
            p = points[int(anchors[i])]
            c = Point(p.x + float(jitter[i, 0]), p.y + float(jitter[i, 1]))
        else:
            c = Point(float(uniform[i, 0]), float(uniform[i, 1]))
        if kinds[i] == 0:
            out.append(RangeQueryRequest(c, float(radii[i])))
        else:
            out.append(KnnQueryRequest(c, KNN_K, weighted=bool(kinds[i] == 2)))
    return out


def _poisson_offsets(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Poisson arrivals conditioned on their count: sorted uniform instants.

    Fixing the count at ``rate * seconds`` keeps the offered load, and so
    ``query_qps``, the same across seeds.
    """
    return np.sort(rng.uniform(0.0, seconds, int(rate * seconds)))


def build_city(w: Workload, seed: int, seconds: float) -> City:
    """Every input of one ``w`` run, deterministic in ``(seed, seconds)``."""
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    points = skewed_points(
        rng, w.base_points, REGION, n_hotspots=8, hotspot_sigma=600.0, hotspot_fraction=0.7
    )
    n_flood = int(w.flood_rate * seconds)
    n_paced = int(w.ingest_rate * (w.probe_window if w.probe else seconds))
    readings, site_sensor = _reading_stream(rng, w, n_flood + n_paced)
    reading_due = np.arange(len(readings) - n_flood, dtype=float) / w.ingest_rate

    if w.query_rate is not None:
        query_due = _poisson_offsets(rng, w.query_rate, w.probe_window if w.probe == "both" else seconds)
        n_queries = len(query_due)
    else:
        query_due = None
        # Closed loop: more distinct requests than the fastest run can use.
        n_queries = int(8_000 * seconds)
    if w.query_pool is not None:
        # Cache-hit and miss latencies differ by an order of magnitude; the
        # one-off share keeps the hit rate well away from one half, so that
        # query_p50_ms does not straddle the two modes.
        pool = _requests(rng, w, points, w.query_pool)
        one_off = _requests(rng, w, points, n_queries)
        p = 1.0 / np.arange(1, w.query_pool + 1, dtype=float)
        picks = rng.choice(w.query_pool, size=n_queries, p=p / p.sum())
        reuse = rng.random(n_queries) < w.reuse_share
        queries = [pool[int(i)] if r else q for i, r, q in zip(picks, reuse, one_off)]
        sample_from = pool
    else:
        queries = _requests(rng, w, points, n_queries)
        sample_from = queries[: max(1, n_queries // 4)]
    warmup = _requests(rng, w, points, 48)
    check_idx = rng.choice(len(sample_from), size=min(240, len(sample_from)), replace=False)
    check_sample = [sample_from[int(i)] for i in sorted(check_idx)]
    return City(
        points=points,
        readings=readings,
        n_flood=n_flood,
        reading_due=reading_due,
        site_sensor=site_sensor,
        queries=queries,
        query_due=query_due,
        warmup=warmup,
        check_sample=check_sample,
        params={
            **dataclasses.asdict(w),
            "readings": len(readings),
            "flood_readings": n_flood,
            "queries_scheduled": len(queries) if query_due is not None else None,
        },
    )
