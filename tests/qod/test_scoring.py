"""Scoring-engine tests: check functions, incremental==batch, monotonicity.

The monotonicity suite is the per-injector contract of the tentpole: for
every fault injector, turning the fault's severity up never *raises* the
corrupted sensor's composite score.  All streams are deterministic
(seeded rng only), so the assertions are exact replays.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ingest.events import IngestEvent
from repro.qod import (
    QodConfig,
    QodRegistry,
    composite_score,
    deployment_score,
    drift_score,
    obstruction_score,
    out_of_bounds_score,
    reference_score,
    resolve_neighbors,
    resolve_weight_floor,
    resolve_weight_power,
    resolve_window,
    self_consistency_score,
    staleness_factor,
    stuck_score,
)

#: A deliberately sensitive config the synthetic fleets below exercise.
CONFIG = QodConfig(
    value_bounds=(-20.0, 60.0),
    value_rate_bounds=(-0.05, 0.05),
    min_readings=4,
    stuck_sigma=0.05,
    indoor_ratio=0.5,
    drift_tolerance=1e-3,
)

N_READINGS = 60
INTERVAL = 60.0


def clean_value(t: float, offset: float = 0.0) -> float:
    """A smooth diurnal-ish signal every healthy sensor follows."""
    return 20.0 + 3.0 * math.sin(2.0 * math.pi * t / 3600.0) + offset


def fleet_events(mutate=None, n_sensors: int = 10):
    """One event stream for a grid fleet; ``mutate(i, t, v)`` edits sensor 0."""
    events = []
    for i in range(n_sensors):
        x, y = float(100 * (i % 5)), float(100 * (i // 5))
        for j in range(N_READINGS):
            t = j * INTERVAL
            v = clean_value(t, offset=0.1 * i)
            if i == 0 and mutate is not None:
                v = mutate(j, t, v)
            events.append(IngestEvent(f"s{i}", x, y, t, v, t))
    return events


def composite_of_sensor0(mutate=None) -> float:
    registry = QodRegistry.from_events(fleet_events(mutate), CONFIG)
    return registry.scores()["s0"].composite


class TestCheckFunctions:
    def test_out_of_bounds_ramp(self):
        assert out_of_bounds_score(0, 0) == 1.0
        assert out_of_bounds_score(10, 0) == 1.0
        assert out_of_bounds_score(10, 5) == 0.5
        assert out_of_bounds_score(10, 10) == 0.0

    def test_self_consistency_defaults_never_penalize(self):
        assert self_consistency_score(None, None) == 1.0
        assert self_consistency_score(0.5, None) == 0.5
        assert self_consistency_score(None, 0.25) == 0.25
        assert self_consistency_score(0.5, 0.5) == 0.25

    def test_reference_score_falls_with_deviation(self):
        at = lambda d: reference_score(20.0 + d, 20.0, 1.0, 1.0)
        assert at(0.0) == 1.0
        assert at(1.0) == pytest.approx(math.exp(-0.5))
        assert at(3.0) < at(1.0) < at(0.0)

    def test_stuck_score_ramp(self):
        assert stuck_score(0.0, 0.05) == 0.0
        assert stuck_score(0.025, 0.05) == 0.5
        assert stuck_score(0.05, 0.05) == 1.0
        assert stuck_score(5.0, 0.05) == 1.0
        assert stuck_score(0.0, 0.0) == 1.0  # detector disabled

    def test_obstruction_score_relative_to_fleet(self):
        assert obstruction_score(2.0, 2.0, 0.5) == 1.0
        assert obstruction_score(0.5, 2.0, 0.5) == 0.5
        assert obstruction_score(0.0, 2.0, 0.5) == 0.0
        assert obstruction_score(0.0, 0.0, 0.5) == 1.0  # quiet fleet: no signal

    def test_drift_score_uses_excess_over_fleet_trend(self):
        assert drift_score(0.01, 0.01, 1e-3) == 1.0  # fleet-wide trend is fine
        assert drift_score(0.011, 0.01, 1e-3) == pytest.approx(math.exp(-0.5))
        assert drift_score(0.02, 0.01, 1e-3) < 1e-8

    def test_deployment_takes_worst_detector(self):
        assert deployment_score(1.0, 1.0, 0.2) == 0.2
        assert deployment_score(0.0, 1.0, 1.0) == 0.0

    def test_composite_geometric_mean(self):
        w = (0.4, 0.35, 0.25)
        assert composite_score(1.0, 1.0, 1.0, w) == pytest.approx(1.0)
        assert composite_score(0.0, 1.0, 1.0, w) == 0.0
        mid = composite_score(0.5, 0.5, 0.5, w)
        assert mid == pytest.approx(0.5)
        assert composite_score(1.0, 0.5, 1.0, w) == pytest.approx(0.5**0.35)

    def test_staleness_factor(self):
        assert staleness_factor(10.0, None) == 1.0
        assert staleness_factor(10.0, 20.0) == 1.0
        assert staleness_factor(40.0, 20.0) == pytest.approx(math.exp(-1.0))


class TestConfig:
    def test_env_resolvers(self, monkeypatch):
        assert resolve_neighbors() == 5
        assert resolve_weight_floor() == 0.05
        assert resolve_weight_power() == 2.0
        assert resolve_window() is None
        monkeypatch.setenv("REPRO_QOD_NEIGHBORS", "9")
        monkeypatch.setenv("REPRO_QOD_WEIGHT_FLOOR", "0.2")
        monkeypatch.setenv("REPRO_QOD_WEIGHT_POWER", "3.5")
        monkeypatch.setenv("REPRO_QOD_WINDOW", "7200")
        assert resolve_neighbors() == 9
        assert resolve_weight_floor() == 0.2
        assert resolve_weight_power() == 3.5
        assert resolve_window() == 7200.0
        # explicit values always win over the environment
        assert resolve_neighbors(3) == 3
        assert resolve_window(60.0) == 60.0
        config = QodConfig.from_env()
        assert (config.neighbors, config.weight_floor) == (9, 0.2)
        assert (config.weight_power, config.window) == (3.5, 7200.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            QodConfig(neighbors=0)
        with pytest.raises(ValueError):
            QodConfig(weight_floor=0.0)
        with pytest.raises(ValueError):
            QodConfig(control_weights=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            QodConfig(value_bounds=(5.0, -5.0))
        with pytest.raises(ValueError):
            QodConfig(window=-1.0)


class TestIncrementalEqualsBatch:
    """The incremental-maintenance oracle of the registry."""

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),  # sensor
                st.floats(min_value=-5.0, max_value=45.0),  # value
                # site: 0 home, 1-2 moved, 3 no position (a NaN x)
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=60,
        ),
        probe_every=st.integers(min_value=1, max_value=7),
        min_readings=st.sampled_from([1, 4]),
    )
    # Always tried: the whole fleet reports, then s0 moves and changes
    # both its own and s3's two nearest neighbors.
    @example(
        data=[(i, 10.0 + i, 0) for i in range(6)] + [(0, 30.0, 2)],
        probe_every=1,
        min_readings=1,
    )
    def test_streaming_scores_match_batch_rebuild(self, data, probe_every, min_readings):
        # Six sensors with two neighbors each: a join or a move changes
        # neighborhoods, so every probe checks the registry's cached
        # neighbor graph against a fresh rebuild.
        # ``min_readings=1`` scores every sensor's reference check at once;
        # 4 mixes cold-start and scored sensors.
        config = dataclasses.replace(CONFIG, neighbors=2, min_readings=min_readings)
        events = []
        for j, (sensor, value, site) in enumerate(data):
            x = math.nan if site == 3 else 100.0 * (sensor % 3) + 70.0 * site
            y = 100.0 * (sensor // 3) - 45.0 * site
            events.append(IngestEvent(f"s{sensor}", x, y, j * 30.0, value, j * 30.0))
        streaming = QodRegistry(config)
        for j, event in enumerate(events):
            streaming.update(event)
            if j % probe_every == 0:  # mid-stream reads must not perturb state
                rebuilt = QodRegistry.from_events(events[: j + 1], config)
                assert streaming.scores() == rebuilt.scores()
        batch = QodRegistry.from_events(events, config)
        assert streaming.scores() == batch.scores()

    def test_windowed_config_matches_too(self):
        config = QodConfig(
            value_rate_bounds=(-0.05, 0.05), window=600.0, min_readings=4
        )
        events = fleet_events(n_sensors=4)
        streaming = QodRegistry(config)
        for event in events:
            streaming.update(event)
            streaming.summaries()
        assert streaming.scores() == QodRegistry.from_events(events, config).scores()

    def test_scoring_is_deterministic(self):
        a = QodRegistry.from_events(fleet_events(), CONFIG).scores()
        b = QodRegistry.from_events(fleet_events(), CONFIG).scores()
        assert a == b


class TestInjectorMonotonicity:
    """More fault severity never raises the corrupted sensor's score."""

    def assert_non_increasing(self, composites, tol=1e-9):
        healthy = composites[0]
        for worse in composites[1:]:
            assert worse <= healthy + tol
        for a, b in zip(composites, composites[1:]):
            assert b <= a + tol

    def test_bias_injector(self):
        composites = [
            composite_of_sensor0(lambda j, t, v: v + bias)
            for bias in (0.0, 2.0, 5.0, 10.0, 20.0)
        ]
        self.assert_non_increasing(composites)
        assert composites[-1] < 0.25 * composites[0]

    def test_drift_injector(self):
        composites = [
            composite_of_sensor0(lambda j, t, v, s=slope: v + s * t)
            for slope in (0.0, 1e-3, 5e-3, 2e-2)
        ]
        self.assert_non_increasing(composites)
        assert composites[-1] < 0.25

    def test_stuck_injector(self):
        def frozen(fraction):
            cut = int(N_READINGS * (1.0 - fraction))
            return lambda j, t, v: v if j < cut else clean_value(cut * INTERVAL)

        composites = [
            composite_of_sensor0(frozen(f)) for f in (0.0, 0.5, 0.75, 1.0)
        ]
        self.assert_non_increasing(composites, tol=0.02)
        assert composites[-1] == 0.0  # fully constant: stuck detector floors it

    def test_obstruction_injector(self):
        def attenuated(factor):
            return lambda j, t, v: 20.0 + factor * (v - 20.0)

        composites = [
            composite_of_sensor0(attenuated(f)) for f in (1.0, 0.5, 0.25, 0.1)
        ]
        self.assert_non_increasing(composites, tol=1e-6)
        assert composites[-1] < 0.75 * composites[0]

    def test_noise_injector(self):
        def noisy(sigma):
            rng = np.random.default_rng(99)
            draws = rng.normal(0.0, 1.0, N_READINGS)
            return lambda j, t, v: v + sigma * draws[j]

        composites = [composite_of_sensor0(noisy(s)) for s in (0.0, 1.0, 4.0, 8.0)]
        self.assert_non_increasing(composites, tol=0.02)
        assert composites[-1] < 0.75 * composites[0]

    def test_out_of_bounds_injector(self):
        def clipped_spikes(rate):
            period = max(1, int(1.0 / rate)) if rate else N_READINGS + 1
            return lambda j, t, v: 500.0 if (rate and j % period == 0) else v

        composites = [
            composite_of_sensor0(clipped_spikes(r)) for r in (0.0, 0.1, 0.25, 0.5)
        ]
        self.assert_non_increasing(composites, tol=0.02)


class TestColdStartAndStaleness:
    def test_provisional_until_min_readings(self):
        config = QodConfig(min_readings=10, provisional_score=0.7)
        events = fleet_events(n_sensors=3)[:9]  # only sensor 0 partially fed
        registry = QodRegistry.from_events(
            [e for e in events if e.sensor_id == "s0"][:5], config
        )
        score = registry.scores()["s0"]
        assert score.composite == 0.7
        assert score.n == 5

    def test_sensor_without_a_position_is_unchecked(self):
        """A NaN site finds no neighbors: its reference check is skipped."""
        # ten sensors, more than neighbors + 1; s0 reads 10 units high
        events = fleet_events(lambda j, t, v: v + 10.0)

        def scores_with_s0_at(x):
            moved = [dataclasses.replace(e, x=x) if e.sensor_id == "s0" else e for e in events]
            return QodRegistry.from_events(moved, CONFIG).scores()

        nowhere, far = scores_with_s0_at(math.nan), scores_with_s0_at(1e9)
        assert nowhere["s0"].reference == 1.0 > far["s0"].reference
        # s0 is nobody's neighbor either way, so every other sensor agrees
        del nowhere["s0"], far["s0"]
        assert nowhere == far

    def test_silent_sensor_decays(self):
        config = QodConfig(min_readings=4, staleness_horizon=600.0)
        events = [
            e
            for e in fleet_events(n_sensors=4)
            if not (e.sensor_id == "s0" and e.t > 900.0)
        ]
        registry = QodRegistry.from_events(events, config)
        scores = registry.scores()  # now = fleet max event time
        assert scores["s0"].composite < scores["s1"].composite
        # an explicit (later) now decays further
        later = registry.scores(now=10_000.0)
        assert later["s0"].composite < scores["s0"].composite
