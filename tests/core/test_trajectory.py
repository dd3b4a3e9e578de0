import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Point,
    Trajectory,
    TrajectoryPoint,
    mean_pointwise_error,
    synchronized_error,
)


def make(points):
    return Trajectory([TrajectoryPoint(x, y, t) for x, y, t in points])


@pytest.fixture
def straight():
    """Uniform motion along x at 1 m/s for 10 s."""
    return make([(float(i), 0.0, float(i)) for i in range(11)])


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def trajectories(draw):
    """0-50 points: finite coordinates (``-0.0`` included), strictly increasing times."""
    n = draw(st.integers(min_value=0, max_value=50))
    ts = sorted(draw(st.lists(_FINITE, min_size=n, max_size=n, unique=True)))
    coords = st.lists(st.one_of(st.just(-0.0), _FINITE), min_size=n, max_size=n)
    return Trajectory.from_arrays(draw(coords), draw(coords), ts, draw(st.text()))


class TestPickle:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(traj=trajectories())
    def test_round_trip_is_bit_identical(self, traj):
        data = pickle.dumps(traj)
        back = pickle.loads(data)
        assert back == traj
        assert back.object_id == traj.object_id
        assert back.as_xyt().shape == traj.as_xyt().shape
        assert back.as_xyt().tobytes() == traj.as_xyt().tobytes()  # sign of zero too
        assert b"TrajectoryPoint" not in data  # one xyt block, not an object per point


class TestConstruction:
    def test_rejects_unordered_times(self):
        with pytest.raises(ValueError):
            make([(0, 0, 0), (1, 0, 0)])

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            make([(0, 0, 5), (1, 0, 3)])

    def test_from_arrays(self):
        t = Trajectory.from_arrays([0, 1], [2, 3], [0, 1], "a")
        assert len(t) == 2 and t.object_id == "a"
        assert t[1] == TrajectoryPoint(1, 3, 1)

    def test_from_arrays_mismatched(self):
        with pytest.raises(ValueError):
            Trajectory.from_arrays([0], [1, 2], [0, 1])

    def test_empty_ok(self):
        assert len(Trajectory([])) == 0

    def test_slicing_returns_trajectory(self, straight):
        sub = straight[2:5]
        assert isinstance(sub, Trajectory)
        assert len(sub) == 3
        assert sub[0].t == 2.0

    def test_equality(self, straight):
        assert straight == make([(float(i), 0.0, float(i)) for i in range(11)])
        assert straight != straight[0:5]


class TestDerived:
    def test_duration_length(self, straight):
        assert straight.duration == 10.0
        assert straight.length == pytest.approx(10.0)

    def test_speeds_uniform(self, straight):
        assert np.allclose(straight.speeds(), 1.0)

    def test_headings(self, straight):
        assert np.allclose(straight.headings(), 0.0)

    def test_sampling_intervals(self, straight):
        assert np.allclose(straight.sampling_intervals(), 1.0)

    def test_bbox(self, straight):
        b = straight.bbox()
        assert (b.min_x, b.max_x) == (0.0, 10.0)

    def test_as_xyt_shape(self, straight):
        assert straight.as_xyt().shape == (11, 3)


class TestTemporalAccess:
    def test_position_at_sample(self, straight):
        assert straight.position_at(3.0) == Point(3.0, 0.0)

    def test_position_at_interpolated(self, straight):
        assert straight.position_at(3.5) == Point(3.5, 0.0)

    def test_position_outside_raises(self, straight):
        with pytest.raises(ValueError):
            straight.position_at(11.0)

    def test_slice_time(self, straight):
        sub = straight.slice_time(2.0, 5.0)
        assert [p.t for p in sub] == [2.0, 3.0, 4.0, 5.0]

    def test_slice_time_empty(self, straight):
        assert len(straight.slice_time(100, 200)) == 0


class TestTransforms:
    def test_resample_halves_interval(self, straight):
        r = straight.resample(0.5)
        assert len(r) == 21
        assert r.position_at(0.5) == Point(0.5, 0.0)

    def test_resample_invalid(self, straight):
        with pytest.raises(ValueError):
            straight.resample(0)

    def test_downsample_keeps_last(self, straight):
        d = straight.downsample(4)
        assert d[0].t == 0.0 and d[-1].t == 10.0

    def test_downsample_identity(self, straight):
        assert len(straight.downsample(1)) == len(straight)

    def test_shift_time(self, straight):
        s = straight.shift_time(5.0)
        assert s.times[0] == 5.0 and s.duration == straight.duration

    def test_map_points(self, straight):
        shifted = straight.map_points(lambda p: TrajectoryPoint(p.x + 1, p.y, p.t))
        assert shifted[0].x == 1.0

    def test_split_on_gap(self):
        t = make([(0, 0, 0), (1, 0, 1), (2, 0, 10), (3, 0, 11)])
        parts = t.split_on_gap(5.0)
        assert [len(p) for p in parts] == [2, 2]

    def test_split_no_gap(self, straight):
        assert len(straight.split_on_gap(100)) == 1

    def test_concat(self, straight):
        other = straight.shift_time(20)
        joined = straight.concat(other)
        assert len(joined) == 22

    def test_concat_overlapping_rejected(self, straight):
        with pytest.raises(ValueError):
            straight.concat(straight)

    def test_immutability_of_source(self, straight):
        before = list(straight.points)
        straight.downsample(2)
        straight.resample(0.5)
        assert list(straight.points) == before


class TestErrors:
    def test_pointwise_zero(self, straight):
        assert mean_pointwise_error(straight, straight) == 0.0

    def test_pointwise_offset(self, straight):
        off = straight.map_points(lambda p: TrajectoryPoint(p.x, p.y + 2, p.t))
        assert mean_pointwise_error(straight, off) == pytest.approx(2.0)

    def test_pointwise_length_mismatch(self, straight):
        with pytest.raises(ValueError):
            mean_pointwise_error(straight, straight[0:5])

    def test_synchronized_error_subsampled(self, straight):
        # A downsampled copy of uniform motion reconstructs exactly.
        assert synchronized_error(straight, straight.downsample(5)) == pytest.approx(0.0)

    def test_synchronized_error_disjoint_raises(self, straight):
        with pytest.raises(ValueError):
            synchronized_error(straight, straight.shift_time(100.0))
