"""Coalescer determinism: batching is a pure function of arrival order.

No event loop is involved — the coalescer never sleeps — so these tests
drive it directly with :class:`~repro.obs.clock.ManualClock` timestamps
and a dummy future, and assert the released batch sequence is an exact,
repeatable function of the input sequence.
"""

import pytest

from repro.core import Point
from repro.obs import ManualClock
from repro.serve import Coalescer, KnnQueryRequest, RangeQueryRequest


class _FakeFuture:
    """Stand-in future: the coalescer only stores it."""


def rq(x, priority=0):
    return RangeQueryRequest(Point(x, 0.0), 1.0, priority=priority)


def kq(x, k, priority=0):
    return KnnQueryRequest(Point(x, 0.0), k, priority=priority)


class TestRelease:
    def test_validation(self):
        with pytest.raises(ValueError):
            Coalescer(0)

    def test_full_bucket_signals_and_releases(self):
        clock = ManualClock()
        c = Coalescer(max_batch=3)
        assert not c.add(rq(1), _FakeFuture(), clock.now())
        assert not c.add(rq(2), _FakeFuture(), clock.now())
        assert c.add(rq(3), _FakeFuture(), clock.now())
        (batch,) = c.take_all()
        assert [p.request.center.x for p in batch.items] == [1.0, 2.0, 3.0]
        assert c.pending == 0

    def test_partial_bucket_releases_at_once(self):
        clock = ManualClock()
        c = Coalescer(max_batch=8)
        c.add(rq(1), _FakeFuture(), clock.now())
        (batch,) = c.take_all()  # no window to wait out
        assert len(batch) == 1
        assert batch.items[0].enqueued_at == 0.0

    def test_overfull_bucket_splits_into_capped_chunks(self):
        clock = ManualClock()
        c = Coalescer(max_batch=4)
        for x in range(10):
            c.add(rq(x), _FakeFuture(), clock.now())
        batches = c.take_all()
        assert [len(b) for b in batches] == [4, 4, 2]
        released = [p.request.center.x for b in batches for p in b.items]
        assert released == [float(x) for x in range(10)]

    def test_buckets_by_shape(self):
        clock = ManualClock()
        c = Coalescer(max_batch=8)
        c.add(rq(1), _FakeFuture(), clock.now())
        c.add(kq(2, k=3), _FakeFuture(), clock.now())
        c.add(kq(3, k=5), _FakeFuture(), clock.now())
        c.add(kq(4, k=3), _FakeFuture(), clock.now())
        batches = c.take_all()
        assert [(b.key, len(b)) for b in batches] == [
            (("knn", 3, False), 2),
            (("knn", 5, False), 1),
            (("range",), 1),
        ]

    def test_take_all_releases_every_bucket(self):
        clock = ManualClock()
        c = Coalescer(max_batch=8)
        c.add(rq(1), _FakeFuture(), clock.now())
        c.add(kq(2, k=3), _FakeFuture(), clock.now())
        assert sum(len(b) for b in c.take_all()) == 2
        assert c.pending == 0
        assert c.take_all() == []

    def test_batching_is_deterministic(self):
        def run():
            clock = ManualClock()
            c = Coalescer(max_batch=3)
            trace = []
            for x in range(11):
                c.add(rq(x) if x % 2 else kq(x, k=2), _FakeFuture(), clock.now())
                clock.advance(0.1)
                if x % 4 == 3:  # the dispatcher comes round every fourth arrival
                    for batch in c.take_all():
                        trace.append((batch.key, tuple(p.seq for p in batch.items)))
            for batch in c.take_all():
                trace.append((batch.key, tuple(p.seq for p in batch.items)))
            return trace

        first, second = run(), run()
        assert first == second
        assert sum(len(seqs) for _, seqs in first) == 11
        assert max(len(seqs) for _, seqs in first) <= 3


class TestEviction:
    def test_evicts_oldest_of_lowest_class(self):
        clock = ManualClock()
        c = Coalescer(max_batch=8)
        c.add(rq(1, priority=1), _FakeFuture(), clock.now())
        c.add(rq(2, priority=0), _FakeFuture(), clock.now())
        c.add(rq(3, priority=0), _FakeFuture(), clock.now())
        victim = c.evict_for(priority=1)
        assert victim is not None and victim.request.center.x == 2.0
        assert c.pending == 2

    def test_never_evicts_higher_class(self):
        clock = ManualClock()
        c = Coalescer(max_batch=8)
        c.add(rq(1, priority=2), _FakeFuture(), clock.now())
        assert c.evict_for(priority=1) is None
        assert c.pending == 1

    def test_eviction_drops_empty_bucket(self):
        clock = ManualClock()
        c = Coalescer(max_batch=8)
        c.add(kq(1, k=3), _FakeFuture(), clock.now())
        assert c.evict_for(priority=0) is not None
        assert c.pending == 0
        assert c.take_all() == []
