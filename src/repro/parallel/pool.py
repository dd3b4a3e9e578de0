"""Process-wide warm worker pools: create once, reuse everywhere.

Before this module, every fan-out call site built its own
:class:`~repro.parallel.executor.ProcessExecutor` and tore it down at the
end of the call — so each ``run_many`` paid full worker spawn (tens to
hundreds of ms, seconds under ``spawn``) on top of its work.
:class:`WorkerPoolManager` fixes the economics: one pool per
``(workers, start_method)`` key lives for the process, pre-warmed with an
idle round-trip at creation, health-checked on every acquire, and
restarted transparently when workers die.

Consumers never hold the pool itself; :meth:`WorkerPoolManager.acquire`
returns a :class:`PoolLease` — an :class:`~repro.parallel.executor.Executor`
facade whose ``close()`` releases the lease and leaves the pool warm for
the next caller.  ``get_executor`` hands these out, so the whole library
shares pools without any call-site changes.

Lifecycle: :func:`shutdown_all` (registered via :mod:`atexit`, also called
by ``repro.parallel.shutdown_all``) closes every pool, so pytest runs,
benchmarks, and examples exit without orphaned workers.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..obs import OBS
from .executor import ProcessExecutor, default_start_method

#: Pool identity: (worker count, *resolved* start method).
PoolKey = tuple[int, str | None]


@dataclass
class PoolStats:
    """Manager-level accounting (pool reuse is the whole point — measure it)."""

    pools_created: int = 0
    pools_restarted: int = 0
    workers_spawned: int = 0
    leases: int = 0
    pool_reuses: int = 0  # acquires satisfied by an already-warm pool

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view for benchmark provenance and smoke assertions."""
        return {
            "pools_created": self.pools_created,
            "pools_restarted": self.pools_restarted,
            "workers_spawned": self.workers_spawned,
            "leases": self.leases,
            "pool_reuses": self.pool_reuses,
        }


class PoolLease:
    """A consumer's handle on one shared warm pool.

    Implements the :class:`~repro.parallel.executor.Executor` protocol:
    ``map_ordered`` delegates to the underlying pool and ``close`` releases
    the lease (idempotent) — the pool itself stays warm.  If the pool turns
    out broken mid-call (a worker died), the lease asks the manager for a
    restarted pool and retries the map once; a second failure propagates.

    ``pool_was_warm`` records whether this lease reused an existing pool.
    """

    def __init__(
        self, manager: "WorkerPoolManager", key: PoolKey, pool: ProcessExecutor, pool_was_warm: bool
    ) -> None:
        self._manager = manager
        self._key = key
        self._pool = pool
        self._released = False
        self.workers = pool.workers
        self.start_method = pool.start_method
        self.pool_was_warm = pool_was_warm

    def map_ordered(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> list[Any]:
        """Ordered map on the shared pool, restart-and-retry once if broken."""
        if self._released:
            raise RuntimeError("PoolLease used after close()")
        try:
            return self._pool.map_ordered(fn, payloads)
        except BrokenProcessPool:
            self._pool = self._manager.restart(self._key, broken=self._pool)
            return self._pool.map_ordered(fn, payloads)

    def close(self) -> None:
        """Release the lease; the pool stays warm for the next consumer."""
        if self._released:
            return
        self._released = True

    def __enter__(self) -> "PoolLease":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class WorkerPoolManager:
    """Process-wide registry of warm pools.

    Thread-safe: consumers may acquire from any thread.  Pools are
    created lazily on first acquire for a key, pre-warmed with an idle
    round-trip so the first real batch never pays worker startup, and kept
    until :meth:`shutdown_all`.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._pools: dict[PoolKey, ProcessExecutor] = {}
        self.stats = PoolStats()

    # -- key resolution ----------------------------------------------------------

    def resolve_key(self, workers: int, start_method: str | None = None) -> PoolKey:
        """Normalize to the *resolved* start method so env/default agree."""
        return (workers, start_method if start_method is not None else default_start_method())

    # -- pool lifecycle ----------------------------------------------------------

    def acquire(self, workers: int, start_method: str | None = None) -> PoolLease:
        """Lease the warm pool for ``(workers, start_method)``, creating it once.

        A pool found broken (worker death since the last call) is replaced
        before leasing, so callers always receive a healthy executor.
        """
        if workers < 2:
            raise ValueError("WorkerPoolManager pools need workers >= 2; use SerialExecutor")
        key = self.resolve_key(workers, start_method)
        with self._lock:
            pool = self._pools.get(key)
            warm = pool is not None and not pool.broken
            if pool is not None and not warm:
                self._pools.pop(key)
                pool.close()
                self.stats.pools_restarted += 1
                pool = None
            if pool is None:
                # Prewarming under the lock is the point: concurrent acquirers
                # must queue behind the one spawn instead of each cold-starting
                # a private pool, and nothing else contends for this lock.
                pool = self._spawn(key)  # reprolint: disable=R9
            else:
                self.stats.pool_reuses += 1
            self.stats.leases += 1
            self._export_gauge()
        return PoolLease(self, key, pool, pool_was_warm=warm)

    def _spawn(self, key: PoolKey) -> ProcessExecutor:
        """Create + prewarm the pool for ``key`` (caller holds the lock)."""
        workers, start_method = key
        pool = ProcessExecutor(workers, start_method)
        pool.prewarm()
        self._pools[key] = pool
        self.stats.pools_created += 1
        self.stats.workers_spawned += workers
        return pool

    def restart(self, key: PoolKey, broken: ProcessExecutor | None = None) -> ProcessExecutor:
        """Replace a broken pool; concurrent restarts converge on one respawn.

        With ``broken`` given, the pool is only torn down if it is still the
        registered one — a racing lease that already triggered the restart
        leaves later callers to pick up the fresh pool instead of cycling it.
        """
        with self._lock:
            pool = self._pools.get(key)
            if pool is not None and (broken is None or pool is broken):
                self._pools.pop(key)
                pool.close()
                self.stats.pools_restarted += 1
                pool = None
            if pool is None:
                # Same deliberate spawn-under-lock as acquire(): racing restarts
                # must converge on a single respawned pool.
                pool = self._spawn(key)  # reprolint: disable=R9
            self._export_gauge()
            return pool

    def active_workers(self) -> int:
        """Worker processes currently kept alive across all warm pools."""
        with self._lock:
            return sum(pool.workers for pool in self._pools.values())

    def shutdown_all(self) -> None:
        """Close every pool (idempotent)."""
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.close()
        with self._lock:
            self._export_gauge()

    def _export_gauge(self) -> None:
        """Publish the live worker count (caller holds the lock)."""
        if OBS.enabled:
            total = sum(pool.workers for pool in self._pools.values())
            OBS.metrics.set_gauge("repro_parallel_pool_active_workers", (), float(total))


_MANAGER = WorkerPoolManager()


def get_pool_manager() -> WorkerPoolManager:
    """The process-wide pool manager singleton."""
    return _MANAGER


def shutdown_all() -> None:
    """Tear down every warm pool.

    Registered via :mod:`atexit` so pytest runs, benchmarks, and examples
    exit clean (no orphaned workers); safe to call eagerly and repeatedly —
    the next ``acquire`` simply rebuilds.
    """
    _MANAGER.shutdown_all()


atexit.register(shutdown_all)
