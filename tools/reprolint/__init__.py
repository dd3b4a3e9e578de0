"""reprolint: AST-based invariant checks the generic linters cannot express.

The repository's credibility as a reproduction rests on invariants that
``ruff``/``mypy`` do not know about: seeded determinism (``workers=1``
bit-identical to ``workers=N``), the pool-lease release-on-error
contract, and every columnar kernel having a scalar reference twin.  This
package runs a two-phase analysis over ``src/repro``: phase 1 parses each
file once into a cached :class:`~tools.reprolint.core.ModuleInfo`
(imports, lock index, per-function summaries) and applies the per-module
rules; phase 2 runs the whole-program rules over the combined index:

* **R1 determinism** — no stdlib ``random``, legacy global-state
  ``np.random.*``, unseeded ``np.random.default_rng()``, or wall-clock
  calls (``time.time``/``datetime.now``/…) in library code.  Genuine
  timing seams (replay pacing, latency observability) carry per-file
  waivers in ``reprolint_baseline.toml``.
* **R2 resource lifecycle (flow-based)** — every pool lease
  (``get_executor`` / ``PoolManager.acquire``) and obs ``tracer.span``
  must release on *every* path out of the acquiring scope — early
  ``return``/``raise`` paths included — or transfer ownership (``with``
  item, call argument, returned/yielded value, stored into a container).
* **R3 kernel parity** — every public function in
  ``repro/kernels/{distances,motion,screens}.py`` has a same-named scalar
  twin in ``kernels/reference.py`` and appears in
  ``tests/test_kernels.py``.
* **R4 lock discipline** — in ``repro/ingest`` classes that declare a
  ``*_lock``, attribute writes outside ``__init__`` must sit inside a
  ``with self.<lock>`` block.
* **R5 export hygiene** — each subpackage ``__all__`` matches its
  ``docs/API.md`` section (regenerate with ``python tools/gen_api_docs.py``).
* **R6 pool discipline** — no direct ``ProcessExecutor(...)`` construction
  outside ``repro/parallel``; consumers lease warm pools via
  ``get_executor()`` / ``WorkerPoolManager.acquire()`` so worker processes
  are shared, prewarmed, and torn down by ``shutdown_all()``.
* **R7 store append discipline** — no in-place ``.points`` mutation
  outside the store's own delta tier; admission flows through
  ``PartitionedStore.append`` / ``append_many``.
* **R8 architecture layering** (whole-program) — the ``[layers]``
  manifest in ``reprolint_baseline.toml`` is enforced against the real
  import graph: no eager upward imports, no same-level cycles, and the
  manifest must agree with the ``reprolint-layers`` marker in
  ``docs/ARCHITECTURE.md``.
* **R9 lock order** (whole-program) — the global lock-acquisition graph
  (one level of intra-repo calls resolved) must be acyclic; no blocking
  call (``.join``, ``queue.get``, executor ``.map``, ``time.sleep``, …)
  and no ``await`` while a ``threading`` lock is held.

Run ``python -m tools.reprolint`` from the repo root (``--changed`` for a
git-diff-scoped pre-commit pass, ``--format sarif`` for code scanning;
the incremental cache in ``.reprolint_cache.json`` is on by default).
Findings can be suppressed line-by-line with ``# reprolint: disable=R1``
pragmas or per-file via the checked-in baseline.  The sibling
:mod:`tools.reprolint.mypy_ratchet` keeps the ``mypy --strict`` error
count from rising above its recorded ceiling.
"""

from .core import (
    Baseline,
    Finding,
    LintResult,
    Module,
    ModuleInfo,
    analyze,
    run_reprolint,
)

__all__ = [
    "Baseline",
    "Finding",
    "LintResult",
    "Module",
    "ModuleInfo",
    "analyze",
    "run_reprolint",
]
