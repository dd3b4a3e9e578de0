"""Tier-1 tests for the reprolint invariant checker.

Two layers: fixture snippets that trigger (and pragma-suppress) each rule
R1-R7 against throwaway trees, and the live-tree gate — the real
repository must be clean against its shipped baseline, which is also what
makes reprolint a tier-1 invariant rather than an optional linter.
"""

from __future__ import annotations

import importlib.util
import textwrap
from pathlib import Path

import pytest

from tools.reprolint import Baseline, run_reprolint
from tools.reprolint.__main__ import main as reprolint_main
from tools.reprolint.core import DEFAULT_BASELINE, pragma_lines
from tools.reprolint.mypy_ratchet import compare, update_ceiling

REPO_ROOT = Path(__file__).resolve().parents[2]


def write_module(root: Path, rel: str, source: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def rules_of(findings) -> set[str]:
    return {f.rule for f in findings}


# -- R1: determinism -----------------------------------------------------------


class TestR1Determinism:
    def test_stdlib_random_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/bad.py",
            """
            import random

            def jitter() -> float:
                return random.random()
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R1"]
        assert "stdlib" in findings[0].message

    def test_legacy_np_random_and_unseeded_default_rng_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/bad.py",
            """
            import numpy as np

            def noisy():
                np.random.seed(0)
                rng = np.random.default_rng()
                return rng.normal() + np.random.rand()
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R1", "R1", "R1"]
        messages = "\n".join(f.message for f in findings)
        assert "np.random.seed" in messages
        assert "unseeded" in messages
        assert "np.random.rand" in messages

    def test_wall_clock_flagged_including_from_imports(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/bad.py",
            """
            import time
            from datetime import datetime

            def stamp():
                return time.time(), datetime.now()
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R1", "R1"]

    def test_seeded_generator_idiom_clean(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/good.py",
            """
            import numpy as np

            def sample(rng: np.random.Generator, n: int):
                seeded = np.random.default_rng(42)
                ss = np.random.SeedSequence(entropy=7, spawn_key=(1,))
                return rng.normal(size=n), seeded, ss
            """,
        )
        assert run_reprolint(tmp_path) == []

    def test_pragma_suppresses(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/bad.py",
            """
            import time

            def stamp():
                return time.time()  # reprolint: disable=R1
            """,
        )
        assert run_reprolint(tmp_path) == []

    def test_baseline_waiver_suppresses(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/seam.py",
            """
            import time

            def pace():
                time.sleep(0.1)
            """,
        )
        baseline = Baseline(waivers={"src/repro/seam.py": {"R1"}})
        assert run_reprolint(tmp_path, baseline=baseline) == []
        assert rules_of(run_reprolint(tmp_path)) == {"R1"}


# -- R2: pool-lease lifecycle ----------------------------------------------------


class TestR2ShmLifecycle:
    """R2 over pool leases (the class name predates them; test ids are kept)."""

    def test_unpaired_create_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/bad.py",
            """
            from repro.parallel import get_executor

            def leak(workers):
                lease = get_executor(workers)
                return lease.workers
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R2"]

    def test_create_before_try_flagged(self, tmp_path):
        # The first lease is acquired before the try, so a failing second
        # acquisition leaks it.
        write_module(
            tmp_path,
            "src/repro/bad.py",
            """
            from repro.parallel import get_executor

            def fan_out(a, b):
                first = get_executor(a)
                second = get_executor(b)
                try:
                    return first.workers, second.workers
                finally:
                    first.close()
                    second.close()
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [(f.rule, f.line) for f in findings] == [("R2", 5)]

    def test_with_block_and_adjacent_try_finally_clean(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/good.py",
            """
            from repro.parallel import get_executor, get_pool_manager

            def use_with(a, b):
                with get_executor(a) as x, get_pool_manager().acquire(b) as y:
                    return x.workers, y.workers

            def use_try(workers):
                lease = get_executor(workers)
                try:
                    return lease.workers
                finally:
                    lease.close()
            """,
        )
        assert run_reprolint(tmp_path) == []

    def test_pragma_suppresses(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/factory.py",
            """
            from repro.parallel import get_executor

            def handoff(workers):
                lease = get_executor(workers)  # reprolint: disable=R2
                return lease
            """,
        )
        assert run_reprolint(tmp_path) == []


# -- R3: kernel parity ---------------------------------------------------------


def _mini_kernels_tree(tmp_path, reference_body: str, tests_body: str = "") -> None:
    write_module(
        tmp_path,
        "src/repro/kernels/distances.py",
        """
        def dists_to(coords, center):
            return [((x - center[0]) ** 2 + (y - center[1]) ** 2) ** 0.5 for x, y in coords]
        """,
    )
    write_module(tmp_path, "src/repro/kernels/reference.py", reference_body)
    write_module(tmp_path, "tests/test_kernels.py", tests_body)


class TestR3KernelParity:
    def test_missing_twin_flagged(self, tmp_path):
        _mini_kernels_tree(tmp_path, "def other():\n    pass\n")
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R3"]
        assert "dists_to" in findings[0].message

    def test_twin_without_test_coverage_flagged(self, tmp_path):
        _mini_kernels_tree(tmp_path, "def dists_to(coords, center):\n    return []\n")
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R3"]
        assert "test_kernels" in findings[0].message

    def test_twin_with_coverage_clean(self, tmp_path):
        _mini_kernels_tree(
            tmp_path,
            "def dists_to(coords, center):\n    return []\n",
            "PARITY = ['dists_to']\n",
        )
        assert run_reprolint(tmp_path) == []

    def test_pragma_suppresses(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/kernels/distances.py",
            """
            def dists_to(coords, center):  # reprolint: disable=R3
                return []
            """,
        )
        write_module(tmp_path, "src/repro/kernels/reference.py", "")
        assert run_reprolint(tmp_path) == []


# -- R4: lock discipline -------------------------------------------------------


class TestR4LockDiscipline:
    def test_unlocked_write_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/ingest/bad.py",
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    self._count += 1
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R4"]
        assert "_count" in findings[0].message

    def test_locked_write_and_lockless_class_clean(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/ingest/good.py",
            """
            import threading

            class Store:
                def __init__(self):
                    self._counter_lock = threading.Lock()
                    self.total = 0

                def bump(self, n):
                    with self._counter_lock:
                        self.total += n

            class Plain:
                def set(self, v):
                    self.value = v
            """,
        )
        assert run_reprolint(tmp_path) == []

    def test_outside_ingest_not_covered(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/core/state.py",
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def bump(self):
                    self.count = 1
            """,
        )
        assert run_reprolint(tmp_path) == []

    def test_pragma_suppresses(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/ingest/bad.py",
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def bump(self):
                    self.count = 1  # reprolint: disable=R4
            """,
        )
        assert run_reprolint(tmp_path) == []


# -- R5: export hygiene --------------------------------------------------------


class TestR5ExportHygiene:
    def _tree(self, tmp_path, all_names, doc_names):
        write_module(
            tmp_path,
            "src/repro/demo/__init__.py",
            "__all__ = [" + ", ".join(f'"{n}"' for n in all_names) + "]\n",
        )
        rows = "\n".join(f"| `{n}` | something |" for n in doc_names)
        write_module(
            tmp_path,
            "docs/API.md",
            f"# API index\n\n## `repro.demo`\n\n| export | summary |\n|---|---|\n{rows}\n",
        )

    def test_in_sync_clean(self, tmp_path):
        self._tree(tmp_path, ["alpha", "beta"], ["alpha", "beta"])
        assert run_reprolint(tmp_path) == []

    def test_undocumented_export_flagged(self, tmp_path):
        self._tree(tmp_path, ["alpha", "beta"], ["alpha"])
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R5"]
        assert "beta" in findings[0].message
        assert findings[0].file == "src/repro/demo/__init__.py"

    def test_stale_doc_row_flagged(self, tmp_path):
        self._tree(tmp_path, ["alpha"], ["alpha", "ghost"])
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R5"]
        assert findings[0].file == "docs/API.md"

    def test_missing_section_flagged(self, tmp_path):
        write_module(tmp_path, "src/repro/demo/__init__.py", '__all__ = ["alpha"]\n')
        write_module(tmp_path, "docs/API.md", "# API index\n")
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R5"]
        assert "no section" in findings[0].message


# -- R6: pool discipline -------------------------------------------------------


class TestR6PoolDiscipline:
    def test_direct_construction_outside_parallel_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/serve/bad.py",
            """
            from repro.parallel import ProcessExecutor

            def make():
                return ProcessExecutor(2)
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R6"]
        assert "get_executor" in findings[0].message

    def test_aliased_import_still_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/querying/bad.py",
            """
            from repro.parallel.executor import ProcessExecutor as PE

            def make():
                return PE(4, "spawn")
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R6"]

    def test_parallel_package_itself_clean(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/parallel/custom.py",
            """
            from .executor import ProcessExecutor

            def spawn_pool(workers: int):
                return ProcessExecutor(workers)
            """,
        )
        assert run_reprolint(tmp_path) == []

    def test_pool_lease_consumers_clean(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/serve/ok.py",
            """
            from repro.parallel import get_executor

            def make():
                return get_executor(2)
            """,
        )
        assert run_reprolint(tmp_path) == []

    def test_pragma_suppresses(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/serve/waived.py",
            """
            from repro.parallel import ProcessExecutor

            def make():
                return ProcessExecutor(2)  # reprolint: disable=R6
            """,
        )
        assert run_reprolint(tmp_path) == []


# -- R7: store append discipline -----------------------------------------------


class TestR7StoreAppendDiscipline:
    def test_points_append_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/serve/bad.py",
            """
            def admit(store, point):
                store.points.append(point)
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R7"]
        assert "append_many" in findings[0].message

    def test_points_extend_and_insert_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/querying/bad.py",
            """
            def bulk(store, pts):
                store.points.extend(pts)
                store.points.insert(0, pts[0])
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R7", "R7"]

    def test_points_augmented_assign_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/querying/bad.py",
            """
            def bulk(store, pts):
                store.points += pts
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R7"]
        assert "augmented assignment" in findings[0].message

    def test_sanctioned_api_and_plain_lists_clean(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/serve/ok.py",
            """
            def admit(store, pts):
                store.append_many(pts)
                local: list[int] = []
                local.append(1)
                points = [2]
                points.append(3)
            """,
        )
        assert run_reprolint(tmp_path) == []

    def test_pragma_suppresses(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/querying/waived.py",
            """
            def seam(self, pts):
                self.points.extend(pts)  # reprolint: disable=R7
            """,
        )
        assert run_reprolint(tmp_path) == []


# -- CLI, baseline, and the live tree ------------------------------------------


class TestCliAndLiveTree:
    def test_cli_exits_nonzero_on_violation(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "src/repro/bad.py",
            """
            import random

            def f():
                return random.random()
            """,
        )
        assert reprolint_main(["--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "R1" in out and "1 finding(s)" in out

    def test_cli_json_format(self, tmp_path, capsys):
        write_module(tmp_path, "src/repro/ok.py", "X = 1\n")
        assert reprolint_main(["--root", str(tmp_path), "--format", "json"]) == 0
        assert capsys.readouterr().out.strip() == "[]"

    def test_shipped_baseline_loads_and_waives_timing_seams(self):
        baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE)
        assert baseline.is_waived("src/repro/ingest/source.py", "R1")
        assert baseline.is_waived("src/repro/ingest/engine.py", "R1")
        assert baseline.is_waived("src/repro/core/pipeline.py", "R1")
        assert baseline.is_waived("src/repro/obs/clock.py", "R1")
        assert not baseline.is_waived("src/repro/ingest/source.py", "R2")
        assert not baseline.is_waived("src/repro/querying/privacy.py", "R1")
        assert baseline.mypy_strict_errors is not None
        assert baseline.mypy_strict_errors >= 0

    def test_live_tree_clean_against_shipped_baseline(self):
        findings = run_reprolint(REPO_ROOT)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_live_tree_has_only_expected_unwaived_rules(self):
        # Without the baseline, only the documented R1 timing seams and the
        # pragma'd R2 factory handoffs may surface — nothing else.
        findings = run_reprolint(REPO_ROOT, baseline=Baseline.empty())
        assert rules_of(findings) <= {"R1"}
        assert {f.file for f in findings} == {
            "src/repro/ingest/source.py",
            "src/repro/ingest/engine.py",
            "src/repro/core/pipeline.py",
            "src/repro/obs/clock.py",
        }

    def test_pragma_parser(self):
        pragmas = pragma_lines("x = 1\ny = 2  # reprolint: disable=R1, R4\n")
        assert pragmas == {2: {"R1", "R4"}}


class TestMypyRatchet:
    def test_compare_verdicts(self):
        assert compare(5, None)[0] == 0
        assert compare(5, -1)[0] == 0
        code, msg = compare(6, 5)
        assert code == 1 and "+1" in msg
        assert compare(4, 5)[0] == 0
        assert compare(5, 5)[0] == 0

    def test_update_ceiling_rewrites_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.toml"
        baseline.write_text("[mypy]\nstrict_errors = 100\n", encoding="utf-8")
        update_ceiling(baseline, 42)
        assert Baseline.load(baseline).mypy_strict_errors == 42

    def test_update_ceiling_appends_when_absent(self, tmp_path):
        baseline = tmp_path / "baseline.toml"
        baseline.write_text("[waivers]\n", encoding="utf-8")
        update_ceiling(baseline, 7)
        assert Baseline.load(baseline).mypy_strict_errors == 7

    @pytest.mark.skipif(
        importlib.util.find_spec("mypy") is None,
        reason="mypy not installed in this environment (CI enforces)",
    )
    def test_ratchet_runs_under_recorded_ceiling(self):
        from tools.reprolint.mypy_ratchet import main as ratchet_main

        assert ratchet_main(["--root", str(REPO_ROOT)]) == 0
