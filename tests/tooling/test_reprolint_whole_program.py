"""Tier-1 tests for the whole-program reprolint rules and the framework.

Covers the two-phase analysis added on top of the lexical rules: R8
architecture layering over the import graph, R9 lock-order/deadlock over
the global lock index, the flow-based R2 (leaks on early-return/raise
paths), the content-hash incremental cache, the SARIF emitter, the
``--changed`` CLI mode, and the mypy-ratchet ``--update``/absent paths.
"""

from __future__ import annotations

import json
import subprocess
import textwrap
import time
from pathlib import Path

import pytest

from tools.reprolint import Baseline, analyze, run_reprolint
from tools.reprolint.__main__ import main as reprolint_main
from tools.reprolint.graph import parse_layer_marker
from tools.reprolint.sarif import to_sarif

REPO_ROOT = Path(__file__).resolve().parents[2]
SARIF_SCHEMA_PATH = Path(__file__).resolve().parent / "data" / "sarif-2.1.0-subset.schema.json"


def write_module(root: Path, rel: str, source: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source).lstrip("\n"), encoding="utf-8")
    return path


def rules_of(findings) -> set[str]:
    return {f.rule for f in findings}


# -- R8: architecture layering ---------------------------------------------------


def _layered(tmp_path, low_body: str, layers=None) -> Baseline:
    write_module(tmp_path, "src/repro/low/__init__.py", "")
    write_module(tmp_path, "src/repro/low/mod.py", low_body)
    write_module(tmp_path, "src/repro/high/__init__.py", "")
    return Baseline(waivers={}, layers=layers or {"low": 0, "high": 1})


class TestR8Layering:
    def test_upward_eager_import_flagged(self, tmp_path):
        baseline = _layered(tmp_path, "from repro.high import helper\n")
        findings = run_reprolint(tmp_path, baseline=baseline)
        assert [f.rule for f in findings] == ["R8"]
        assert "upward import" in findings[0].message
        assert findings[0].file == "src/repro/low/mod.py"

    def test_lazy_and_type_checking_imports_are_sanctioned_seams(self, tmp_path):
        baseline = _layered(
            tmp_path,
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.high import HighType

            def seam():
                from repro.high import helper

                return helper()
            """,
        )
        assert run_reprolint(tmp_path, baseline=baseline) == []

    def test_downward_and_same_level_acyclic_imports_clean(self, tmp_path):
        write_module(tmp_path, "src/repro/low/__init__.py", "")
        write_module(tmp_path, "src/repro/high/__init__.py", "")
        write_module(tmp_path, "src/repro/high/mod.py", "from repro.low import base\n")
        baseline = Baseline(waivers={}, layers={"low": 0, "high": 1})
        assert run_reprolint(tmp_path, baseline=baseline) == []

    def test_same_level_cycle_flagged(self, tmp_path):
        write_module(tmp_path, "src/repro/alpha/__init__.py", "")
        write_module(tmp_path, "src/repro/beta/__init__.py", "")
        write_module(tmp_path, "src/repro/alpha/mod.py", "from repro.beta import x\n")
        write_module(tmp_path, "src/repro/beta/mod.py", "from repro.alpha import y\n")
        baseline = Baseline(waivers={}, layers={"alpha": 1, "beta": 1})
        findings = run_reprolint(tmp_path, baseline=baseline)
        assert [f.rule for f in findings] == ["R8"]
        assert "cyclic" in findings[0].message

    def test_package_missing_from_manifest_flagged(self, tmp_path):
        write_module(tmp_path, "src/repro/rogue/__init__.py", "")
        baseline = _layered(tmp_path, "from repro.rogue import thing\n")
        findings = run_reprolint(tmp_path, baseline=baseline)
        assert [f.rule for f in findings] == ["R8"]
        assert "no level" in findings[0].message

    def test_pragma_suppresses(self, tmp_path):
        baseline = _layered(
            tmp_path, "from repro.high import helper  # reprolint: disable=R8\n"
        )
        assert run_reprolint(tmp_path, baseline=baseline) == []

    def test_without_layers_manifest_rule_is_inert(self, tmp_path):
        _layered(tmp_path, "from repro.high import helper\n")
        assert run_reprolint(tmp_path, baseline=Baseline.empty()) == []

    def test_architecture_marker_drift_flagged(self, tmp_path):
        baseline = _layered(tmp_path, "X = 1\n")
        write_module(
            tmp_path,
            "docs/ARCHITECTURE.md",
            "# Stack\n\n<!-- reprolint-layers: high < low -->\n",
        )
        findings = run_reprolint(tmp_path, baseline=baseline)
        assert [f.rule for f in findings] == ["R8"]
        assert "disagrees" in findings[0].message
        assert findings[0].file == "docs/ARCHITECTURE.md"

    def test_architecture_marker_agreement_clean(self, tmp_path):
        baseline = _layered(tmp_path, "X = 1\n", layers={"low": 10, "high": 20})
        # dense-rank comparison: 10/20 in the manifest matches 0/1 in the marker
        write_module(
            tmp_path,
            "docs/ARCHITECTURE.md",
            "# Stack\n\n<!-- reprolint-layers: low < high -->\n",
        )
        assert run_reprolint(tmp_path, baseline=baseline) == []

    def test_missing_marker_flagged(self, tmp_path):
        baseline = _layered(tmp_path, "X = 1\n")
        write_module(tmp_path, "docs/ARCHITECTURE.md", "# Stack, prose only\n")
        findings = run_reprolint(tmp_path, baseline=baseline)
        assert [f.rule for f in findings] == ["R8"]
        assert "marker" in findings[0].message

    def test_marker_parser_levels(self):
        levels, lineno = parse_layer_marker(
            "x\n<!-- reprolint-layers: obs < kernels < core = synth < serve -->\n"
        )
        assert lineno == 2
        assert levels == {"obs": 0, "kernels": 1, "core": 2, "synth": 2, "serve": 3}

    def test_live_manifest_matches_live_marker_and_graph(self):
        # The shipped tree must hold its own declared layering.
        result = analyze(REPO_ROOT)
        assert [f for f in result.whole_program if f.rule == "R8"] == []


# -- R9: lock order / deadlock ---------------------------------------------------


class TestR9LockOrder:
    def test_two_lock_cycle_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/core/locked.py",
            """
            import threading

            LOCK_A = threading.Lock()
            LOCK_B = threading.Lock()

            def forward():
                with LOCK_A:
                    with LOCK_B:
                        pass

            def backward():
                with LOCK_B:
                    with LOCK_A:
                        pass
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R9"]
        assert "cycle" in findings[0].message

    def test_consistent_order_clean(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/core/locked.py",
            """
            import threading

            LOCK_A = threading.Lock()
            LOCK_B = threading.Lock()

            def one():
                with LOCK_A:
                    with LOCK_B:
                        pass

            def two():
                with LOCK_A:
                    with LOCK_B:
                        pass
            """,
        )
        assert run_reprolint(tmp_path) == []

    def test_cross_module_cycle_via_method_call_flagged(self, tmp_path):
        # one level of intra-repo call resolution: Registry.add holds its own
        # lock and calls Store.put, which takes the store lock; Store.drain
        # holds the store lock and calls back into Registry.add. The call
        # receivers are call results so the scanner resolves them by unique
        # method name across the tree.
        write_module(
            tmp_path,
            "src/repro/core/registry.py",
            """
            import threading

            class Registry:
                def __init__(self):
                    self._reg_lock = threading.Lock()

                def add(self, item):
                    with self._reg_lock:
                        self._store().put(item)
            """,
        )
        write_module(
            tmp_path,
            "src/repro/core/store.py",
            """
            import threading

            class Store:
                def __init__(self):
                    self._store_lock = threading.Lock()

                def put(self, item):
                    with self._store_lock:
                        self._items = [item]

                def drain(self):
                    with self._store_lock:
                        self._registry().add(None)
            """,
        )
        findings = run_reprolint(tmp_path)
        assert "R9" in rules_of(findings)
        assert any("cycle" in f.message for f in findings)

    def test_reacquiring_nonreentrant_lock_one_call_away_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/core/reenter.py",
            """
            import threading

            class Svc:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R9"]
        assert "re-acquired" in findings[0].message

    def test_rlock_reentry_clean(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/core/reenter.py",
            """
            import threading

            class Svc:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """,
        )
        assert run_reprolint(tmp_path) == []

    def test_blocking_calls_under_lock_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/serve/blocky.py",
            """
            import queue
            import threading
            import time

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._queue = queue.Queue()

                def sleepy(self):
                    with self._lock:
                        time.sleep(0.5)

                def drain(self):
                    with self._lock:
                        return self._queue.get()

                def join_thread(self, t):
                    with self._lock:
                        t.join()
            """,
        )
        findings = run_reprolint(tmp_path)
        r9 = [f for f in findings if f.rule == "R9"]
        messages = "\n".join(f.message for f in r9)
        assert len(r9) == 3
        assert "time.sleep" in messages
        assert "queue" in messages
        assert ".join" in messages

    def test_str_join_and_unlocked_blocking_clean(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/core/ok.py",
            """
            import threading

            LOCK = threading.Lock()

            def fmt(parts):
                with LOCK:
                    return ", ".join(parts)

            def wait_outside(t):
                t.join()
            """,
        )
        assert run_reprolint(tmp_path) == []

    def test_await_under_threading_lock_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/serve/aio.py",
            """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()

                async def refresh(self):
                    with self._lock:
                        await self._reload()
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R9"]
        assert "await" in findings[0].message

    def test_asyncio_lock_is_out_of_scope(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/serve/aio.py",
            """
            import asyncio

            class Service:
                def __init__(self):
                    self._lock = asyncio.Lock()

                async def refresh(self):
                    async with self._lock:
                        await self._reload()
            """,
        )
        assert run_reprolint(tmp_path) == []

    def test_sleep_under_condition_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/ingest/writer.py",
            """
            import threading
            import time

            class Writer:
                def __init__(self):
                    self._cond = threading.Condition()

                def slow_take(self):
                    with self._cond:
                        time.sleep(0.5)
            """,
        )
        r9 = [f for f in run_reprolint(tmp_path) if f.rule == "R9"]
        assert len(r9) == 1
        assert "time.sleep" in r9[0].message
        assert "Writer._cond" in r9[0].message

    def test_condition_wait_under_its_own_lock_clean(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/ingest/writer.py",
            """
            import threading

            class Writer:
                def __init__(self):
                    self._cond = threading.Condition(threading.Lock())
                    self._items = []

                def take(self):
                    with self._cond:
                        while not self._items:
                            self._cond.wait()
                        self._cond.wait_for(lambda: bool(self._items))
                        return self._items.pop()
            """,
        )
        assert run_reprolint(tmp_path) == []

    def test_condition_wait_holding_another_lock_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/ingest/writer.py",
            """
            import threading

            class Writer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition()

                def take(self):
                    with self._lock:
                        with self._cond:
                            self._cond.wait()
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R9"]
        assert "`.wait()`" in findings[0].message
        assert "Writer._lock" in findings[0].message

    def test_pragma_suppresses(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/serve/blocky.py",
            """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def join_thread(self, t):
                    with self._lock:
                        t.join()  # reprolint: disable=R9
            """,
        )
        assert run_reprolint(tmp_path) == []

    def test_live_tree_r9_clean(self):
        result = analyze(REPO_ROOT)
        assert [f for f in result.whole_program if f.rule == "R9"] == []


# -- R2-flow: leaks on early-return / raise paths --------------------------------


class TestR2Flow:
    def test_leak_on_early_return_path_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/bad.py",
            """
            from repro.parallel import get_executor

            def filtered(workers, flag):
                lease = get_executor(workers)
                if flag:
                    return None
                lease.close()
                return True
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [(f.rule, f.line) for f in findings] == [("R2", 4)]
        assert "return" in findings[0].message

    def test_leak_on_raise_path_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/bad.py",
            """
            from repro.parallel import get_executor

            def risky(workers, n):
                lease = get_executor(workers)
                total = complicated(n)
                lease.close()
                return total
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [(f.rule, f.line) for f in findings] == [("R2", 4)]
        assert "raise" in findings[0].message

    def test_handler_that_releases_and_reraises_clean(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/good.py",
            """
            from repro.parallel import get_executor

            def careful(workers, n):
                lease = get_executor(workers)
                try:
                    total = complicated(n)
                except BaseException:
                    lease.close()
                    raise
                lease.close()
                return total
            """,
        )
        assert run_reprolint(tmp_path) == []

    def test_pool_lease_never_closed_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/bad.py",
            """
            from repro.parallel import get_executor

            def run(fn, items, workers):
                ex = get_executor(workers)
                return ex.map(fn, items)
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R2"]
        assert "pool lease" in findings[0].message

    def test_obs_span_discarded_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/bad.py",
            """
            def traced(tracer):
                tracer.span("op")
                return 1
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R2"]
        assert "obs span" in findings[0].message

    def test_ownership_transfer_shapes_clean(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/good.py",
            """
            from contextlib import ExitStack

            from repro.parallel import get_executor

            def factory(workers):
                return Wrapper(get_executor(workers))

            def stacked(counts):
                with ExitStack() as stack:
                    return [stack.enter_context(get_executor(w)).workers for w in counts]

            def stored(self, workers):
                lease = get_executor(workers)
                self._leases[0] = (workers, lease)
                return lease

            def spanned(tracer):
                span = tracer.span("op")
                with span:
                    return 1

            def conditional(executor, workers):
                ex = executor if executor is not None else get_executor(workers)
                return ex
            """,
        )
        assert run_reprolint(tmp_path) == []

    def test_rebinding_held_resource_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/bad.py",
            """
            from repro.parallel import get_executor

            def clobber(a, b):
                lease = get_executor(a)
                lease = get_executor(b)
                try:
                    return lease.workers
                finally:
                    lease.close()
            """,
        )
        findings = run_reprolint(tmp_path)
        assert ("R2", 4) in {(f.rule, f.line) for f in findings}
        assert any("rebound" in f.message for f in findings)

    def test_loop_reacquisition_without_release_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/bad.py",
            """
            from repro.parallel import get_executor

            def per_chunk(counts):
                for workers in counts:
                    lease = get_executor(workers)
                return None
            """,
        )
        findings = run_reprolint(tmp_path)
        assert [f.rule for f in findings] == ["R2"]


# -- incremental cache -----------------------------------------------------------


class TestIncrementalCache:
    def _tree(self, tmp_path):
        write_module(tmp_path, "src/repro/pkg/__init__.py", "")
        write_module(tmp_path, "src/repro/pkg/alpha.py", "X = 1\n")
        write_module(
            tmp_path,
            "src/repro/pkg/beta.py",
            """
            import random

            def f():
                return random.random()
            """,
        )
        return tmp_path / "lint_cache.json"

    def test_second_run_is_fully_cached_with_identical_findings(self, tmp_path):
        cache = self._tree(tmp_path)
        first = analyze(tmp_path, baseline=Baseline.empty(), cache_path=cache)
        assert first.stats.files_analyzed == 3
        assert first.stats.files_cached == 0
        second = analyze(tmp_path, baseline=Baseline.empty(), cache_path=cache)
        assert second.stats.files_analyzed == 0
        assert second.stats.files_cached == 3
        assert second.stats.whole_program_reused
        assert second.stats.tree_rules_reused
        assert second.findings == first.findings
        assert [f.rule for f in second.findings] == ["R1"]

    def test_editing_one_file_reanalyzes_only_that_file(self, tmp_path):
        cache = self._tree(tmp_path)
        analyze(tmp_path, baseline=Baseline.empty(), cache_path=cache)
        # constant tweak: no import-graph or lock-index change
        write_module(tmp_path, "src/repro/pkg/alpha.py", "X = 2\n")
        result = analyze(tmp_path, baseline=Baseline.empty(), cache_path=cache)
        assert result.stats.files_analyzed == 1
        assert result.stats.files_cached == 2
        assert result.stats.whole_program_reused

    def test_import_graph_edit_reruns_whole_program_rules(self, tmp_path):
        cache = self._tree(tmp_path)
        analyze(tmp_path, baseline=Baseline.empty(), cache_path=cache)
        write_module(tmp_path, "src/repro/pkg/alpha.py", "import json\n\nX = 1\n")
        result = analyze(tmp_path, baseline=Baseline.empty(), cache_path=cache)
        assert result.stats.files_analyzed == 1
        assert not result.stats.whole_program_reused

    def test_corrupt_cache_falls_back_to_full_run(self, tmp_path):
        cache = self._tree(tmp_path)
        cache.write_text("{not json", encoding="utf-8")
        result = analyze(tmp_path, baseline=Baseline.empty(), cache_path=cache)
        assert result.stats.files_analyzed == 3
        assert [f.rule for f in result.findings] == ["R1"]

    def test_deleted_files_are_pruned_from_cache(self, tmp_path):
        cache = self._tree(tmp_path)
        analyze(tmp_path, baseline=Baseline.empty(), cache_path=cache)
        (tmp_path / "src/repro/pkg/beta.py").unlink()
        result = analyze(tmp_path, baseline=Baseline.empty(), cache_path=cache)
        assert result.findings == []
        payload = json.loads(cache.read_text(encoding="utf-8"))
        assert "src/repro/pkg/beta.py" not in payload["files"]

    def test_warm_cache_run_is_measurably_faster_on_live_tree(self, tmp_path):
        cache = tmp_path / "live_cache.json"
        t0 = time.perf_counter()
        cold = analyze(REPO_ROOT, cache_path=cache)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = analyze(REPO_ROOT, cache_path=cache)
        warm_s = time.perf_counter() - t0
        assert cold.stats.files_analyzed > 0
        assert warm.stats.files_analyzed == 0
        assert warm.stats.whole_program_reused and warm.stats.tree_rules_reused
        assert warm.findings == cold.findings == []
        # generous 2x bound (measured ~8x) to stay robust on loaded CI runners
        assert warm_s < cold_s / 2, f"warm {warm_s:.3f}s vs cold {cold_s:.3f}s"


# -- SARIF ------------------------------------------------------------------------


class TestSarif:
    def _findings(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/bad.py",
            """
            import random

            def f():
                return random.random()
            """,
        )
        return run_reprolint(tmp_path)

    def test_sarif_log_validates_against_vendored_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SARIF_SCHEMA_PATH.read_text(encoding="utf-8"))
        log = to_sarif(self._findings(tmp_path))
        jsonschema.validate(log, schema)

    def test_sarif_structure_and_rule_indexing(self, tmp_path):
        log = to_sarif(self._findings(tmp_path))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "reprolint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert rule_ids == sorted(rule_ids)
        (result,) = run["results"]
        assert result["ruleId"] == "R1"
        assert driver["rules"][result["ruleIndex"]]["id"] == "R1"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/repro/bad.py"
        assert loc["region"]["startLine"] == 4

    def test_cli_sarif_output_file(self, tmp_path):
        write_module(tmp_path, "src/repro/ok.py", "X = 1\n")
        out = tmp_path / "report" / "lint.sarif"
        code = reprolint_main(
            ["--root", str(tmp_path), "--format", "sarif", "--output", str(out), "--no-cache"]
        )
        assert code == 0
        log = json.loads(out.read_text(encoding="utf-8"))
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"] == []

    def test_empty_findings_still_produce_valid_log(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SARIF_SCHEMA_PATH.read_text(encoding="utf-8"))
        jsonschema.validate(to_sarif([]), schema)


# -- --changed mode ---------------------------------------------------------------


def _git(root: Path, *args: str) -> None:
    subprocess.run(
        ["git", *args],
        cwd=root,
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@example.com",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@example.com",
            "HOME": str(root),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


class TestChangedMode:
    def test_changed_scopes_per_file_findings(self, tmp_path, capsys):
        violation = "import random\n\n\ndef f():\n    return random.random()\n"
        write_module(tmp_path, "src/repro/stale.py", violation)
        write_module(tmp_path, "src/repro/fresh.py", "X = 1\n")
        try:
            _git(tmp_path, "init", "-q")
            _git(tmp_path, "add", ".")
            _git(tmp_path, "commit", "-qm", "seed")
        except (OSError, subprocess.CalledProcessError):
            pytest.skip("git unavailable in sandbox")
        # stale.py's finding predates HEAD; fresh.py gains one now
        write_module(tmp_path, "src/repro/fresh.py", violation)

        code = reprolint_main(["--root", str(tmp_path), "--changed", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 1
        assert "fresh.py" in out
        assert "stale.py" not in out

        code = reprolint_main(["--root", str(tmp_path), "--no-cache"])
        out = capsys.readouterr().out
        assert code == 1
        assert "fresh.py" in out and "stale.py" in out

    def test_changed_outside_git_falls_back_to_full_run(self, tmp_path, capsys):
        violation = "import random\n\n\ndef f():\n    return random.random()\n"
        write_module(tmp_path, "src/repro/bad.py", violation)
        code = reprolint_main(["--root", str(tmp_path), "--changed", "--no-cache"])
        captured = capsys.readouterr()
        assert code == 1
        assert "bad.py" in captured.out
        assert "full tree" in captured.err


# -- mypy ratchet: --update and the mypy-absent skip -------------------------------


class TestMypyRatchetMain:
    def test_absent_mypy_is_a_graceful_skip(self, tmp_path, capsys, monkeypatch):
        from tools.reprolint import mypy_ratchet

        monkeypatch.setattr(mypy_ratchet, "find_spec", lambda name: None)
        assert mypy_ratchet.main(["--root", str(tmp_path)]) == 0
        assert "skipping" in capsys.readouterr().out

    def _patched(self, monkeypatch, count: int):
        from collections import Counter

        from tools.reprolint import mypy_ratchet

        monkeypatch.setattr(mypy_ratchet, "find_spec", lambda name: object())
        monkeypatch.setattr(
            mypy_ratchet,
            "count_strict_errors",
            lambda root, targets: (count, Counter({"src/repro/x.py": count})),
        )
        return mypy_ratchet

    def test_update_records_measured_count(self, tmp_path, capsys, monkeypatch):
        ratchet = self._patched(monkeypatch, 17)
        baseline = tmp_path / "baseline.toml"
        baseline.write_text("[mypy]\nstrict_errors = 40\n", encoding="utf-8")
        code = ratchet.main(["--root", str(tmp_path), "--baseline", str(baseline), "--update"])
        assert code == 0
        assert Baseline.load(baseline).mypy_strict_errors == 17
        assert "recorded ceiling 17" in capsys.readouterr().out

    def test_below_ceiling_passes_and_nudges(self, tmp_path, capsys, monkeypatch):
        ratchet = self._patched(monkeypatch, 3)
        baseline = tmp_path / "baseline.toml"
        baseline.write_text("[mypy]\nstrict_errors = 10\n", encoding="utf-8")
        code = ratchet.main(["--root", str(tmp_path), "--baseline", str(baseline)])
        assert code == 0
        assert "--update" in capsys.readouterr().out

    def test_above_ceiling_fails_with_per_file_counts(self, tmp_path, capsys, monkeypatch):
        ratchet = self._patched(monkeypatch, 99)
        baseline = tmp_path / "baseline.toml"
        baseline.write_text("[mypy]\nstrict_errors = 10\n", encoding="utf-8")
        code = ratchet.main(["--root", str(tmp_path), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out and "src/repro/x.py" in out


# -- live-tree gates for the new rules ---------------------------------------------


class TestLiveTreeWholeProgram:
    def test_live_tree_clean_with_all_rules_active(self):
        result = analyze(REPO_ROOT)
        assert result.findings == [], "\n".join(f.render() for f in result.findings)

    def test_live_layer_manifest_is_declared_and_total(self):
        from tools.reprolint.core import DEFAULT_BASELINE

        baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE)
        assert baseline.layers, "shipped baseline must declare the [layers] manifest"
        packages = {
            p.name
            for p in (REPO_ROOT / "src" / "repro").iterdir()
            if p.is_dir() and (p / "__init__.py").exists()
        }
        assert packages == set(baseline.layers), (
            "every repro subpackage needs a layer level (and no stale entries)"
        )
