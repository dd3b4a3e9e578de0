"""Toy-size self-test of the benchmark.

    python3 loopbench/selftest.py

Runs every workload at toy size on two seeds and asserts that every
metric named in ``BENCHMARK.json`` is emitted with its unit and that every
correctness check passes.  It then injects a store that drops one hit from
each range batch and asserts that the checks catch it
(``query_fail_share > 0``, ``correct`` false), and a traced store whose
batches carry no signatures and asserts that the attribution check fails.
``layer_map.json`` must map every per-layer metric.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (puts src/ on the path)
from city import WORKLOADS, build_city  # noqa: E402
from loop import run_phase  # noqa: E402
from metrics import per_layer  # noqa: E402
from probes import TimedStore  # noqa: E402

from repro.querying.distributed import PartitionedStore  # noqa: E402

SECONDS = 1.5


def toy(name: str):
    """The named workload shrunk to a few seconds of toy-size work."""
    w = WORKLOADS[name]
    return dataclasses.replace(
        w,
        base_points=3_000,
        partitions=8,
        sensors=min(w.sensors, 12),
        ingest_rate=60.0,
        query_rate=None if w.query_rate is None else 80.0,
        clients=min(w.clients, 4),
        query_pool=None if w.query_pool is None else 200,
        flood_rate=0.0 if w.flood_rate == 0 else 400.0,
        probe_window=min(w.probe_window, SECONDS),
    )


class DroppingStore(PartitionedStore):
    """A deliberately wrong store: the first non-empty range answer of each
    batch loses its last hit."""

    def range_query_many(self, centers, radii, **kwargs):
        hits = super().range_query_many(centers, radii, **kwargs)
        for h in hits:
            if h:
                h.pop()
                break
        return hits


class UnlabelledStore(TimedStore):
    """A traced store whose batches hold no request signatures."""

    def _scan(self, name, sigs, call):
        return super()._scan(name, [("unlabelled",)] * len(sigs), call)


def spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec()[kind]}


def check_emitted(record: dict, trace: bool) -> None:
    line = bench.result_line(record, trace)
    want = declared("per_layer" if trace else "end_to_end")
    assert set(line["metrics"]) == set(want), set(want) ^ set(line["metrics"])
    for name, unit in want.items():
        value = line["metrics"][name]
        assert value["unit"] == unit, (name, value)
        assert isinstance(value["value"], float), (name, value)
    assert line["correct"], record["errors"]
    assert line["failed"] == 0 and line["attempted"] >= 1, line
    assert record["fail_shares"] == {"query_fail_share": 0.0, "ingest_fail_share": 0.0}


def test_every_metric_emitted_and_checks_pass() -> None:
    for name in WORKLOADS:
        for seed in (1, 2):
            record = bench.run(toy(name), seed, SECONDS, trace=False)
            check_emitted(record, trace=False)
            if not record["metrics"]["query_p50_ms"] > 0:
                raise AssertionError(f"{name}: no query latency measured")
            if not record["metrics"]["ingest_visible_p50_ms"] > 0:
                raise AssertionError(f"{name}: no ingest latency measured")


def test_traced_run_emits_per_layer_metrics() -> None:
    for name in WORKLOADS:
        record = bench.run(toy(name), 3, SECONDS, trace=True)
        check_emitted(record, trace=True)
        assert record["spans"], "traced run recorded no spans"


def test_counts_repeat_per_seed() -> None:
    keys = ("admitted", "repaired", "quarantined")
    first = bench.run(toy("ingest_flood"), 4, SECONDS, trace=False)["diagnostics"]["counters"]
    again = bench.run(toy("ingest_flood"), 4, SECONDS, trace=False)["diagnostics"]["counters"]
    assert [first[k] for k in keys] == [again[k] for k in keys], (first, again)


def test_wrong_answer_is_caught() -> None:
    record = bench.run(toy("city_loop"), 5, SECONDS, trace=False, store_cls=DroppingStore)
    assert record["fail_shares"]["query_fail_share"] > 0, record["fail_shares"]
    assert not bench.result_line(record, trace=False)["correct"]


def test_broken_attribution_is_caught() -> None:
    w = toy("city_loop")
    city = build_city(w, 6, SECONDS)
    base = asyncio.run(run_phase(w, city, SECONDS, traced=False))
    traced = asyncio.run(run_phase(w, city, SECONDS, traced=True, store_cls=UnlabelledStore))
    _metrics, errors = per_layer(traced, city.readings, base)
    assert any("match no store call" in e for e in errors), errors


def test_layer_map_covers_per_layer() -> None:
    layer_map = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))
    assert set(layer_map) == set(declared("per_layer")), set(layer_map) ^ set(declared("per_layer"))
    end_to_end = declared("end_to_end")
    for name, entry in layer_map.items():
        assert entry["moves"] or entry.get("note"), name
        for move in entry["moves"]:
            assert move["metric"] in end_to_end and move["workload"] in WORKLOADS, (name, move)


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
