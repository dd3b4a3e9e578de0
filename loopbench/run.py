"""City-loop benchmark: ingest → store → QoD → serve, end to end and per layer.

Usage (from the repository root)::

    python3 loopbench/run.py --workload city_loop --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs it untraced, then again with every layer
probe installed, and prints the per-layer metrics (the untraced run is the
baseline of ``obs.trace_overhead``).  Both modes check the answers.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's provenance.  A JSON record of the run (with the span log
when traced) is written under ``loopbench/out/``.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from city import WORKLOADS, Workload, build_city  # noqa: E402
from loop import N_SHARDS, run_phase  # noqa: E402
from metrics import end_to_end, fail_shares, failures, per_layer  # noqa: E402

OUT_DIR = HERE / "out"


def physical_cores() -> int:
    """Distinct (package, core) pairs in ``/proc/cpuinfo``; logical count as fallback."""
    pairs: set[tuple[str, str]] = set()
    physical = core = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("physical id"):
                    physical = line.split(":")[1].strip()
                elif line.startswith("core id"):
                    core = line.split(":")[1].strip()
                if physical is not None and core is not None:
                    pairs.add((physical, core))
                    physical = core = None
    except OSError:
        pass
    return len(pairs) or (os.cpu_count() or 1)


def source_identity() -> dict[str, str | None]:
    """Git commit when run inside a clone, plus a digest of ``src/`` always."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def provenance(args: argparse.Namespace, params: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "logical_cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "physical_cores": physical_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **source_identity(),
        "params": params,
        "n_shards": N_SHARDS,
        "load_threads": 1 + (1 if params["readings"] else 0),
    }


def run(w: Workload, seed: int, seconds: float, trace: bool, store_cls=None) -> dict:
    """Run one workload; returns the record the CLI prints and writes.

    ``store_cls`` substitutes the store class (the self-test injects a
    deliberately wrong one).
    """
    city = build_city(w, seed, seconds)
    base = asyncio.run(run_phase(w, city, seconds, traced=False, store_cls=store_cls))
    phases = [base]
    errors: list[str] = []
    if trace:
        traced = asyncio.run(run_phase(w, city, seconds, traced=True, store_cls=store_cls))
        phases.append(traced)
        metrics, errors = per_layer(traced, city.readings, base)
    else:
        metrics = end_to_end(base, city.readings)
    errors += [e for p in phases for e in p.check_errors]
    counts = [tuple(p.counters[k] for k in ("admitted", "repaired", "quarantined")) for p in phases]
    if len(set(counts)) != 1:
        errors.append(f"admit/repair/quarantine counts differ between phases: {counts}")
    fails = [failures(p) for p in phases]
    attempted = sum(f["queries_submitted"] + f["readings_offered"] for f in fails)
    failed = sum(f["queries_failed"] + f["readings_failed"] for f in fails)
    return {
        "params": city.params,
        "metrics": metrics,
        "fail_shares": fail_shares(base),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "correct": not errors and failed == 0,
        "diagnostics": {
            "counters": base.counters,
            "serve_stats": base.serve_stats,
            "never_bumped_partition_share": base.never_bumped_share,
            "cyclic_garbage_after_phase": base.cyclic_garbage,
            "setup_s_each": base.setup_s,  # SETUPS_BEFORE, then SETUPS_AFTER
        },
        "spans": phases[-1].spans.rows if trace else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    prov = provenance(args, record["params"])
    result = result_line(record, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    spans = record["spans"]
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "provenance": prov,
                "result": result,
                "fail_shares": record["fail_shares"],
                "errors": record["errors"],
                "diagnostics": record["diagnostics"],
                "span_fields": ["trace", "name", "start", "end", "parent"],
                "spans": [[repr(t), n, s, e, repr(p)] for t, n, s, e, p in spans] if spans else [],
            },
            fh,
        )
    for err in record["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"provenance": prov, "fail_shares": record["fail_shares"]}))
    print(json.dumps(result))
    return 0


def result_line(record: dict, trace: bool) -> dict:
    """The printed result: every metric this mode declares in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in declared
        },
    }


if __name__ == "__main__":
    sys.exit(main())
