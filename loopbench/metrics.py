"""Derive the end-to-end and per-layer metrics from one phase's observations.

Every function here is pure: it reads a :class:`~loop.PhaseResult` and
returns ``{name: value}`` (``per_layer`` also returns its check errors).
Units live in ``BENCHMARK.json``.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
from loop import PhaseResult
from probes import reading_key


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _class_of(req) -> str:
    if req.mode == "range":
        return "range"
    return "knn_weighted" if req.weighted else "knn"


def _answered(r: PhaseResult) -> list[tuple]:
    return [q for q in r.queries if q[5] in ("ok", "cached")]


def _offer_origin(r: PhaseResult, idx: int) -> float:
    """A paced reading's due time; a flood reading's ``offer`` call."""
    due = r.reading_due[idx]
    return due if due is not None else r.offer_start[idx]


def _reading_index(readings) -> dict:
    return {reading_key(ev): i for i, ev in enumerate(readings)}


def failures(r: PhaseResult) -> dict[str, int]:
    """Failure and attempt counts behind the two fail shares."""
    bad = sum(1 for q in r.queries if q[5] in ("shed", "error"))
    c = r.counters
    return {
        "queries_submitted": len(r.queries) + r.check_total,
        "queries_failed": bad + r.check_wrong,
        "readings_offered": c["offered"],
        "readings_failed": c["dropped"] + c["rejected"] + r.ingest_errors,
    }


def end_to_end(r: PhaseResult, readings) -> dict[str, float]:
    answered = _answered(r)
    lat = [(q[4] - q[1]) * 1e3 for q in answered]
    miss = [(q[4] - q[1]) * 1e3 for q in answered if q[5] == "ok"]
    window = (max(q[4] for q in answered) - r.t_queries) if answered else 0.0
    # Paced readings only: a flood's offer-to-visible time is its queue
    # residence, set by how the GIL shares out producer and shard threads.
    index = _reading_index(readings)
    due = (r.reading_due[index[key]] for key in r.visible)
    visible = [(t - d) * 1e3 for t, d in zip(r.visible.values(), due) if d is not None]
    return {
        "setup_s": min(r.setup_s),
        "query_p50_ms": pct(lat, 50),
        "query_p99_ms": pct(lat, 99),
        "query_miss_p50_ms": pct(miss, 50),
        "query_miss_p99_ms": pct(miss, 99),
        "query_qps": len(answered) / window if window > 0 else 0.0,
        "ingest_eps": r.ingest_settled / r.ingest_window,
        "ingest_visible_p50_ms": pct(visible, 50),
        "ingest_visible_p99_ms": pct(visible, 99),
        "peak_rss_mb": r.peak_rss_mb,
    }


def fail_shares(r: PhaseResult) -> dict[str, float]:
    f = failures(r)
    return {
        "query_fail_share": f["queries_failed"] / max(1, f["queries_submitted"]),
        "ingest_fail_share": f["readings_failed"] / max(1, f["readings_offered"]),
    }


def _match_batches(r: PhaseResult, store) -> dict[int, dict]:
    """Map each answered miss (by position in ``r.queries``) to its batch.

    A request belongs to the first store call that started after its
    submit, ended before it resumed, and holds its signature.
    """
    by_sig: dict[tuple, list[dict]] = defaultdict(list)
    for batch in store.batches:
        for sig in batch["sigs"]:
            by_sig[sig].append(batch)
    out: dict[int, dict] = {}
    for i, (req, _due, _fire, submit, done, status) in enumerate(r.queries):
        if status != "ok":
            continue
        for batch in by_sig.get(req.signature(), ()):
            if batch["start"] >= submit and batch["end"] <= done and "dep_end" in batch:
                out[i] = batch
                break
    return out


def _cache_calls(spans, name: str) -> dict[tuple, list[tuple[float, float]]]:
    """``serve.cache.get`` or ``put`` spans by unstamped signature, in time order."""
    out: dict[tuple, list[tuple[float, float]]] = defaultdict(list)
    for sig, _name, start, end, _outcome in spans.named(name):
        key = sig[:-2] if len(sig) > 2 and sig[-2] == "qod-epoch" else sig
        out[key].append((start, end))
    return out


def _within(calls, lo: float, hi: float) -> tuple[float, float] | None:
    """The first call that started at or after ``lo`` and ended by ``hi``."""
    return next((c for c in calls if c[0] >= lo and c[1] <= hi), None)


def per_layer(r: PhaseResult, readings, untraced: PhaseResult) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a traced phase, and its attribution errors.

    An answered request or admitted reading that no probe span matches
    is an error: the matching has broken, and the breakdowns would read 0.
    """
    spans, store = r.spans, r.store
    wall = r.t_end - r.t0
    out: dict[str, float] = {}
    errors: list[str] = []

    # -- loadgen: lateness of every open-loop generator (queries, readings)
    late = [(q[2] - q[1]) * 1e3 for q in r.queries if q[2] != q[1]]
    late += [(s - d) * 1e3 for s, d in zip(r.offer_start, r.reading_due) if d is not None]
    out["loadgen.lateness_p99_ms"] = pct(late, 99)

    # -- ingest, per reading: queue wait, gates, on_admit, append
    index = _reading_index(readings)
    gate_sum: dict = defaultdict(float)
    first_gate: dict = {}
    for key, _name, start, end, _gate in spans.named("ingest.gate"):
        gate_sum[key] += end - start
        if key not in first_gate or start < first_gate[key]:
            first_gate[key] = start
    hook = {
        name: {key: end - start for key, _n, start, end, _p in spans.named(name)}
        for name in ("ingest.on_admit.epoch", "ingest.on_admit.qod")
    }
    append = {key: end - start for key, _n, start, end, _p in spans.named("store.append")}
    queue_wait = [(first_gate[key] - r.offer_start[index[key]]) * 1e3 for key in first_gate]
    out["ingest.queue_wait_p99_ms"] = pct(queue_wait, 99)
    main = slice(0, r.n_flood or len(r.offer_start))  # the flood, if any
    offered = [e - s for s, e in zip(r.offer_start[main], r.offer_end[main])]
    producer_wall = max(r.offer_end[main]) - min(r.offer_start[main]) if offered else 0.0
    out["ingest.producer_block_share"] = sum(offered) / producer_wall if producer_wall > 0 else 0.0
    out["ingest.gate_us_p50"] = pct([v * 1e6 for v in gate_sum.values()], 50)
    out["ingest.gate_us_p99"] = pct([v * 1e6 for v in gate_sum.values()], 99)
    out["ingest.on_admit.epoch_us_p50"] = pct([v * 1e6 for v in hook["ingest.on_admit.epoch"].values()], 50)
    out["ingest.on_admit.qod_us_p50"] = pct([v * 1e6 for v in hook["ingest.on_admit.qod"].values()], 50)
    for name in ("admitted", "repaired", "quarantined"):
        out[f"ingest.{name}"] = float(r.counters[name])
    # Covered: generator lateness plus the probed calls.  Queue wait is a
    # gap between calls, so it counts as unattributed.
    unattributed = total = 0.0
    unmatched = 0
    probed = (gate_sum, hook["ingest.on_admit.epoch"], hook["ingest.on_admit.qod"], append)
    for key, seen in r.visible.items():
        if any(key not in p for p in probed):
            unmatched += 1
            continue
        i = index[key]
        e2e = seen - _offer_origin(r, i)
        covered = (r.offer_start[i] - _offer_origin(r, i)) + sum(p[key] for p in probed)
        unattributed += e2e - covered
        total += e2e
    out["ingest.unattributed_share"] = unattributed / total if total > 0 else 0.0
    if unmatched:
        errors.append(f"{unmatched} admitted readings lack a gate, hook or append span")

    # -- store
    out["store.append_us_p50"] = pct([v * 1e6 for v in append.values()], 50)
    out["store.append_us_p99"] = pct([v * 1e6 for v in append.values()], 99)
    compacts = spans.named("store.compact")
    out["store.compactions"] = float(len(compacts))
    out["store.compact_ms_p99"] = pct([(e - s) * 1e3 for _t, _n, s, e, _p in compacts], 99)
    out["store.delta_fraction_max_end"] = r.delta_fraction_max_end
    out["store.points_start"] = float(r.points_start)
    out["store.points_end"] = float(r.points_end)
    calls: dict[str, list[float]] = defaultdict(list)
    for b in store.batches:
        calls[b["name"]].append(b["end"] - b["start"])
    for name in ("range", "knn", "knn_weighted"):
        out[f"store.{name}_ms_per_call"] = mean(calls[f"store.{name}"]) * 1e3
    scan_total = sum(b["end"] - b["start"] for b in store.batches)
    scanned = sum(len(b["sigs"]) for b in store.batches)
    out["store.scan_us_per_query"] = scan_total / scanned * 1e6 if scanned else 0.0
    out["store.partitions_touched_per_query"] = r.partitions_touched / r.queries_routed if r.queries_routed else 0.0
    deps = [b["dep_end"] - b["dep_start"] for b in store.batches if "dep_end" in b]
    out["store.depsets_ms_per_call"] = mean(deps) * 1e3
    on_loop = scan_total + sum(deps)
    on_loop += sum(e - s for t, n, s, e, _p in spans.rows if n in ("store.compact", "store.set_quality_weights") and t == "loop")
    out["store.loop_busy_share"] = on_loop / wall

    # -- serve: per-request breakdown of misses; cache; admission
    matched = _match_batches(r, store)
    q_wait = [(b["start"] - r.queries[i][3]) * 1e3 for i, b in matched.items()]
    resolve = [(r.queries[i][4] - b["dep_end"]) * 1e3 for i, b in matched.items()]
    out["serve.queue_wait_p50_ms"] = pct(q_wait, 50)
    out["serve.queue_wait_p99_ms"] = pct(q_wait, 99)
    out["serve.resolve_p99_ms"] = pct(resolve, 99)
    out["serve.batch_size_mean"] = scanned / len(store.batches) if store.batches else 0.0
    out["serve.kernel_calls"] = float(r.serve_stats["kernel_calls"])
    hits, misses, stale = r.cache_lookups
    lookups = hits + misses
    out["serve.cache.hit_rate"] = hits / lookups if lookups else 0.0
    out["serve.cache.stale_share"] = stale / lookups if lookups else 0.0
    gets = _cache_calls(spans, "serve.cache.get")
    puts = _cache_calls(spans, "serve.cache.put")
    out["serve.cache.get_us_p50"] = pct([(e - s) * 1e6 for v in gets.values() for s, e in v], 50)
    out["serve.shed"] = float(r.serve_stats["shed"])
    # Covered: generator lateness plus the probed calls (cache get, scan,
    # dependency sets, cache put).  Queue wait and resolve are gaps between
    # calls (coalescer linger, resolving futures, a busy loop), so they
    # count as unattributed.
    shares: dict[str, list[float]] = {c: [0.0, 0.0] for c in ("range", "knn", "knn_weighted", "cache_hit")}
    unmatched = 0
    for i, (req, due, fire, submit, done, status) in enumerate(r.queries):
        if status not in ("ok", "cached"):
            continue
        sig = req.signature()
        get = _within(gets.get(sig, ()), submit, done)
        if get is None:
            unmatched += 1
            continue
        covered = (fire - due) + (get[1] - get[0])
        if status == "ok":
            b = matched.get(i)
            put = _within(puts.get(sig, ()), b["dep_end"], done) if b is not None else None
            if put is None:
                unmatched += 1
                continue
            covered += (b["end"] - b["start"]) + (b["dep_end"] - b["dep_start"]) + (put[1] - put[0])
            acc = shares[_class_of(req)]
        else:
            acc = shares["cache_hit"]
        acc[0] += (done - due) - covered
        acc[1] += done - due
    for cls, (un, tot) in shares.items():
        out[f"serve.unattributed_share.{cls}"] = un / tot if tot > 0 else 0.0
    if unmatched:
        errors.append(f"{unmatched} answered requests match no store call or cache span")

    # -- qod, parallel, obs
    out["qod.refresh_ms"] = float(np.median([(e - s) * 1e3 for s, e in r.refreshes])) if r.refreshes else 0.0
    out["qod.refreshes"] = float(len(r.refreshes))
    out["qod.sensors"] = float(r.qod_sensors)
    out["parallel.pool_kernel_calls"] = float(store.pool_calls)
    out["obs.trace_overhead"] = _cpu_per_op(r) / _cpu_per_op(untraced)
    out.update(fail_shares(r))
    return out, errors


def _cpu_per_op(r: PhaseResult) -> float:
    """Process CPU seconds per answered query or settled reading.

    Open-loop phases do the same work traced or not, and wall time is
    pinned by their schedule, so CPU time per operation is the measure of
    tracing cost that holds for open- and closed-loop workloads alike.
    """
    ops = len(_answered(r)) + r.counters["offered"]
    return r.cpu_s / max(1, ops)
