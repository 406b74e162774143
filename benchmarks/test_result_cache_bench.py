"""Result-cache benchmark: hit / bypass / churn QPS.

The PR-10 acceptance benchmark for the byte-budgeted LRU result cache
(:mod:`repro.serve.cachepolicy`).  Three phases over one corpus:

* **hit-path** — a small repeated query mix against an ample byte
  budget: after warmup every request is a cache hit, so the measured
  QPS prices the storage's lookup path (lock, dict probe, LRU bump)
  plus service dispatch — the replacement must not give back PR 4's
  headline cache win.  The mix is submitted in waves of distinct
  texts, each wave awaited before the next, so no request is
  coalesced onto an identical one in flight: every request reaches
  ``ResultCacheStorage.get``;
* **bypass** — unique parameter bindings per request, so nothing is
  cacheable and every request executes.  This is the honest execution
  number; it is compared against the recorded ``BENCH_PR4.json``
  ``unique_params_mode`` baseline (concurrent/serial speedup 0.76x on
  the reference box) to prove the byte-accounted storage costs the
  uncached path nothing;
* **byte-pressure churn** — the same repeated mix squeezed through a
  budget smaller than the working set: admissions and LRU-by-bytes
  evictions on every round.  The phase asserts the evictions actually
  happened and that byte accounting stayed within budget — the
  "eviction exercised" requirement — and reports the sustained QPS
  under constant reclamation.

The artifact is ``BENCH_PR10.json`` at the repo root (read-modify-write
merged so repeated runs and CI coexist); the ``cache-policy-smoke`` CI
job uploads it.  ``REPRO_CACHE_BENCH_REQUESTS`` bounds the stream.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import wait
from pathlib import Path

from repro.bench.recording import merge_json
from repro.engine.session import Engine
from repro.serve import Catalog, QueryService

from test_serving_concurrent import QUERY_MIX, build_corpus, quantile

BENCH_PR10_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR10.json"
BENCH_PR4_PATH = BENCH_PR10_PATH.with_name("BENCH_PR4.json")
WORKERS = 8
N_REQUESTS = int(os.environ.get("REPRO_CACHE_BENCH_REQUESTS", "600"))


def pr4_unique_params_baseline() -> dict | None:
    """The recorded PR-4 cache-bypass numbers, if the artifact exists."""
    if not BENCH_PR4_PATH.exists():
        return None
    try:
        payload = json.loads(BENCH_PR4_PATH.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        return None
    return payload.get("unique_params_mode")


def drive(service: QueryService, stream, params=None) -> tuple[float, list]:
    started = time.perf_counter()
    futures = [service.submit(text, timeout_ms=60_000,
                              params=params[i] if params else None)
               for i, text in enumerate(stream)]
    wait(futures)
    elapsed = time.perf_counter() - started
    return elapsed, [f.result() for f in futures]


def test_hit_path_qps_and_storage_overhead():
    """Hot-cache throughput through the policy/storage split."""
    doc = build_corpus()
    waves = max(1, N_REQUESTS // len(QUERY_MIX))

    catalog = Catalog()
    catalog.register("main", doc)
    service = QueryService(catalog, workers=WORKERS,
                           max_queue=max(64, N_REQUESTS),
                           result_cache="16mb")
    for text in QUERY_MIX:                 # warm: plans + results hot
        service.query(text)
    before = service.stats()["counters"]
    elapsed, results = 0.0, []
    for _ in range(waves):
        # One wave holds each text once and is awaited before the
        # next, so nothing can coalesce onto an in-flight twin.
        wave_s, wave = drive(service, QUERY_MIX)
        elapsed += wave_s
        results.extend(wave)
    after = service.stats()["counters"]
    stats = service.stats()["result_cache"]
    service.close()

    hits = sum(1 for r in results if r.cached)
    coalesced = after["coalesced"] - before["coalesced"]
    storage_hits = (after["result_cache_hits"]
                    - before["result_cache_hits"])
    qps = len(results) / elapsed
    merge_json(BENCH_PR10_PATH, {
        "benchmark": "result_cache_policy",
        "workers": WORKERS,
        "n_nodes": len(doc.nodes),
        "hit_path": {
            "n_requests": len(results),
            "qps": round(qps, 1),
            "cached_fraction": round(hits / len(results), 4),
            "coalesced": coalesced,
            "storage_hits": storage_hits,
            "storage_bytes": stats["bytes"],
            "lifetime_hit_ratio": stats["hit_ratio"],
        },
    })
    # Every request of the phase reached the storage's lookup path:
    # none was coalesced, and the storage answered it.
    assert coalesced == 0
    assert storage_hits == len(results)
    # The vast majority of responses are flagged cached, and nothing
    # was ever evicted from an ample budget.
    assert hits >= len(results) * 0.9
    assert stats["evictions"] == 0
    assert stats["bytes"] <= stats["capacity_bytes"]
    assert qps > 0


def test_bypass_qps_matches_pr4_baseline():
    """Unique params: the uncached path must not regress vs BENCH_PR4."""
    doc = build_corpus()
    text = "for $b in //book where $b/price < $p return $b/title"
    n_requests = max(100, N_REQUESTS // 3)
    bindings = [{"p": float(i % 97)} for i in range(n_requests)]

    engine = Engine(doc)
    engine.query(text, params=bindings[0])
    started = time.perf_counter()
    for params in bindings:
        engine.query(text, params=params)
    serial_qps = n_requests / (time.perf_counter() - started)

    catalog = Catalog()
    catalog.register("main", doc)
    service = QueryService(catalog, workers=WORKERS,
                           max_queue=max(64, n_requests),
                           result_cache="16mb")
    service.query(text, params=bindings[0])
    elapsed, results = drive(service, [text] * n_requests, bindings)
    stats = service.stats()
    service.close()

    concurrent_qps = n_requests / elapsed
    speedup = concurrent_qps / serial_qps
    baseline = pr4_unique_params_baseline()
    run_ms = sorted(r.run_ms for r in results)
    merge_json(BENCH_PR10_PATH, {"bypass": {
        "query": text,
        "n_requests": n_requests,
        "serial_qps": round(serial_qps, 1),
        "concurrent_qps": round(concurrent_qps, 1),
        "speedup": round(speedup, 2),
        "run_ms_p50": round(quantile(run_ms, 0.50), 3),
        "run_ms_p99": round(quantile(run_ms, 0.99), 3),
        "pr4_baseline_speedup": (baseline or {}).get("speedup"),
        "pr4_baseline_concurrent_qps": (baseline or {}).get(
            "concurrent_qps"),
    }})
    # Honesty: nothing was cached or coalesced — every request ran.
    assert all(not r.cached for r in results)
    assert stats["counters"]["result_cache_hits"] == 0
    assert stats["counters"]["coalesced"] == 0
    # The split must not tax the bypass path: on the same box the
    # concurrent/serial ratio stays in the PR-4 ballpark (GIL-bound,
    # expected near or below 1x; 0.76x on the reference box).  The
    # bar is generous because absolute QPS is box-dependent — what it
    # catches is a policy/storage regression taxing every miss.
    if baseline and baseline.get("speedup"):
        assert speedup >= baseline["speedup"] * 0.5, {
            "speedup": speedup, "baseline": baseline["speedup"]}


def test_churn_qps_under_byte_pressure():
    """Sustained QPS while the byte budget forces constant eviction."""
    doc = build_corpus()
    stream = [QUERY_MIX[i % len(QUERY_MIX)] for i in range(N_REQUESTS)]

    catalog = Catalog()
    catalog.register("main", doc)
    # First measure the working set, then size the budget below it so
    # the mix can never fit at once: every round re-admits and evicts.
    probe = QueryService(catalog, workers=1, result_cache="16mb")
    for text in QUERY_MIX:
        probe.query(text)
    working_set = probe.stats()["result_cache"]["bytes"]
    probe.close()
    budget = max(1024, working_set // 2)

    service = QueryService(catalog, workers=WORKERS,
                           max_queue=max(64, N_REQUESTS),
                           result_cache={"max_bytes": budget})
    for text in QUERY_MIX:
        service.query(text)
    elapsed, results = drive(service, stream)
    stats = service.stats()["result_cache"]
    service.close()

    qps = len(stream) / elapsed
    hits = sum(1 for r in results if r.cached)
    merge_json(BENCH_PR10_PATH, {"byte_pressure_churn": {
        "n_requests": len(stream),
        "working_set_bytes": working_set,
        "budget_bytes": budget,
        "qps": round(qps, 1),
        "cached_fraction": round(hits / len(results), 4),
        "evictions": stats["evictions"],
        "rejected": stats["rejected"],
        "storage_bytes": stats["bytes"],
    }})
    # The acceptance requirement: byte-budget eviction was actually
    # exercised, and accounting never overran the budget.
    assert stats["evictions"] > 0, stats
    assert stats["bytes"] <= stats["capacity_bytes"], stats
    assert qps > 0
