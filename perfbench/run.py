"""The query-path benchmark: one workload, one run, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine-scan --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched; ``--trace 1`` is the separate traced run that prints the
per-layer metrics (see README.md).  The last line of standard output is
the result object; the line before it is the run's record (host
fingerprint, request-sequence hashes, sample counts, checks).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

#: Tail percentile: at the slowest workloads' ~24 requests/s a 15 s run
#: has ~360 samples, and p95 keeps at least ten beyond it even when the
#: host runs slow.
TAIL = 95
#: Seconds per throughput window; windows close on a whole pass of the
#: workload's request mix, and ``qps`` is the median window rate.
WINDOW_S = 1.0
#: Requests hashed into ``sequence_sha256`` (comparable across runs of
#: one seed whatever their throughput).
HASHED_PREFIX = 256

#: Per-layer metric -> (unit, end-to-end metric and workload it should
#: move).  ``ms`` and ``count/req`` are per measured request.
PER_LAYER = {
    "xmlkit.parse_ms": ("ms", "setup_s everywhere (per set-up)"),
    "xmlkit.index_build_ms": ("ms", "setup_s on paper-joins (per set-up)"),
    "xmlkit.summary_build_ms": ("ms", "setup_s everywhere (per set-up)"),
    "xmlkit.stats_ms": ("ms", "setup_s everywhere (per set-up)"),
    "xmlkit.loop_ms": ("ms", "commit_p50_ms on wire-read-write"),
    "xquery.calls": ("count/req", "qps on compile-cold; ~0 on engine-scan"),
    "xquery.self_ms": ("ms", "qps on compile-cold; ~0 on engine-scan"),
    "pattern.self_ms": ("ms", "qps on compile-cold"),
    "analysis.self_ms": ("ms", "qps on compile-cold"),
    "engine.plancache.hit_ratio": (
        "ratio", "~1 on engine-scan, 0 on compile-cold"),
    "engine.optimizer.self_ms": ("ms", "qps on compile-cold"),
    "physical.scan_ms": ("ms", "qps, latency_p50_ms on engine-scan"),
    "physical.join_ms": ("ms", "qps, latency_p50_ms on paper-joins"),
    "physical.nodes_scanned": (
        "count/req", "qps on engine-scan and paper-joins"),
    "physical.comparisons": (
        "count/req", "qps on engine-scan and paper-joins"),
    "physical.intermediate_results": (
        "count/req", "qps on engine-scan and paper-joins"),
    "physical.items_per_kilonode": (
        "ratio", "qps on engine-scan and paper-joins"),
    "engine.executor.self_ms": ("ms", "latency_p50_ms on engine-scan"),
    "engine.construct.self_ms": (
        "ms", "latency_p50_ms on engine-scan (where/constructor)"),
    "engine.result.serialize_ms": ("ms", "qps on engine-scan"),
    "engine.unattributed_ms": ("ms", "latency_p50_ms on every workload"),
    "obs.statstore.record_ms": ("ms", "qps on compile-cold"),
    "serve.service.submit_ms": ("ms", "latency_p95_ms on wire-read-write"),
    "serve.service.queue_wait_ms": (
        "ms", "latency_p95_ms on wire-read-write"),
    "serve.service.run_ms": ("ms", "latency_p95_ms on wire-read-write"),
    "serve.cachepolicy.hit_ratio": ("ratio", "qps on wire-read-write"),
    "serve.cachepolicy.invalidated": (
        "count/commit", "qps on wire-read-write"),
    "serve.throttle.shed_ratio": (
        "ratio", "success_ratio on wire-read-write"),
    "serve.snapshot.commit_ms": ("ms", "commit_p50_ms on wire-read-write"),
    "serve.snapshot.batch_ms": (
        "ms", "latency_p95_ms on wire-read-write (writes under reads)"),
    "serve.catalog.engine_for_ms": (
        "ms", "latency_p95_ms on wire-read-write"),
    "serve.protocol.self_ms": ("ms", "latency_p50_ms on wire-read-write"),
    "serve.protocol.bytes": ("B/req", "latency_p50_ms on wire-read-write"),
    "gc.pause_ms": (
        "ms", "latency_p95_ms on engine-scan and wire-read-write"),
    "gc.gen2_collections": (
        "count/kreq", "latency_p95_ms on engine-scan and wire-read-write"),
    "trace.overhead_ratio": ("ratio", "none (cost of tracing itself)"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "qps": "1/s",
    "latency_p50_ms": "ms",
    f"latency_p{TAIL}_ms": "ms",
    "success_ratio": "ratio",
    "commit_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of already sorted values (0 if none)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def median(values) -> float:
    return percentile(sorted(values), 50)


def mix_median(values: list, families: list) -> float:
    """Median latency of each request family, averaged over the mix
    (each family weighted by its share of the samples).

    A workload mixes families whose latencies differ by up to 50x, so
    the plain median of all samples can sit in the gap between two
    families' modes and jump from run to run as the mix of waits
    shifts; each family's own median does not.
    """
    groups: dict = defaultdict(list)
    for value, family in zip(values, families):
        groups[family].append(value)
    return sum(median(group) * len(group)
               for group in groups.values()) / max(len(values), 1)


def window_rates(done_ns, ok, cycle: int, start_ns: int) -> list:
    """``(successes per second, start, end)`` of consecutive windows of
    at least :data:`WINDOW_S`, each closing at the end of a pass of the
    request mix (so every window holds whole passes)."""
    rates = []
    window_start, count = start_ns, 0
    for index, (done, good) in enumerate(zip(done_ns, ok), 1):
        count += good
        elapsed = done - window_start
        if index % cycle == 0 and elapsed >= WINDOW_S * 1e9:
            rates.append((count / (elapsed / 1e9), window_start, done))
            window_start, count = done, 0
    return rates


# ---------------------------------------------------------------------------
# Host fingerprint.
# ---------------------------------------------------------------------------


def fingerprint() -> dict:
    nproc = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else os.cpu_count())
    try:
        uptime = float(Path("/proc/uptime").read_text().split()[0])
    except OSError:
        uptime = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "uptime_s": uptime,
    }


#: Fingerprint fields two runs must share to be compared.
COMPARABLE = ("nproc", "python", "platform")


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def end_to_end(run, ctx, wrong: int) -> tuple[dict, dict]:
    """The end-to-end metrics at nominal host speed, and the same
    figures as measured (for the record)."""
    log, k = run.log, ctx.speed.k
    raw_rates, rates = [], []
    for rate, start, end in window_rates(log.done_ns, log.ok, run.cycle,
                                         ctx.phases.start_ns):
        raw_rates.append(rate)
        rates.append(rate * k(start, end))
    raw_lat = [ns / 1e6 for ns in log.latency_ns]
    latencies = [ns / 1e6 / k(done - ns, done)
                 for ns, done in zip(log.latency_ns, log.done_at)]
    setups = [seconds / k(start, end)
              for seconds, (start, end) in zip(run.setup_s, run.setup_spans)]
    commits = [ns / 1e6 / k(done - ns, done) for ns, done in log.commit_ns]
    attempted = len(log.ok)
    metrics = {
        "setup_s": median(setups),
        "qps": median(rates),
        "latency_p50_ms": mix_median(latencies, log.family),
        f"latency_p{TAIL}_ms": percentile(sorted(latencies), TAIL),
        "success_ratio": (sum(log.ok) - wrong) / max(attempted, 1),
        "commit_p50_ms": median(commits),
        "peak_rss_mb": run.peak_rss_mb,
    }
    raw = {
        "setup_s": median(run.setup_s),
        "qps": median(raw_rates),
        "latency_p50_ms": mix_median(raw_lat, log.family),
        f"latency_p{TAIL}_ms": percentile(sorted(raw_lat), TAIL),
        "commit_p50_ms": median(ns for ns, _ in log.commit_ns) / 1e6,
        "speed_k_median": statistics.median(ctx.speed.walks)
        / ctx.speed.nominal_ns,
        "speed_probes": len(ctx.speed.walks),
    }
    return metrics, raw


def per_layer(run, ctx, gc_meter) -> tuple[dict, dict]:
    """Per-layer metrics of a trace run, plus the run's trace checks."""
    from layers import REQUEST, WRAPPED

    log, tracer = run.log, ctx.tracer
    spans, agg, calls, tallies = tracer.merged()
    setup_spans = tracer.setup[0]
    traced = sum(t for t in log.traced)
    untraced = len(log.traced) - traced
    per_req = max(traced, 1)

    layer_ns: dict = defaultdict(int)
    layer_calls: dict = defaultdict(int)
    for (_rid, layer), (n, ns) in agg.items():
        layer_ns[layer] += ns
        layer_calls[layer] += n
    totals: dict = defaultdict(float)
    for (_rid, name), value in tallies.items():
        totals[name] += value

    def ms(layer: str) -> float:
        return layer_ns[layer] / 1e6 / per_req

    def ratio(name: str) -> float:
        n = totals[f"{name}.calls"]
        return totals[name] / n if n else 0.0

    def per_setup(qualname: str) -> float:
        """Median over set-up passes of the time spent in one function."""
        sums = [sum(s[6] for s in setup_spans
                    if s[3] == qualname and start <= s[4] <= end)
                for start, end in run.setup_spans]
        return median(sums) / 1e6

    if run.log.wait_ms:
        nodes, comparisons, intermediate, items = (
            sum(c[i] for c in tracer.served) for i in range(4))
        counted = per_req
    else:
        nodes, comparisons, intermediate, items = log.counters
        counted = max(sum(log.ok), 1)
    commits = max(layer_calls["serve.snapshot"], 1)
    rate = {mode: sum(ok for ok, t in zip(log.ok, log.traced) if t == mode)
            / max(ctx.phases.seconds[mode], 1e-9) for mode in (False, True)}
    metrics = {
        "xmlkit.parse_ms": per_setup("repro.xmlkit.parser:parse"),
        "xmlkit.index_build_ms": per_setup(
            "repro.xmlkit.index:TagIndex.build"),
        "xmlkit.summary_build_ms": per_setup(
            "repro.xmlkit.summary:build_summary"),
        "xmlkit.stats_ms": per_setup("repro.xmlkit.stats:compute_stats"),
        "xmlkit.loop_ms": sum(ms(layer) for layer in layer_ns
                              if layer.startswith("xmlkit.")),
        "xquery.calls": layer_calls["xquery"] / per_req,
        "xquery.self_ms": ms("xquery"),
        "pattern.self_ms": ms("pattern"),
        "analysis.self_ms": ms("analysis"),
        "engine.plancache.hit_ratio": ratio("engine.plancache.hits"),
        "engine.optimizer.self_ms": ms("engine.optimizer"),
        "physical.scan_ms": ms("physical.scan"),
        "physical.join_ms": ms("physical.join"),
        "physical.nodes_scanned": nodes / counted,
        "physical.comparisons": comparisons / counted,
        "physical.intermediate_results": intermediate / counted,
        "physical.items_per_kilonode": items / (nodes / 1000) if nodes
        else 0.0,
        "engine.executor.self_ms": ms("engine.executor"),
        "engine.construct.self_ms": ms("engine.construct"),
        "engine.result.serialize_ms": ms("engine.result.serialize"),
        "engine.unattributed_ms": ms(REQUEST),
        "obs.statstore.record_ms": ms("obs.statstore.record"),
        "serve.service.submit_ms": ms("serve.service"),
        "serve.service.queue_wait_ms": median(log.wait_ms),
        "serve.service.run_ms": median(log.run_ms),
        "serve.cachepolicy.hit_ratio": ratio("serve.cachepolicy.hits"),
        "serve.cachepolicy.invalidated":
            totals["serve.cachepolicy.invalidated"] / commits,
        "serve.throttle.shed_ratio": 1 - ratio("serve.throttle.admitted")
        if totals["serve.throttle.admitted.calls"] else 0.0,
        "serve.snapshot.commit_ms": median(
            [s[5] - s[4] for s in spans
             if s[3] == "repro.serve.snapshot:SnapshotUpdater.commit"]) / 1e6,
        "serve.snapshot.batch_ms": statistics.fmean(log.batch_ns) / 1e6
        if log.batch_ns else 0.0,
        "serve.catalog.engine_for_ms": ms("serve.catalog"),
        "serve.protocol.self_ms": ms("serve.protocol"),
        "serve.protocol.bytes": (totals["serve.protocol.bytes_out"]
                                 + totals["serve.protocol.bytes_in"])
        / per_req,
        "gc.pause_ms": gc_meter.pause_ns / 1e6 / max(untraced, 1),
        "gc.gen2_collections": gc_meter.gen2 * 1000 / max(untraced, 1),
        "trace.overhead_ratio": 1 - rate[True] / rate[False]
        if rate[False] else 0.0,
    }

    # Coverage: every function wrapped for this workload was called.
    setup_calls = tracer.setup[2]
    missing = [target.qualname for target in WRAPPED
               if target.workload == ctx.workload
               and calls[target.qualname] + setup_calls[target.qualname] == 0]
    checks = {
        "coverage_missing": missing,
        "traced_requests": sum(s[3] == REQUEST for s in spans),
        "containment_violations": containment_violations(spans),
        "spans_kept": len(spans) + len(setup_spans),
    }
    return metrics, checks


def containment_violations(spans: list) -> int:
    """Kept spans of a traced request that lie outside its root span's
    ``[start, end]``, or whose parent chain does not reach that root
    (so their time would be charged to the wrong request)."""
    from layers import REQUEST

    roots = {s[2]: s for s in spans if s[3] == REQUEST}
    parents = {s[0]: s[1] for s in spans}
    violations = 0
    for sid, parent, rid, name, start, end, _self_ns in spans:
        if rid is None or name == REQUEST:
            continue
        root = roots.get(rid)
        if root is None or not root[4] <= start <= end <= root[5]:
            violations += 1
            continue
        for _ in range(len(parents)):
            if parent is None or parent == root[0]:
                break
            parent = parents.get(parent)
        violations += parent != root[0]
    return violations


def write_trace(path: Path, tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for phase, spans in (("setup", tracer.setup[0]),
                             ("loop", tracer.merged()[0])):
            for sid, parent, rid, name, start, end, self_ns in spans:
                out.write(json.dumps({
                    "phase": phase, "span": sid, "parent": parent,
                    "request": rid, "name": name, "start_ns": start,
                    "end_ns": end, "self_ns": self_ns}) + "\n")


# ---------------------------------------------------------------------------
# Main.
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"program source not found under {SRC}")
    sys.path.insert(0, str(SRC))

    from layers import GcMeter, Tracer
    from speed import SpeedReference
    from workloads import (WORKLOADS, Context, Phases, check_results,
                           check_sequences)

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(WORKLOADS)}")
    host = fingerprint()
    # One core for the whole process: Python runs one thread at a time
    # anyway, and the speed probe must time the core the program runs on
    # (the two cores of a shared host drift apart).
    if hasattr(os, "sched_setaffinity"):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        host["pinned_cpu"] = cpu

    tracer = gc_meter = None
    if args.trace:
        tracer = Tracer()        # raises if a wrapped name has moved
        gc_meter = GcMeter()
        tracer.install()
    ctx = Context(args.workload, args.seed, args.seconds,
                  Phases(tracer, gc_meter), tracer, SpeedReference())
    if gc_meter is not None:
        with gc_meter:
            run = workload(ctx)
    else:
        run = workload(ctx)

    deterministic, head_digest = check_sequences(run, HASHED_PREFIX)

    distinct, wrong, examples = check_results(run)
    log = run.log
    attempted = len(log.ok)
    failed = attempted - sum(log.ok) + wrong
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": host,
        "sequence_sha256": head_digest,
        "sequence_deterministic": deterministic,
        "attempted": attempted,
        "failures": dict(log.failures),
        "failure_messages": log.messages,
        "wrong_results": wrong,
        "wrong_examples": [list(k) for k in examples],
        "distinct_results_checked": distinct,
        "latency_samples": len(log.latency_ns),
        f"samples_beyond_p{TAIL}": len(log.latency_ns)
        - math.ceil(TAIL / 100 * len(log.latency_ns)),
        "setup_s_samples": run.setup_s,
        "commit_samples": len(log.commit_ns),
        "loop_write_batches": len(log.batch_ns),
    }
    correct = wrong == 0 and deterministic
    if args.trace:
        metrics, checks = per_layer(run, ctx, gc_meter)
        record["trace_checks"] = checks
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        write_trace(path, tracer)
        record["trace_file"] = str(path.relative_to(ROOT))
        correct = correct and not checks["coverage_missing"] \
            and checks["containment_violations"] == 0
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        print(f"{'per-layer metric':34} {'value':>12} {'unit':11} "
              "should move")
        for name, value in metrics.items():
            print(f"{name:34} {value:12.4f} {units[name]:11} "
                  f"{PER_LAYER[name][1]}")
    else:
        metrics, record["as_measured"] = end_to_end(run, ctx, wrong)
        units = END_TO_END_UNITS
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
