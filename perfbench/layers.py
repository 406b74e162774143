"""Outside-in per-layer tracing.

The benchmark never edits the program.  It wraps the program's public
functions where their callers look them up (every ``repro.*`` module
attribute bound to the function, or the class attribute for methods)
and records one span per call: name, start, end, parent span and
request id.  A layer's self time is a span's duration minus the time
its child spans cover.

Functions that run once per tuple or item (the construct helpers, the
wire item codecs) are *leaves*: their calls are timed and counted per
request like any span, but not kept as individual span records, so a
request with thousands of tuples does not keep thousands of spans.  A
span under a leaf names the leaf's nearest kept ancestor as its parent.

Wrappers are installed and removed as a whole (:meth:`Tracer.install`,
:meth:`Tracer.uninstall`); with them removed the program runs exactly
its own code.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

__all__ = ["WRAPPED", "GcMeter", "Tracer"]

SPAN = "span"
LEAF = "leaf"

#: Layer name of the request root spans the benchmark opens itself.
REQUEST = "request"


@dataclass(frozen=True)
class Target:
    """One wrapped public function.

    ``qualname`` is ``module:function`` or ``module:Class.method``.
    ``workload`` names the workload meant to load it; the coverage
    check fails a traced run of that workload in which it was never
    called.  ``None`` marks a function wrapped only so its time is
    attributed if it ever runs (no workload targets it).
    """

    qualname: str
    layer: str
    workload: str | None
    kind: str = SPAN
    #: Outcome tally: a :data:`TALLIES` name summed into
    #: ``<layer>.<tally>`` per call, or ``"served"`` (service results).
    tally: str | None = None


def _not_none(args, kwargs, result):
    return result is not None


def _truthy(args, kwargs, result):
    return bool(result)


def _returned(args, kwargs, result):
    return result


def _out_bytes(args, kwargs, result):
    return len(result)


def _in_bytes(args, kwargs, result):
    return len(args[0])


#: Each outcome tally has its own function; ``TALLIES[name]`` computes it.
TALLIES = {
    "hits": _not_none,
    "admitted": _truthy,
    "invalidated": _returned,
    "bytes_out": _out_bytes,
    "bytes_in": _in_bytes,
}

WRAPPED: tuple[Target, ...] = (
    # xmlkit: document load and the lazily built per-document structures.
    Target("repro.xmlkit.parser:parse", "xmlkit.parse", "engine-scan"),
    Target("repro.xmlkit.index:TagIndex.build", "xmlkit.index_build",
           "paper-joins"),
    Target("repro.xmlkit.summary:build_summary", "xmlkit.summary_build",
           "engine-scan"),
    Target("repro.xmlkit.stats:compute_stats", "xmlkit.stats", "engine-scan"),
    # compile: parse, BlossomTree, decomposition, verify, lint, optimizer.
    Target("repro.xquery.parser:parse_query", "xquery", "compile-cold"),
    Target("repro.pattern.build:build_blossom_tree", "pattern", "compile-cold"),
    Target("repro.pattern.artifact:prepare_artifacts", "pattern",
           "compile-cold"),
    Target("repro.analysis.analyzer:verify_tree", "analysis", "compile-cold"),
    Target("repro.analysis.analyzer:verify_plan", "analysis", "compile-cold"),
    Target("repro.analysis.query:analyze_query", "analysis", "compile-cold"),
    Target("repro.engine.plancache:PlanCache.get", "engine.plancache",
           "engine-scan", tally="hits"),
    Target("repro.engine.plancache:PlanCache.put", "engine.plancache",
           "compile-cold"),
    Target("repro.engine.optimizer:choose_strategy", "engine.optimizer",
           "compile-cold"),
    # physical operators.
    Target("repro.physical.nok_merge:merged_scan", "physical.scan",
           "engine-scan"),
    Target("repro.physical.parallel_scan:parallel_merged_scan",
           "physical.scan", None),
    Target("repro.physical.pipelined_join:pipelined_desc_join",
           "physical.join", "paper-joins"),
    Target("repro.physical.pipelined_join:caching_desc_join",
           "physical.join", "paper-joins"),
    Target("repro.physical.stack_join:stack_desc_join", "physical.join",
           "paper-joins"),
    Target("repro.physical.nested_loop:bounded_nested_loop_join",
           "physical.join", "paper-joins"),
    Target("repro.physical.nested_loop:naive_nested_loop_join",
           "physical.join", "paper-joins"),
    Target("repro.physical.twigstack:TwigStackOperator.run", "physical.join",
           "paper-joins"),
    # execution, finish and result.
    Target("repro.engine.executor:FLWORExecutor.execute", "engine.executor",
           "engine-scan"),
    Target("repro.engine.executor:FLWORExecutor.execute_twigstack",
           "engine.executor", "paper-joins"),
    Target("repro.engine.construct:DirectEvaluator.check_where",
           "engine.construct", "engine-scan", LEAF),
    Target("repro.engine.construct:DirectEvaluator.order_tuples",
           "engine.construct", "engine-scan"),
    Target("repro.engine.construct:DirectEvaluator.eval_query_expr",
           "engine.construct", "engine-scan", LEAF),
    Target("repro.engine.construct:DirectEvaluator.construct",
           "engine.construct", "engine-scan", LEAF),
    Target("repro.engine.result:QueryResult.serialize",
           "engine.result.serialize", "engine-scan"),
    Target("repro.obs.statstore:StatsStore.record", "obs.statstore.record",
           "compile-cold"),
    # serving layer.
    Target("repro.serve.service:QueryService.submit", "serve.service",
           "wire-read-write", tally="served"),
    Target("repro.serve.cachepolicy:ResultCacheStorage.get",
           "serve.cachepolicy", "wire-read-write", tally="hits"),
    Target("repro.serve.cachepolicy:ResultCacheStorage.put",
           "serve.cachepolicy", "wire-read-write"),
    Target("repro.serve.cachepolicy:ResultCacheStorage.invalidate_snapshot",
           "serve.cachepolicy", "wire-read-write", tally="invalidated"),
    Target("repro.serve.throttle:AdmissionController.try_acquire",
           "serve.throttle", "wire-read-write", tally="admitted"),
    Target("repro.serve.snapshot:SnapshotUpdater.commit", "serve.snapshot",
           "wire-read-write"),
    Target("repro.serve.catalog:Catalog.engine_for", "serve.catalog",
           "wire-read-write"),
    Target("repro.serve.protocol:encode_frame", "serve.protocol",
           "wire-read-write", tally="bytes_out"),
    Target("repro.serve.protocol:decode_frame", "serve.protocol",
           "wire-read-write", tally="bytes_in"),
    Target("repro.serve.protocol:encode_item", "serve.protocol",
           "wire-read-write", LEAF),
    Target("repro.serve.protocol:decode_item", "serve.protocol",
           "wire-read-write", LEAF),
)


def _resolve(qualname: str):
    """``(owner, attribute, original)`` of one target; raises if gone."""
    module_name, _, path = qualname.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    original = owner.__dict__[attr] if classes else getattr(owner, attr)
    return owner, attr, original


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[list] = []        # frames: [span id, child ns]
        self.rid = None
        self.registered = False


class Tracer:
    """Span recorder plus the wrapper set over :data:`WRAPPED`."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = _ThreadState()
        self._lock = threading.Lock()
        #: Per-thread buffers, merged when read.
        self._buffers: list[tuple[list, dict, dict, dict]] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._resolved = [(t, *_resolve(t.qualname)) for t in WRAPPED]
        self.installed = False
        #: Physical counters and item counts of executed (not cached)
        #: service results: ``(nodes, comparisons, intermediate, items)``.
        self.served: list[tuple[int, int, int, int]] = []
        #: ``merged()`` as of the end of set-up (see :meth:`end_setup`).
        self.setup = None

    # -- thread-local buffers ------------------------------------------

    def _buffer(self):
        local = self._local
        if not local.registered:
            # spans, per-(rid, layer) [calls, self ns], call counts,
            # per-(rid, layer.tally) sums
            local.buffer = ([], defaultdict(lambda: [0, 0]),
                            defaultdict(int), defaultdict(float))
            with self._lock:
                self._buffers.append(local.buffer)
            local.registered = True
        return local.buffer

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        if self.installed:
            return
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "repro"
                                         or name.startswith("repro."))]
        for target, owner, attr, original in self._resolved:
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                sites = [owner]
            else:
                # Every module that bound the function by name: the
                # program imports with ``from ... import``.
                sites = [m for m in modules
                         if m.__dict__.get(attr) is original]
            for site in sites:
                self._patches.append((site, attr, original, wrapper))
                setattr(site, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for site, attr, original, _wrapper in reversed(self._patches):
            setattr(site, attr, original)
        self._patches.clear()
        self.installed = False

    def _wrap(self, target: Target, fn):
        layer = target.layer
        qualname = target.qualname
        keep = target.kind == SPAN
        tally = (self._on_submit if target.tally == "served"
                 else TALLIES[target.tally] if target.tally else None)
        tally_key = f"{layer}.{target.tally}" if target.tally else None
        local = self._local
        ids = self._ids
        clock = time.perf_counter_ns
        buffer_for = self._buffer

        def wrapper(*args, **kwargs):
            spans, agg, calls, tallies = buffer_for()
            stack = local.stack
            # A leaf keeps no record, so its children name the nearest
            # kept ancestor as their parent.
            sid = next(ids) if keep else (stack[-1][0] if stack else None)
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = None
                if stack:
                    parent_frame = stack[-1]
                    parent_frame[1] += duration
                    parent = parent_frame[0]
                rid = local.rid
                cell = agg[(rid, layer)]
                cell[0] += 1
                cell[1] += duration - frame[1]
                calls[qualname] += 1
                if keep:
                    spans.append((sid, parent, rid, qualname, start, end,
                                  duration - frame[1]))
            if tally is not None:
                tallies[(rid, tally_key)] += tally(args, kwargs, result)
                tallies[(rid, tally_key + ".calls")] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_submit(self, args, kwargs, future) -> int:
        future.add_done_callback(self._on_served)
        return 1

    def _on_served(self, future) -> None:
        if future.cancelled() or future.exception() is not None:
            return
        served = future.result()
        counters = served.result.counters
        if not served.cached and counters is not None:
            self.served.append((counters.nodes_scanned,
                                counters.comparisons,
                                counters.intermediate_results,
                                len(served.result)))

    def end_setup(self) -> None:
        """Keep set-up's records apart: snapshot them into
        :attr:`setup` and start the loop's records from empty."""
        self.setup = self.merged()
        with self._lock:
            for spans, agg, calls, tallies in self._buffers:
                spans.clear()
                agg.clear()
                calls.clear()
                tallies.clear()
        self.served.clear()

    # -- request roots ---------------------------------------------------

    def begin(self, rid) -> list:
        """Open request ``rid`` on this thread; returns its root frame."""
        self._buffer()
        local = self._local
        local.rid = rid
        frame = [next(self._ids), 0, time.perf_counter_ns()]
        local.stack.append(frame)
        return frame

    def end(self, frame: list) -> int:
        """Close a request root; returns its wall time in ns."""
        end = time.perf_counter_ns()
        local = self._local
        local.stack.pop()
        spans, agg, _calls, _tallies = self._buffer()
        duration = end - frame[2]
        cell = agg[(local.rid, REQUEST)]
        cell[0] += 1
        cell[1] += duration - frame[1]
        spans.append((frame[0], None, local.rid, REQUEST, frame[2], end,
                      duration - frame[1]))
        local.rid = None
        return duration

    # -- results ---------------------------------------------------------

    def merged(self):
        """``(spans, agg, calls, tallies)`` over every thread."""
        spans: list = []
        agg: dict = defaultdict(lambda: [0, 0])
        calls: dict = defaultdict(int)
        tallies: dict = defaultdict(float)
        with self._lock:
            buffers = list(self._buffers)
        for b_spans, b_agg, b_calls, b_tallies in buffers:
            spans.extend(b_spans)
            for key, (n, ns) in list(b_agg.items()):
                agg[key][0] += n
                agg[key][1] += ns
            for key, n in list(b_calls.items()):
                calls[key] += n
            for key, value in list(b_tallies.items()):
                tallies[key] += value
        return spans, agg, calls, tallies


class GcMeter:
    """Collector pauses and generation-2 collections via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_ns = 0
        self.gen2 = 0
        self._started: dict[int, int] = {}
        self._lock = threading.Lock()
        self.active = False

    def _callback(self, phase: str, info: dict) -> None:
        now = time.perf_counter_ns()
        ident = threading.get_ident()
        if phase == "start":
            self._started[ident] = now
            return
        started = self._started.pop(ident, None)
        if started is not None and self.active:
            with self._lock:
                self.pause_ns += now - started
                self.gen2 += info.get("generation") == 2

    def __enter__(self) -> GcMeter:
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)
