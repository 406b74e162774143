"""Process execution backend for the partition-parallel merged scan.

The GIL serializes a per-node dispatch loop run on threads, so the
partition scans of :func:`~repro.physical.parallel_scan.parallel_merged_scan`
run in **worker processes** over the mmap-shared flat arena
(:mod:`repro.xmlkit.arena`):

* a persistent :class:`~concurrent.futures.ProcessPoolExecutor` is kept
  warm per :class:`ProcessScanBackend` owner (engine, database or query
  service); workers attach a snapshot's arena file **once** and keep the
  read-only mapping cached, so steady-state queries ship only the
  pickled NoK trees and four integers per partition;
* results come back as **compact nid arrays** (a pre-order flattening of
  each NestedList: root nid, then per-child-group counts and entries,
  recursively).  The coordinator decodes them against the *real*
  document's nodes in partition order, so downstream joins see ordinary
  identity-stable :class:`~repro.xmlkit.tree.Node` objects and the
  concatenated output is bit-identical to the serial scan (Theorem 1 —
  the order argument is representation-independent);
* cancellation stays cooperative across the process boundary: each
  query run owns a **slot** in two small shared arrays created with the
  pool — a cancel byte the coordinator sets on deadline expiry, failure
  or explicit cancel, and a budget cell every worker folds its scanned
  count into per stride (the approximate *global* work cap);
* a worker crash surfaces as a clean
  :class:`~repro.errors.ExecutionError` — never a hang — and the pool
  is rebuilt for the next query.

Counter semantics mirror the serial merged scan: workers run real
:class:`~repro.xmlkit.storage.ScanCounters` (plus per-NoK attribution
when requested) and return snapshots the coordinator folds into the
shared totals, aborted partitions included.
"""

from __future__ import annotations

import atexit
import ctypes
import mmap
import multiprocessing
import os
import pickle
import threading
import time
from array import array
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Iterator

from repro.algebra.nested_list import NLEntry
from repro.errors import (DNFError, ExecutionError, QueryCancelledError,
                          QueryTimeoutError, ReproError)
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Tracer
from repro.pattern.decompose import NoKTree
from repro.physical.nok import compile_nok
from repro.xmlkit.arena import ArenaDocument, DocumentArena, arena_file_for
from repro.xmlkit.partition import Partition
from repro.xmlkit.storage import SCAN_STRIDE, ScanCounters
from repro.xmlkit.tree import ELEMENT, Document

__all__ = ["ProcessScanBackend", "run_process_scan",
           "shared_process_backend", "shutdown_shared_process_backend"]

_PARTITION_SCANS = REGISTRY.counter(
    "repro_partition_scans_total",
    "Partition scan tasks executed by the parallel merged scan")
_WORKER_CRASHES = REGISTRY.counter(
    "repro_scan_worker_crashes_total",
    "Process-backend scan pools rebuilt after a worker crash")

#: Concurrent process-parallel queries one pool can track; each running
#: query owns one slot in the shared cancel/budget arrays.
_SLOT_COUNT = 64
#: Worker-side checkpoint stride (nodes between shared-state checks),
#: the serial scan's own stride.
_STRIDE = SCAN_STRIDE


def _fork_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork``: shared arrays pass to workers by inheritance and
    pool start-up skips a full interpreter boot per worker."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods
                                      else methods[0])


class ProcessScanBackend:
    """A persistent worker-process pool for partition scans.

    Created lazily (constructing the object spawns nothing), rebuilt
    transparently after a crash, shut down deterministically by its
    owner's ``close()``.  ``max_workers`` defaults to the core count,
    capped at four.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is None:
            max_workers = min(4, os.cpu_count() or 1)
        self.max_workers = max(1, max_workers)
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._cancel: Any = None
        self._budget: Any = None
        self._free: list[int] = []
        self._slot_sem = threading.Semaphore(_SLOT_COUNT)
        self._closed = False

    # -- pool lifecycle -------------------------------------------------

    def _ensure(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise ExecutionError("process scan backend is closed")
            if self._pool is None:
                ctx = _fork_context()
                self._cancel = ctx.Array(ctypes.c_byte, _SLOT_COUNT,
                                         lock=False)
                self._budget = ctx.Array(ctypes.c_longlong, _SLOT_COUNT,
                                         lock=True)
                self._free = list(range(_SLOT_COUNT))
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers, mp_context=ctx,
                    initializer=_attach_shared,
                    initargs=(self._cancel, self._budget))
            return self._pool

    def alive(self) -> bool:
        """True when a pool exists (spawned and not shut down)."""
        with self._lock:
            return self._pool is not None

    def _discard_broken(self) -> None:
        """Drop a crashed pool so the next query spawns a fresh one."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            _WORKER_CRASHES.inc()
            pool.shutdown(wait=True, cancel_futures=True)

    def close(self, wait: bool = True) -> None:
        """Deterministic shutdown: drain, stop workers, free the arrays."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
            self._cancel = self._budget = None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    # -- per-query slot protocol ---------------------------------------

    @contextmanager
    def slot(self, initial_scanned: int = 0) -> Iterator[int]:
        """Borrow a cancel/budget slot for one query run."""
        self._ensure()
        self._slot_sem.acquire()
        try:
            with self._lock:
                index = self._free.pop()
                self._cancel[index] = 0
                with self._budget.get_lock():
                    self._budget[index] = initial_scanned
            try:
                yield index
            finally:
                with self._lock:
                    self._free.append(index)
        finally:
            self._slot_sem.release()

    def cancel_slot(self, index: int) -> None:
        """Raise the shared cancel flag; workers observe it per stride."""
        with self._lock:
            if self._cancel is not None:
                self._cancel[index] = 1

    def submit(self, *args: Any) -> Future:
        return self._ensure().submit(_scan_partition_task, *args)


_shared_lock = threading.Lock()
_shared_backend: ProcessScanBackend | None = None


def shared_process_backend() -> ProcessScanBackend:
    """Process-wide fallback pool for engines without an owner stack
    (databases and query services own theirs)."""
    global _shared_backend
    with _shared_lock:
        if _shared_backend is None:
            _shared_backend = ProcessScanBackend()
        return _shared_backend


def shutdown_shared_process_backend() -> None:
    global _shared_backend
    with _shared_lock:
        backend, _shared_backend = _shared_backend, None
    if backend is not None:
        backend.close(wait=True)


atexit.register(shutdown_shared_process_backend)


# ----------------------------------------------------------------------
# Coordinator side.
# ----------------------------------------------------------------------

def run_process_scan(backend: ProcessScanBackend, doc: Document,
                     scannable: list[NoKTree],
                     partitions: list[Partition],
                     counters: ScanCounters,
                     per_nok: dict[int, ScanCounters] | None,
                     results: dict[int, list[NLEntry]],
                     tracer: Tracer | None) -> dict[int, list[NLEntry]]:
    """Fan the partitions out to worker processes and merge in order.

    ``results`` arrives pre-seeded with the coordinator-matched ``#root``
    NoKs; this function extends it with the decoded worker matches in
    partition order and folds every partition's counters back, aborted
    partitions included, like the serial operator's ``finally``.
    """
    path = arena_file_for(doc)
    blob = pickle.dumps(scannable, protocol=pickle.HIGHEST_PROTOCOL)
    by_id = {nok.nok_id: nok for nok in scannable}
    token = counters.cancellation
    # A token tripped before dispatch must fail the query up front —
    # the serial scan would raise at its first checkpoint, and small
    # partitions can finish before the poll loop below ever observes
    # the token and raises the shared cancel flag.
    if token is not None:
        if token.cancelled:
            raise QueryCancelledError()
        if token.expired():
            raise QueryTimeoutError(timeout_ms=token.timeout_ms)
    deadline = token.deadline if token is not None else None
    timeout_ms = token.timeout_ms if token is not None else None
    n_parts = len(partitions)
    payloads: list[tuple | None] = [None] * n_parts
    crashed: BrokenProcessPool | None = None

    with backend.slot(initial_scanned=counters.nodes_scanned) as slot:
        try:
            futures = {
                backend.submit(path, blob, part.start_nid, part.stop_nid,
                               slot, counters.budget, deadline, timeout_ms,
                               per_nok is not None): part.index
                for part in partitions}
        except BrokenProcessPool as exc:
            backend._discard_broken()
            raise ExecutionError(
                "parallel scan worker pool is broken; restarting it "
                f"for the next query ({exc})") from exc
        pending = set(futures)
        cancelled_slot = False
        while pending:
            done, pending = futures_wait(pending, timeout=0.05)
            for future in done:
                exc = future.exception()
                if isinstance(exc, BrokenProcessPool):
                    crashed = exc
                payload = future.result() if exc is None else None
                if payload is not None:
                    payloads[futures[future]] = payload
                failed = exc is not None or (payload is not None
                                             and payload[0] != "ok")
                if failed and not cancelled_slot:
                    # Tell the surviving partitions to stop within one
                    # stride instead of scanning to completion.
                    backend.cancel_slot(slot)
                    cancelled_slot = True
            if crashed is not None and pending:
                # A dead worker can leave siblings queued forever on a
                # broken pool; everything left fails with the same error.
                for future in pending:
                    future.cancel()
                break
            if (not cancelled_slot and token is not None
                    and (token.cancelled or token.expired())):
                backend.cancel_slot(slot)
                cancelled_slot = True

    first_error: ReproError | None = None
    try:
        if crashed is not None:
            backend._discard_broken()
            raise ExecutionError(
                "parallel scan worker process crashed mid-scan; the "
                f"process pool was rebuilt ({crashed})") from crashed
        for index in range(n_parts):
            payload = payloads[index]
            if payload is None:
                continue
            status, body = payload[0], payload[1]
            if status != "ok" and first_error is None:
                first_error = body if isinstance(body, ReproError) \
                    else ExecutionError(str(body))
        if first_error is not None:
            raise first_error
    finally:
        # Fold every partition's work into the shared totals — aborted
        # partitions included, exactly like the serial merged scan.
        for index in range(n_parts):
            payload = payloads[index]
            if payload is None:
                continue
            local_counters = _counters_from(payload[2])
            local_per_nok = payload[3]
            if local_per_nok is not None and per_nok is not None:
                for nok_id, snap in local_per_nok.items():
                    private = _counters_from(snap)
                    per_nok.setdefault(nok_id,
                                       ScanCounters()).merge(private)
                    local_counters.merge(private)
            counters.merge(local_counters)
            _PARTITION_SCANS.inc()
        _emit_spans(tracer, partitions, payloads)

    for index in range(n_parts):
        payload = payloads[index]
        if payload is None:
            continue
        for nok_id, data in payload[1].items():
            results[nok_id].extend(
                _decode_match_list(by_id[nok_id].root, data, doc.nodes))
    return results


def _counters_from(snapshot: dict[str, int]) -> ScanCounters:
    counters = ScanCounters()
    for name, value in snapshot.items():
        setattr(counters, name, value)
    return counters


def _emit_spans(tracer: Tracer | None, partitions: list[Partition],
                payloads: list[tuple | None]) -> None:
    if tracer is None:
        return
    parent = tracer.current()
    if parent is None:
        return
    from repro.obs.trace import Span

    for part in partitions:
        payload = payloads[part.index]
        started, ended = payload[4] if payload is not None else (0, 0)
        span = Span("partition-scan", {
            "partition": part.index,
            "start_nid": part.start_nid,
            "stop_nid": part.stop_nid,
            "backend": "processes",
            "matches": (sum(v[0] for v in payload[1].values())
                        if payload is not None and payload[0] == "ok"
                        else 0),
        })
        span.start_ns = started
        span.end_ns = ended
        parent.children.append(span)


# ----------------------------------------------------------------------
# Match-list wire format: a pre-order flattening of each NestedList.
# ----------------------------------------------------------------------

def _encode_match_list(entries: list[NLEntry]) -> array:
    out = array("i", [len(entries)])
    for entry in entries:
        _encode_entry(entry, out)
    return out


def _encode_entry(entry: NLEntry, out: array) -> None:
    out.append(entry.node.nid)
    for group in entry.groups:
        out.append(len(group))
        for sub in group:
            _encode_entry(sub, out)


def _decode_match_list(vertex: Any, data: array, nodes: Any
                       ) -> list[NLEntry]:
    entries: list[NLEntry] = []
    pos = 1
    for _ in range(data[0]):
        entry, pos = _decode_entry(vertex, data, pos, nodes)
        entries.append(entry)
    return entries


def _decode_entry(vertex: Any, data: array, pos: int, nodes: Any
                  ) -> tuple[NLEntry, int]:
    nid = data[pos]
    pos += 1
    entry = NLEntry(vertex, nodes[nid], len(vertex.child_edges))
    for index, edge in enumerate(vertex.child_edges):
        count = data[pos]
        pos += 1
        if count:
            group = entry.groups[index]
            child = edge.child
            for _ in range(count):
                sub, pos = _decode_entry(child, data, pos, nodes)
                group.append(sub)
    return entry, pos


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------

_worker_cancel: Any = None
_worker_budget: Any = None
#: path -> attached ArenaDocument; the mapping is the expensive part,
#: so a small LRU keeps recent snapshots warm across queries.
_worker_arenas: OrderedDict[str, ArenaDocument] = OrderedDict()
_WORKER_ARENA_CAP = 8


def _attach_shared(cancel: Any, budget: Any) -> None:
    """Pool initializer: receive the shared slot arrays by inheritance."""
    global _worker_cancel, _worker_budget
    _worker_cancel = cancel
    _worker_budget = budget


def _attached_document(path: str) -> ArenaDocument:
    adoc = _worker_arenas.get(path)
    if adoc is not None:
        _worker_arenas.move_to_end(path)
        return adoc
    with open(path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    adoc = DocumentArena.from_buffer(mapped).document()
    _worker_arenas[path] = adoc
    while len(_worker_arenas) > _WORKER_ARENA_CAP:
        _worker_arenas.popitem(last=False)
    return adoc


def _scan_partition_task(path: str, noks_blob: bytes, start_nid: int,
                         stop_nid: int, slot: int, budget: int | None,
                         deadline: float | None, timeout_ms: float | None,
                         want_per_nok: bool) -> tuple:
    """One partition's merged-scan dispatch loop, worker-side.

    The serial merged scan's loop over the arena columns: every slot in
    range charges ``nodes_scanned``, elements are
    dispatched to their candidate NoKs by tag id, and the NoKs' match
    kernels — compiled here from the unpickled NoKs with
    :func:`~repro.physical.nok.compile_nok`, as the serial plan compiles
    them — match on lazily-materialized node views.  Shared-state
    checks run once per stride: cancel flag, absolute monotonic deadline
    (CLOCK_MONOTONIC is system-wide on Linux, so the coordinator's
    deadline transfers verbatim), and the global budget cell.

    Failures return as ``("error", exc, ...)`` payloads rather than
    raising, so the coordinator can fold the partial counters of an
    aborted partition exactly like the serial operator's ``finally``.
    """
    started = time.perf_counter_ns()
    adoc = _attached_document(path)
    arena = adoc.arena
    noks: list[NoKTree] = pickle.loads(noks_blob)

    local = ScanCounters()
    local_per_nok: dict[int, ScanCounters] | None = (
        {} if want_per_nok else None)
    matches: dict[int, list[NLEntry]] = {nok.nok_id: [] for nok in noks}
    # Each candidate is its kernel, the counters it charges and the list
    # its matches go to; wildcard roots merge in after the named.
    by_tid: dict[int, list[tuple]] = {}
    wildcard: list[tuple] = []
    for nok in noks:
        charged = (local if local_per_nok is None
                   else local_per_nok.setdefault(nok.nok_id, ScanCounters()))
        candidate = (compile_nok(nok), charged, matches[nok.nok_id])
        if nok.root.name == "*":
            wildcard.append(candidate)
        else:
            tid = arena.tag_ids.get(nok.root.name)
            if tid is not None:
                by_tid.setdefault(tid, []).append(candidate)
    for named in by_tid.values():
        named.extend(wildcard)

    kinds, tags = arena.kind, arena.tag_id
    nodes = adoc.nodes
    flushed = 0

    def checkpoint() -> None:
        nonlocal flushed
        if _worker_cancel is not None and _worker_cancel[slot]:
            raise QueryCancelledError()
        if deadline is not None and time.monotonic() >= deadline:
            raise QueryTimeoutError(timeout_ms=timeout_ms)
        delta = local.nodes_scanned - flushed
        flushed = local.nodes_scanned
        if budget is not None and delta and _worker_budget is not None:
            with _worker_budget.get_lock():
                _worker_budget[slot] += delta
                total = _worker_budget[slot]
            if total > budget:
                local.trip_budget()
                raise DNFError("parallel scan exceeded the global "
                               "work budget", budget=budget)

    failure: ReproError | None = None
    try:
        local.scans_started += 1
        for nid in range(start_nid, min(stop_nid, arena.n_nodes)):
            local.nodes_scanned += 1
            if local.nodes_scanned - flushed >= _STRIDE:
                checkpoint()
            if kinds[nid] != ELEMENT:
                continue
            candidates = by_tid.get(tags[nid], wildcard)
            if not candidates:
                continue
            node = nodes[nid]
            for kernel, charged, out in candidates:
                entry = kernel(node, charged)
                if entry is not None:
                    out.append(entry)
        checkpoint()
    except ReproError as exc:
        failure = exc

    per_nok_snaps = ({nok_id: c.snapshot()
                      for nok_id, c in local_per_nok.items()}
                     if local_per_nok is not None else None)
    times = (started, time.perf_counter_ns())
    if failure is not None:
        return ("error", failure, local.snapshot(), per_nok_snaps, times)
    encoded = {nok_id: _encode_match_list(entries)
               for nok_id, entries in matches.items()}
    return ("ok", encoded, local.snapshot(), per_nok_snaps, times)
