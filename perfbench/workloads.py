"""The four workloads: set-up, timed closed loop, commit latency, oracle.

Each workload drives the program only through its public API
(``repro.parse``, ``Engine.query``, ``Catalog.updater`` /
``SnapshotUpdater.commit``, ``repro.listen`` and ``Client.query``) with
the program's default settings.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import random
import resource
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import repro
from repro import ServiceOverloadedError
from repro.baseline.naive_flwor import NaiveInterpreter
from repro.datagen import DATASETS
from repro.serve import Catalog
from repro.serve.client import connect
from repro.xmlkit import serialize

from speed import SpeedReference
from inputs import (
    ENGINE_SCAN_FAMILIES,
    COMPILE_COLD_TEMPLATES,
    WIRE_HOT,
    WIRE_MISS,
    Request,
    book_xml,
    compile_cold_stream,
    engine_scan_stream,
    library_xml,
    paper_cells,
    paper_stream,
    sequence_digest,
    wire_stream,
)

__all__ = ["WORKLOADS", "Context", "Log", "Phases", "Run"]

#: The serving corpus: 40 shelves x 50 books = 14,042 nodes.
SERVING = (40, 50)
#: The compile-cold corpus: 4 shelves x 11 books = 314 nodes.
SMALL = (4, 11)
#: Prices in the small corpus run 1..44; literals are drawn below this.
SMALL_PRICE_BOUND = 46.0
PAPER_SCALE = 0.25
#: Write batches timed after the loop: at least this many, and more
#: while under ``COMMIT_PROBE_S`` seconds have passed.
COMMIT_PROBES = 25
COMMIT_PROBE_S = 1.0
COMMIT_PROBES_MAX = 400
#: Seconds per untraced or traced block of a trace run.
BLOCK_S = 1.0
#: Pause of a wire client after an OVERLOADED refusal before it sends
#: its next request (the refused request is not retried).
BACKOFF_S = 0.05


def digest(text: str) -> bytes:
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


@dataclass
class Log:
    """Per-attempt outcomes of one caller thread."""

    done_ns: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    latency_ns: list = field(default_factory=list)
    done_at: list = field(default_factory=list)   # per latency sample
    family: list = field(default_factory=list)    # per latency sample
    #: ``(doc, snapshot, literal text)`` and result digest per success.
    keys: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    #: ``(elapsed ns, perf_counter_ns at the end)`` per probe batch.
    commit_ns: list = field(default_factory=list)
    #: elapsed ns per write batch inside the loop (under read load).
    batch_ns: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    #: first message per failure type.
    messages: dict = field(default_factory=dict)
    sent: list = field(default_factory=list)
    #: physical counters summed over successful in-process queries:
    #: nodes scanned, comparisons, intermediate results, items.
    counters: list = field(default_factory=lambda: [0, 0, 0, 0])
    #: server-reported queue wait / run time per wire result (ms).
    wait_ms: list = field(default_factory=list)
    run_ms: list = field(default_factory=list)

    def fail(self, exc: Exception) -> None:
        name = type(exc).__name__
        self.failures[name] += 1
        self.messages.setdefault(name, str(exc)[:200])

    def absorb(self, other: Log) -> None:
        """Append another caller's outcomes (its ``sent`` stays apart)."""
        for name in ("done_ns", "ok", "traced", "latency_ns", "done_at",
                     "family", "keys", "digests", "batch_ns", "wait_ms",
                     "run_ms"):
            getattr(self, name).extend(getattr(other, name))
        self.failures.update(other.failures)
        for name, message in other.messages.items():
            self.messages.setdefault(name, message)
        self.counters = [a + b for a, b in zip(self.counters,
                                               other.counters)]


class Phases:
    """Traced/untraced alternation of a trace run.

    The loop alternates blocks of :data:`BLOCK_S` seconds, starting
    untraced, installing the wrappers for the traced blocks; the
    untraced blocks give the reference throughput for the overhead
    ratio and the collector statistics.  Without a tracer every block
    is untraced and nothing is installed.
    """

    def __init__(self, tracer, gc_meter):
        self.tracer = tracer
        self.gc_meter = gc_meter
        self.block_ns = int(BLOCK_S * 1e9)
        self.start_ns = 0
        self.seconds = {False: 0.0, True: 0.0}
        self._mode = False
        self._since = 0

    def begin(self, now: int) -> None:
        self.start_ns = self._since = now
        if self.tracer is not None:
            self.tracer.end_setup()
        self._set(False)

    def _set(self, traced: bool) -> None:
        if self.tracer is None:
            return
        if traced:
            self.tracer.install()
        else:
            self.tracer.uninstall()
        if self.gc_meter is not None:
            self.gc_meter.active = not traced

    def update(self, now: int) -> bool:
        if self.tracer is None:
            return False
        mode = ((now - self.start_ns) // self.block_ns) % 2 == 1
        if mode != self._mode:
            self.seconds[self._mode] += (now - self._since) / 1e9
            self._since = now
            self._mode = mode
            self._set(mode)
        return mode

    def finish(self, now: int) -> None:
        self.seconds[self._mode] += (now - self._since) / 1e9
        self._since = now
        if self.tracer is not None:
            self.tracer.uninstall()
        if self.gc_meter is not None:
            self.gc_meter.active = False


@dataclass
class Context:
    """What a workload gets from the runner."""

    workload: str
    seed: int
    seconds: float
    phases: Phases
    tracer: object
    speed: SpeedReference


@dataclass
class Run:
    """What a workload hands back to the runner."""

    log: Log
    setup_s: list                 # raw seconds per set-up pass
    cycle: int                    # requests per pass of the request mix
    documents: dict               # doc name -> XML text (snapshot 0)
    #: Peak resident memory (MB) at the end of the timed loop, before
    #: the commit probe and the checks allocate anything of their own.
    peak_rss_mb: float
    snapshots: dict = field(default_factory=dict)  # snapshot id -> inserts
    inserts: tuple = ()
    setup_spans: list = field(default_factory=list)   # (start, end) ns
    #: ``(requests sent, fresh stream factory)`` per caller.
    streams: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Shared pieces.
# ---------------------------------------------------------------------------


def _catalog(xml: str) -> Catalog:
    catalog = Catalog()
    catalog.register("probe", xml)
    return catalog


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed_setups(ctx: Context, repeats: int, build, close=None):
    """Run ``build`` ``repeats`` times, with a speed probe around each
    pass; keep the last system."""
    times, spans, system = [], [], None
    for attempt in range(repeats):
        if system is not None and close is not None:
            close(system)
        # Each pass starts from a collected heap, like a fresh process,
        # holding no earlier pass's system.
        system = None
        gc.collect()
        ctx.speed.probe()
        started = time.perf_counter_ns()
        system = build(attempt)
        ended = time.perf_counter_ns()
        times.append((ended - started) / 1e9)
        spans.append((started, ended))
    ctx.speed.probe()
    return system, times, spans


def _engine_loop(ctx: Context, stream, call) -> Log:
    """One closed-loop caller on the calling thread."""
    log = Log()
    phases, tracer, speed = ctx.phases, ctx.tracer, ctx.speed
    clock = time.perf_counter_ns
    now = clock()
    end = now + int(ctx.seconds * 1e9)
    phases.begin(now)
    for rid in itertools.count():
        if now >= end:
            break
        speed.maybe_probe(now)
        request = next(stream)
        log.sent.append(request)
        traced = phases.update(now)
        frame = tracer.begin(rid) if traced else None
        started = clock()
        try:
            key, text, counters = call(request)
        except Exception as exc:       # failure accounting: no retry
            now = clock()
            if frame is not None:
                tracer.end(frame)
            log.fail(exc)
            log.done_ns.append(now)
            log.ok.append(False)
            log.traced.append(traced)
            continue
        now = clock()
        if frame is not None:
            tracer.end(frame)
        log.latency_ns.append(now - started)
        log.done_at.append(now)
        log.family.append(request.family)
        log.done_ns.append(now)
        log.ok.append(True)
        log.traced.append(traced)
        log.keys.append(key)
        log.digests.append(digest(text))
        totals = log.counters
        for i, value in enumerate(counters):
            totals[i] += value
    phases.finish(clock())
    return log


def _engine_call(engines):
    """``Engine.query`` + ``QueryResult.serialize`` for one request."""

    def call(request: Request):
        result = engines[request.doc].query(request.text,
                                            strategy=request.strategy,
                                            params=request.params)
        text = result.serialize()
        counters = result.counters
        return ((request.doc, None, request.literal_text()), text,
                (counters.nodes_scanned, counters.comparisons,
                 counters.intermediate_results, len(result)))

    return call


def _commit_batch(catalog, doc: str, shelf: int | None, book: str):
    """One timed write batch (fork, insert a book, commit); returns
    ``(elapsed ns, new snapshot)``."""
    subtree = repro.parse(book).root
    started = time.perf_counter_ns()
    updater = catalog.updater(doc)
    root = updater.doc.root
    parent = root if shelf is None else root.children[shelf]
    updater.insert_subtree(parent, subtree)
    snapshot = updater.commit()
    return time.perf_counter_ns() - started, snapshot


def _commit_probe(ctx: Context, catalog, name: str,
                  shelves: int | None) -> list:
    """Write-batch latency with no reads running, after the loop: one
    book per batch under a seeded shelf (or under the root element when
    ``shelves`` is ``None``)."""
    rng = random.Random(f"commit-probe/{ctx.seed}")
    times = []
    deadline = time.perf_counter_ns() + int(COMMIT_PROBE_S * 1e9)
    for n in range(COMMIT_PROBES_MAX):
        if n >= COMMIT_PROBES and time.perf_counter_ns() >= deadline:
            break
        shelf = rng.randrange(shelves) if shelves else None
        # From a collected heap, a batch pays the collections its own
        # allocations trigger and none left due by earlier work.
        gc.collect()
        ctx.speed.probe()
        elapsed, _snapshot = _commit_batch(
            catalog, name, shelf, book_xml(n, rng.randrange(97), "probe"))
        times.append((elapsed, time.perf_counter_ns()))
    ctx.speed.probe()
    return times


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


def engine_scan(ctx: Context) -> Run:
    xml = library_xml(*SERVING)
    first = [Request(f, t, {"p": 1} if how else None)
             for f, t, how in ENGINE_SCAN_FAMILIES]

    def build(_attempt):
        engine = repro.Engine(repro.parse(xml))
        for request in first:
            engine.query(request.text, params=request.params).serialize()
        return engine

    engine, setup_s, spans = _timed_setups(ctx, 3, build)
    log = _engine_loop(ctx, engine_scan_stream(ctx.seed),
                       _engine_call({"serving": engine}))
    rss_mb = _peak_rss_mb()
    log.commit_ns = _commit_probe(ctx, _catalog(xml), "probe", SERVING[0])
    return Run(log, setup_s, len(ENGINE_SCAN_FAMILIES), {"serving": xml},
               rss_mb, setup_spans=spans,
               streams=[(log.sent, lambda: engine_scan_stream(ctx.seed))])


def paper_joins(ctx: Context) -> Run:
    # The datasets are the generators' own (fixed) draws, like the
    # serving corpus: at this scale another datagen seed changes the
    # cost of a pass by up to a third, which would measure the draw
    # rather than the program.  The seed orders each pass instead.
    documents = {name: serialize(spec.generate(scale=PAPER_SCALE).root)
                 for name, spec in DATASETS.items()}
    cells = paper_cells(DATASETS)

    def build(_attempt):
        engines = {name: repro.Engine(repro.parse(xml))
                   for name, xml in documents.items()}
        for cell in cells:
            engines[cell.doc].query(cell.text,
                                    strategy=cell.strategy).serialize()
        return engines

    engines, setup_s, spans = _timed_setups(ctx, 3, build)
    log = _engine_loop(ctx, paper_stream(ctx.seed, cells),
                       _engine_call(engines))
    rss_mb = _peak_rss_mb()
    largest = max(documents.values(), key=len)
    log.commit_ns = _commit_probe(ctx, _catalog(largest), "probe", None)
    return Run(log, setup_s, len(cells), documents, rss_mb,
               setup_spans=spans,
               streams=[(log.sent, lambda: paper_stream(ctx.seed, cells))])


COMPILE_COLD_SETUPS = 5


def _compile_cold_requests(seed: int):
    """``(set-up requests, loop stream)``: set-up draws its texts from a
    stream of its own, and the loop never repeats one of them."""
    used: set = set()
    setup = compile_cold_stream(seed + 1_000_003, SMALL_PRICE_BOUND, used)
    first = [next(setup) for _ in range(
        COMPILE_COLD_SETUPS * len(COMPILE_COLD_TEMPLATES))]
    return first, compile_cold_stream(seed, SMALL_PRICE_BOUND, used)


def compile_cold(ctx: Context) -> Run:
    xml = library_xml(*SMALL)
    first, stream = _compile_cold_requests(ctx.seed)
    per_setup = len(COMPILE_COLD_TEMPLATES)

    def build(attempt):
        engine = repro.Engine(repro.parse(xml))
        for request in first[attempt * per_setup:(attempt + 1) * per_setup]:
            engine.query(request.text).serialize()
        return engine

    engine, setup_s, spans = _timed_setups(ctx, COMPILE_COLD_SETUPS, build)
    log = _engine_loop(ctx, stream, _engine_call({"small": engine}))
    rss_mb = _peak_rss_mb()
    # Batches on the 314-node corpus take ~2 ms, too short to time
    # steadily; probe the serving corpus like engine-scan does.
    log.commit_ns = _commit_probe(ctx, _catalog(library_xml(*SERVING)),
                                  "probe", SERVING[0])
    return Run(log, setup_s, per_setup, {"small": xml}, rss_mb,
               setup_spans=spans,
               streams=[(log.sent,
                         lambda: _compile_cold_requests(ctx.seed)[1])])


def wire_read_write(ctx: Context) -> Run:
    seed, tracer, phases = ctx.seed, ctx.tracer, ctx.phases
    xml = library_xml(*SERVING)
    first = [Request(family, text) for family, text in WIRE_HOT]
    first.append(Request(WIRE_MISS[0], WIRE_MISS[1], {"p": 1.0}))

    def build(_attempt):
        server = repro.listen(xml, workers=2)
        clients = [connect(*server.address) for _ in range(2)]
        for request in first:
            clients[0].query(request.text, params=request.params).serialize()
        return server, clients

    def close(system):
        server, clients = system
        for client in clients:
            client.close()
        server.close()

    (server, clients), setup_s, spans = _timed_setups(ctx, 3, build, close)
    # Rebuilding a committed snapshot for the oracle needs the inserts in
    # commit order; only connection 0 writes.
    catalog = server.service.catalog
    snapshots = {catalog.current("main").snapshot_id: 0}
    inserts: list = []
    logs = [Log(), Log()]
    clock = time.perf_counter_ns
    stop = threading.Event()
    start_gate = threading.Barrier(3)

    def caller(connection: int) -> None:
        client = clients[connection]
        log = logs[connection]
        stream = wire_stream(seed, connection)
        start_gate.wait()
        for i in itertools.count():
            if stop.is_set():
                break
            request = next(stream)
            log.sent.append(request)
            traced = tracer is not None and tracer.installed
            frame = tracer.begin((connection, i)) if traced else None
            started = clock()
            try:
                if request.kind == "commit":
                    elapsed, snapshot = _commit_batch(
                        catalog, "main", request.shelf, request.book)
                    inserts.append((request.shelf, request.book))
                    snapshots[snapshot.snapshot_id] = len(inserts)
                    log.batch_ns.append(elapsed)
                    text = None
                else:
                    result = client.query(request.text,
                                          params=request.params)
                    text = result.serialize()
            except Exception as exc:   # failure accounting: no retry
                now = clock()
                if frame is not None:
                    tracer.end(frame)
                log.fail(exc)
                log.done_ns.append(now)
                log.ok.append(False)
                log.traced.append(traced)
                if isinstance(exc, ServiceOverloadedError):
                    time.sleep(BACKOFF_S)
                continue
            now = clock()
            if frame is not None:
                tracer.end(frame)
            log.done_ns.append(now)
            log.ok.append(True)
            log.traced.append(traced)
            if text is not None:
                log.latency_ns.append(now - started)
                log.done_at.append(now)
                log.family.append(request.family)
                log.keys.append(("serving", result.snapshot_id,
                                 request.literal_text()))
                log.digests.append(digest(text))
                log.wait_ms.append(result.wait_ms)
                log.run_ms.append(result.run_ms)

    threads = [threading.Thread(target=caller, args=(c,), daemon=True)
               for c in range(2)]
    for thread in threads:
        thread.start()
    now = clock()
    end = now + int(ctx.seconds * 1e9)
    # Close set-up's trace records before any caller can open a request.
    phases.begin(now)
    start_gate.wait()
    while now < end:
        phases.update(now)
        ctx.speed.maybe_probe(now)
        time.sleep(min(0.02, max(0.0, (end - now) / 1e9)))
        now = clock()
    stop.set()
    for thread in threads:
        thread.join()
    phases.finish(clock())
    rss_mb = _peak_rss_mb()
    close((server, clients))
    log = Log()
    log.commit_ns = _commit_probe(ctx, catalog, "main", SERVING[0])
    streams = [(part.sent, lambda c=c: wire_stream(seed, c))
               for c, part in enumerate(logs)]
    for part in logs:
        log.absorb(part)
    order = sorted(range(len(log.done_ns)), key=log.done_ns.__getitem__)
    log.done_ns = [log.done_ns[i] for i in order]
    log.ok = [log.ok[i] for i in order]
    log.traced = [log.traced[i] for i in order]
    return Run(log, setup_s, 1, {"serving": xml}, rss_mb,
               snapshots=snapshots,
               inserts=tuple(inserts), setup_spans=spans, streams=streams)


WORKLOADS = {
    "engine-scan": engine_scan,
    "paper-joins": paper_joins,
    "compile-cold": compile_cold,
    "wire-read-write": wire_read_write,
}


# ---------------------------------------------------------------------------
# Correctness: every distinct (doc, snapshot, query) against the oracle.
# ---------------------------------------------------------------------------


def check_results(run: Run) -> tuple[int, int, list]:
    """Compare every result digest with the naive oracle's.

    Returns ``(distinct keys, wrong results, first mismatches)``.  The
    oracle evaluates the query with its parameters as literals on a
    document the benchmark parses from its own XML text: the corpus
    plus the inserts committed before that snapshot.
    """
    docs: dict = {}
    expected: dict = {}
    wrong = 0
    examples = []
    for key, got in zip(run.log.keys, run.log.digests):
        want = expected.get(key)
        if want is None:
            doc_name, snapshot, text = key
            doc_key = (doc_name, snapshot)
            doc = docs.get(doc_key)
            if doc is None:
                xml = run.documents[doc_name]
                count = run.snapshots.get(snapshot, 0)
                if count:
                    xml = library_xml(*SERVING, inserts=run.inserts[:count])
                doc = docs[doc_key] = repro.parse(xml)
            want = expected[key] = digest(
                NaiveInterpreter(doc).run(text).serialize())
        if got != want:
            wrong += 1
            if len(examples) < 3:
                examples.append(key)
    return len(expected), wrong, examples


def check_sequences(run: Run, prefix: int) -> tuple[bool, str]:
    """Whether every caller sent exactly what a fresh generator yields
    for the seed, and the SHA-256 of each stream's first ``prefix``
    requests (comparable across runs of one seed)."""
    deterministic = True
    head = []
    for sent, fresh in run.streams:
        again = list(itertools.islice(fresh(), len(sent)))
        deterministic &= sequence_digest(sent) == sequence_digest(again)
        head.extend(itertools.islice(fresh(), prefix))
    return deterministic, sequence_digest(head)
