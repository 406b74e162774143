"""The process execution backend: differential bit-identity against the
serial scan, cancellation, crash containment, resource lifecycle.

``executor="processes"`` replays the merged-scan dispatch loop in worker
processes over the mmap-shared arena (:mod:`repro.xmlkit.arena`), so
every test here is ultimately a Theorem-1 claim: partition-order
concatenation of per-process match lists must reproduce the serial
object-tree scan bit for bit — across every datagen workload, skewed
shapes included — and failure modes (deadline, budget, a dying worker)
must surface as the same clean errors the serial scan raises.
"""

import multiprocessing
import os

import pytest

from repro.datagen.workload import DATASETS
from repro.engine import Engine
from repro.errors import DNFError, ExecutionError, QueryTimeoutError
from repro.pattern import build_from_path, decompose
from repro.physical import process_scan
from repro.physical.nok_merge import merged_scan
from repro.physical.parallel_scan import parallel_merged_scan
from repro.physical.process_scan import ProcessScanBackend
from repro.xmlkit import parse
from repro.xmlkit.partition import partition_document
from repro.xmlkit.storage import CancellationToken, ScanCounters
from repro.xpath import parse_xpath


def wide_doc(n_books: int = 300) -> str:
    return "<bib>" + "".join(
        f"<shelf><book year='{1990 + i % 20}'><author>a{i % 7}</author>"
        f"<title>t{i}</title><price>{i % 50}</price></book></shelf>"
        for i in range(n_books)) + "</bib>"


def skewed_doc(n_items: int = 400) -> str:
    giant = "".join(f"<item><name>n{i}</name><price>{i % 9}</price></item>"
                    for i in range(n_items))
    return f"<root><tiny/><giant>{giant}</giant><tail><item/></tail></root>"


def noks_for(path_text: str):
    return decompose(build_from_path(parse_xpath(path_text))).noks


def fine_partitions(doc, k: int):
    return partition_document(doc, k, min_nodes=1)


@pytest.fixture(scope="module")
def backend():
    pool = ProcessScanBackend(max_workers=2)
    yield pool
    pool.close(wait=True)


def scan_with(doc, path_text, *, backend, k=4,
              counters=None, per_nok=None):
    return parallel_merged_scan(noks_for(path_text), doc,
                                counters, per_nok,
                                partitions=fine_partitions(doc, k),
                                process_backend=backend)


OPERATOR_QUERIES = ["//book", "//book/author", "//shelf//title",
                    "//book[@year = '1995']", "//book[price > 25]/title",
                    "//*"]


class TestOperatorBitIdentity:
    """Process output == serial output, per match list."""

    @pytest.mark.parametrize("path_text", OPERATOR_QUERIES)
    def test_wide_document(self, backend, path_text):
        doc = parse(wide_doc(200))
        self.assert_identical(backend, doc, path_text)

    @pytest.mark.parametrize("path_text",
                             ["//item", "//item/name", "//item[price = 3]",
                              "//giant//name"])
    def test_skewed_single_subtree_document(self, backend, path_text):
        doc = parse(skewed_doc(300))
        self.assert_identical(backend, doc, path_text)

    def assert_identical(self, backend, doc, path_text):
        noks = noks_for(path_text)
        serial = merged_scan(noks, doc)
        processed = scan_with(doc, path_text, backend=backend)
        for nok_id, entries in serial.items():
            want = [e.node.nid for e in entries]
            assert [e.node.nid for e in processed[nok_id]] == want

    def test_counters_are_bit_identical_too(self, backend):
        doc = parse(wide_doc(200))
        serial = ScanCounters()
        merged_scan(noks_for("//book/author"), doc, serial)
        processed = ScanCounters()
        scan_with(doc, "//book/author", backend=backend, counters=processed)
        assert processed.nodes_scanned == serial.nodes_scanned
        assert processed.comparisons == serial.comparisons

    def test_per_nok_attribution_crosses_the_process_boundary(self, backend):
        doc = parse(wide_doc(200))
        counters = ScanCounters()
        per_nok = {}
        scan_with(doc, "//book[price > 25]/title", backend=backend,
                  counters=counters, per_nok=per_nok)
        assert per_nok
        assert counters.comparisons == \
            sum(c.comparisons for c in per_nok.values())


class TestWorkloadDifferential:
    """Every datagen workload query down three execution paths — serial,
    the process backend under ``auto``, and the process backend with
    the ``parallel`` strategy forced — end to end through the engine
    (plan choice, scan, FLWOR pipeline, serialization)."""

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_three_backends_serialize_identically(self, name):
        dataset = DATASETS[name]
        doc = dataset.generate(scale=0.1)
        pool = ProcessScanBackend(max_workers=2)
        try:
            for spec in dataset.queries:
                engine = Engine(doc)
                engine.process_executor = pool
                serial = engine.query(spec.text).serialize()
                processes = engine.query(
                    spec.text, executor="processes:2").serialize()
                forced = engine.query(
                    spec.text, strategy="parallel",
                    executor="processes:2").serialize()
                assert serial == processes == forced, (name, spec.text)
        finally:
            pool.close(wait=True)


class TestCancellationAndBudget:
    def test_mid_scan_deadline_expires_in_workers(self, backend):
        doc = parse(wide_doc(400))
        token = CancellationToken(timeout_ms=0.0)
        counters = ScanCounters(cancellation=token)
        with pytest.raises(QueryTimeoutError):
            scan_with(doc, "//book", backend=backend, counters=counters)

    def test_cancel_flag_stops_the_scan(self, backend):
        doc = parse(wide_doc(400))
        token = CancellationToken()
        token.cancel()
        counters = ScanCounters(cancellation=token)
        from repro.errors import QueryCancelledError

        with pytest.raises(QueryCancelledError):
            scan_with(doc, "//book", backend=backend, counters=counters)

    def test_global_budget_caps_work_across_processes(self, backend):
        doc = parse(wide_doc(300))
        parts = fine_partitions(doc, 4)
        per_partition = max(p.n_nodes for p in parts)
        budget = per_partition + 50            # fine per task, not globally
        assert budget < len(doc.nodes)
        counters = ScanCounters(budget=budget)
        with pytest.raises(DNFError):
            parallel_merged_scan(noks_for("//book"), doc, counters,
                                 partitions=parts, process_backend=backend)
        assert counters.budget_trips >= 1
        assert counters.nodes_scanned <= budget + len(parts) * 256

    def test_partial_counters_fold_after_abort(self, backend):
        doc = parse(wide_doc(300))
        counters = ScanCounters(budget=10)
        with pytest.raises(DNFError):
            scan_with(doc, "//book", backend=backend, counters=counters)
        assert counters.nodes_scanned > 0      # aborted work still counted


def _crash_task(*args, **kwargs):
    os._exit(13)


class TestWorkerCrash:
    def test_crash_raises_clean_error_and_pool_recovers(self):
        doc = parse(wide_doc(200))
        pool = ProcessScanBackend(max_workers=2)
        original = process_scan._scan_partition_task
        # Patch BEFORE the pool forks so the workers inherit the crash.
        process_scan._scan_partition_task = _crash_task
        try:
            with pytest.raises(ExecutionError, match="crashed"):
                scan_with(doc, "//book", backend=pool)
        finally:
            process_scan._scan_partition_task = original
        # The broken pool was discarded; the next scan rebuilds and runs.
        results = scan_with(doc, "//book", backend=pool)
        noks = noks_for("//book")
        serial = merged_scan(noks, doc)
        book_id = next(n.nok_id for n in noks if n.root.name == "book")
        assert [e.node.nid for e in results[book_id]] == \
            [e.node.nid for e in serial[book_id]]
        pool.close(wait=True)


class TestResourceLifecycle:
    def test_fifty_databases_leak_no_fds_or_processes(self):
        import repro

        xml = wide_doc(30)

        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        def children() -> int:
            return len(multiprocessing.active_children())

        # Warm-up: import side effects, pytest plumbing.
        with repro.connect(xml) as db:
            db.query("//book/title")
        fd_before, procs_before = open_fds(), children()
        for _ in range(50):
            with repro.connect(xml) as db:
                db.query("//book/title")
                db.query("//book/title", strategy="parallel",
                         executor="processes:2")
        assert children() <= procs_before
        assert open_fds() <= fd_before + 4     # allowance for test noise

    def test_database_close_releases_the_arena_file(self):
        import repro
        from repro.xmlkit.arena import arena_file_for

        db = repro.connect(wide_doc(30))
        path = arena_file_for(db.doc)
        assert os.path.exists(path)
        db.close()
        assert not os.path.exists(path)

    def test_backend_close_is_idempotent(self):
        pool = ProcessScanBackend()
        pool.close(wait=True)
        pool.close(wait=True)


class TestInPlaceUpdate:
    def test_process_backend_sees_in_place_updates(self):
        """The arena file is cached on the document; an in-place update
        must release it so the next process scan re-serializes the
        mutated tree instead of scanning the stale image."""
        import repro

        xml = "<bib>" + "".join(f"<book><t>x{i}</t></book>"
                                for i in range(3000)) + "</bib>"
        with repro.connect(xml) as db:
            assert len(db.query("//book/t", executor="processes:2")) == 3000
            db.updater().insert_subtree(
                db.doc.root, parse("<book><t>new</t></book>").root)
            serial = db.query("//book/t")
            processes = db.query("//book/t", executor="processes:2")
            assert "partition-parallel" in db.engine.last_plan
            assert len(serial) == 3001
            assert processes.serialize() == serial.serialize()
