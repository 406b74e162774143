"""Partition-parallel merged NoK evaluation: the coordinator.

The parallel twin of :func:`~repro.physical.nok_merge.merged_scan`:
the document is cut into Dewey-contiguous subtree partitions
(:mod:`repro.xmlkit.partition`), each partition is scanned by a worker
process running the same dispatch loop as the serial merged scan
(:func:`~repro.physical.process_scan._scan_partition_task`, over the
mmap-shared flat arena), and the per-NoK match lists are concatenated
in partition order.

Correctness rests on Theorem 1's order argument: the serial scan emits
matches in document order, each partition is a contiguous slice of that
order, and the partitions tile the arena — so concatenation in
partition order *is* the serial output, bit for bit.  The differential
test suites assert exactly that, match list by match list.

Deviations from the serial operator, by design:

* ``counters.scans_started`` grows by one per partition (each partition
  opens its own scan); ``nodes_scanned`` still counts every arena slot
  exactly once.
* The work ``budget`` is an approximate **global** cap: partitions fold
  their scanned count into one shared cell every
  :data:`~repro.physical.process_scan._STRIDE` nodes and abort once the
  total exceeds the budget, so the cap can overshoot by at most
  ``partitions × stride`` nodes.
* Pattern-tree-root (``#root``) NoKs are matched once on the document
  node by the coordinator, never inside a partition task.  Plans that
  reach this operator through the ``parallel`` strategy are refused by
  analyzer rule PL004 when they contain ``#root``-rooted NoKs; calling
  the operator directly with them is still correct.

Cancellation stays cooperative: deadlines and cancels are observed
within one stride in every worker (see :mod:`repro.physical.process_scan`).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.obs.metrics import REGISTRY
from repro.obs.trace import Tracer
from repro.pattern.decompose import NoKTree
from repro.physical.nok import NoKKernel, compile_nok
from repro.physical.nok_merge import merged_scan
from repro.xmlkit.partition import Partition, partition_document
from repro.xmlkit.stats import DocumentStats
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.tree import Document
from repro.algebra.nested_list import NLEntry

if TYPE_CHECKING:
    from repro.physical.process_scan import ProcessScanBackend

__all__ = ["parallel_merged_scan"]

_INVOCATIONS = REGISTRY.counter("repro_operator_invocations_total",
                                "Physical operator invocations")
_OUTPUT = REGISTRY.counter("repro_operator_output_total",
                           "Items emitted by physical operators")
_PARTITION_FALLBACKS = REGISTRY.counter(
    "repro_partition_fallbacks_total",
    "Parallel scan requests that collapsed to a single-partition "
    "serial scan")


def parallel_merged_scan(noks: list[NoKTree], doc: Document,
                         counters: ScanCounters | None = None,
                         per_nok: dict[int, ScanCounters] | None = None,
                         *,
                         parallelism: int = 2,
                         stats: DocumentStats | None = None,
                         partitions: list[Partition] | None = None,
                         process_backend: ProcessScanBackend | None = None,
                         tracer: Tracer | None = None,
                         kernels: Sequence[NoKKernel] | None = None,
                         ) -> dict[int, list[NLEntry]]:
    """Evaluate several NoK pattern trees over partition-parallel scans.

    Same contract as :func:`~repro.physical.nok_merge.merged_scan`
    (per-NoK match lists in document order; optional ``per_nok`` work
    attribution folded back into the shared ``counters``), evaluated as
    one scan task per partition on ``process_backend`` (``None`` uses
    the shared process-wide pool).

    ``partitions`` overrides the stats-driven partitioning (tests use
    this to force fine-grained cuts on small documents); with a single
    partition the call degenerates to the serial merged scan.

    ``kernels`` (the plan's compiled NoKs, indexed by ``nok_id``) serve
    the coordinator's ``#root`` matches and the serial fallback; the
    worker processes compile their own from the NoKs they receive.
    """
    if counters is None:
        counters = ScanCounters()
    if partitions is None:
        partitions = partition_document(doc, parallelism, stats=stats)
    if len(partitions) <= 1:
        _PARTITION_FALLBACKS.inc()
        return merged_scan(noks, doc, counters, per_nok, kernels)

    results: dict[int, list[NLEntry]] = {nok.nok_id: [] for nok in noks}

    # #root NoKs match the document node directly, exactly once, in the
    # coordinator — they are independent of the element scan.
    scannable: list[NoKTree] = []
    for nok in noks:
        if nok.root.name == "#root":
            nok_counters = (counters if per_nok is None
                            else per_nok.setdefault(nok.nok_id,
                                                    ScanCounters()))
            kernel = (kernels[nok.nok_id] if kernels is not None
                      else compile_nok(nok))
            entry = kernel(doc.document_node, nok_counters)
            if entry is not None:
                results[nok.nok_id].append(entry)
        else:
            scannable.append(nok)

    if scannable:
        # Imported here so serial-only callers never load multiprocessing.
        from repro.physical import process_scan

        if process_backend is None:
            process_backend = process_scan.shared_process_backend()
        process_scan.run_process_scan(process_backend, doc, scannable,
                                      partitions, counters, per_nok,
                                      results, tracer)
    _INVOCATIONS.inc(operator="parallel_scan")
    _OUTPUT.inc(sum(len(v) for v in results.values()),
                operator="parallel_scan")
    return results
