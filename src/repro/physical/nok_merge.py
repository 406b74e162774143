"""Merged NoK evaluation: many pattern trees, one sequential scan.

Section 4.2, technique (1): "if both NoK operators use a sequential
scan access method ... we can save I/O by merging multiple NoK
operators into one combined operator and using one scan only", the way
multiple DFAs merge into one NFA — each scanned node is offered to
every NoK's root test.

The per-NoK match lists that come out are identical to what the
individual :class:`~repro.physical.nok.NoKMatcher` scans produce (the
ablation benchmark asserts this), but ``counters.nodes_scanned`` grows
by one document pass instead of one pass per NoK.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.obs.metrics import REGISTRY
from repro.pattern.decompose import NoKTree
from repro.physical.nok import NoKKernel, compile_nok
from repro.xmlkit.storage import ScanCounters, SequentialScan
from repro.xmlkit.tree import Document
from repro.algebra.nested_list import NLEntry

__all__ = ["merged_scan"]

_INVOCATIONS = REGISTRY.counter("repro_operator_invocations_total",
                                "Physical operator invocations")
_OUTPUT = REGISTRY.counter("repro_operator_output_total",
                           "Items emitted by physical operators")


def merged_scan(noks: list[NoKTree], doc: Document,
                counters: ScanCounters | None = None,
                per_nok: dict[int, ScanCounters] | None = None,
                kernels: Sequence[NoKKernel] | None = None
                ) -> dict[int, list[NLEntry]]:
    """Evaluate several NoK pattern trees over one document in one scan.

    Returns ``{nok_id: matches}`` with each match list in document order
    of its root nodes — the same order-preservation contract as the
    single-NoK scan, so downstream merge joins work unchanged.

    ``per_nok`` optionally maps ``nok_id`` to a private
    :class:`ScanCounters` charged with that NoK's match work
    (comparisons), so the tracer can attribute work inside the shared
    scan to individual pattern trees.  The private counters are folded
    back into ``counters`` before returning, keeping the shared totals
    identical either way.

    ``kernels`` are the plan's compiled NoKs, indexed by ``nok_id``
    (see :class:`~repro.pattern.artifact.PatternArtifacts`); without
    them each NoK is compiled for this call.
    """
    if counters is None:
        counters = ScanCounters()
    kernel_of = {nok.nok_id: (kernels[nok.nok_id] if kernels is not None
                              else compile_nok(nok))
                 for nok in noks}
    results: dict[int, list[NLEntry]] = {nok.nok_id: [] for nok in noks}

    def counters_for(nok: NoKTree) -> ScanCounters:
        if per_nok is None:
            return counters
        return per_nok.setdefault(nok.nok_id, ScanCounters())

    # Pattern-tree-root NoKs match the document node directly; they do
    # not need the element scan at all.
    scannable: list[NoKTree] = []
    for nok in noks:
        if nok.root.name == "#root":
            entry = kernel_of[nok.nok_id](doc.document_node,
                                          counters_for(nok))
            if entry is not None:
                results[nok.nok_id].append(entry)
        else:
            scannable.append(nok)

    # Dispatch table: plain-name roots are looked up by the scanned
    # node's tag instead of testing every NoK against every node;
    # wildcard roots must still see each element.  Same matches, same
    # counters (the tag test never touched ScanCounters), fewer inner
    # loop iterations — this scan runs once per warm-path execution.
    # Each candidate is its kernel, the counters it charges and the
    # list its matches go to; wildcard roots merge in after the named.
    by_tag: dict[str, list[tuple]] = {}
    wildcard: list[tuple] = []
    for nok in scannable:
        candidate = (kernel_of[nok.nok_id], counters_for(nok),
                     results[nok.nok_id])
        if nok.root.name == "*":
            wildcard.append(candidate)
        else:
            by_tag.setdefault(nok.root.name, []).append(candidate)
    for named in by_tag.values():
        named.extend(wildcard)

    try:
        if scannable:
            for node in SequentialScan(doc, counters):
                for kernel, charged, out in by_tag.get(node.tag, wildcard):
                    entry = kernel(node, charged)
                    if entry is not None:
                        out.append(entry)
    finally:
        # Fold private per-NoK work back into the shared totals even when
        # the scan aborts on a budget trip (DNF).
        if per_nok is not None:
            for private in per_nok.values():
                counters.merge(private)

    _INVOCATIONS.inc(operator="merged_scan")
    _OUTPUT.inc(sum(len(v) for v in results.values()), operator="merged_scan")
    return results
