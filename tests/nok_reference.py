"""The interpreted NoK matcher, kept as the reference for the kernels.

This is the recursive matcher the engine ran before NoKs were compiled
(:func:`repro.physical.nok.compile_nok`): it rebuilds the local-edge
list per candidate, tracks matched children in a set and evaluates every
value constraint through the general XPath evaluator.  With it comes
the scan it ran under, which charged, budget-checked and
cancellation-checked every node.  ``tests/test_compiled_kernels.py``
compares the kernels against both, match list by match list and
counter by counter.
"""

from __future__ import annotations

from repro.algebra.nested_list import NLEntry
from repro.errors import DNFError
from repro.pattern.blossom import MODE_MANDATORY, BlossomVertex
from repro.pattern.decompose import NoKTree
from repro.xmlkit.storage import ScanCounters
from repro.xmlkit.tree import DOCUMENT, ELEMENT, Document, Node
from repro.xpath.evaluator import EvalContext, XPathEvaluator, boolean_value

__all__ = ["reference_match", "reference_scan"]


def reference_scan(nok: NoKTree, doc: Document,
                   counters: ScanCounters) -> list[NLEntry]:
    """One NoK over the whole document, the per-node way."""
    evaluator = XPathEvaluator()
    root = nok.root
    if root.name == "#root":
        entry = reference_match(root, doc.document_node, counters, evaluator)
        return [entry] if entry is not None else []
    out: list[NLEntry] = []
    counters.scans_started += 1
    budget = counters.budget
    token = counters.cancellation
    for node in doc.nodes:
        counters.nodes_scanned += 1
        if budget is not None and counters.nodes_scanned > budget:
            counters.trip_budget()
            raise DNFError("sequential scan exceeded the work budget",
                           budget=budget)
        if token is not None:
            token.checkpoint()
        if node.kind != ELEMENT or not root.matches_tag(node.tag):
            continue
        entry = reference_match(root, node, counters, evaluator)
        if entry is not None:
            out.append(entry)
    return out


def reference_match(vertex: BlossomVertex, node: Node,
                    counters: ScanCounters,
                    evaluator: XPathEvaluator) -> NLEntry | None:
    """Match a NoK pattern subtree rooted at ``vertex`` against ``node``."""
    if vertex.value_predicates and node.kind != DOCUMENT:
        context = EvalContext(node)
        for predicate in vertex.value_predicates:
            counters.comparisons += 1
            if not boolean_value(evaluator.evaluate(predicate, context)):
                return None

    entry = NLEntry(vertex, node, len(vertex.child_edges))
    local = [(index, edge) for index, edge in enumerate(vertex.child_edges)
             if not getattr(edge, "cut", False)]
    if not local:
        return entry

    matched_vids: set[int] = set()
    for child_node in node.children:
        if child_node.kind != ELEMENT:
            continue
        for index, edge in local:
            child_vertex = edge.child
            after = getattr(child_vertex, "after_vid", None)
            if after is not None and after not in matched_vids:
                continue
            if not child_vertex.matches_tag(child_node.tag):
                continue
            counters.comparisons += 1
            sub = reference_match(child_vertex, child_node, counters,
                                  evaluator)
            if sub is None:
                continue
            matched_vids.add(child_vertex.vid)
            if child_vertex.returning:
                entry.groups[index].append(sub)

    for index, edge in local:
        if edge.mode == MODE_MANDATORY and edge.child.vid not in matched_vids:
            return None
    return entry
