"""NoK pattern-tree matching (paper Algorithm 2 / Section 4.1).

The matcher evaluates one NoK pattern tree — only local axes — against
a document with a single sequential scan, producing a sequence of
NestedLists ordered by the document order of their root matches.  That
emission order is what Theorem 1's order-preservation proof rests on,
and the pipelined join relies on it.

Each NoK is compiled once per plan (:func:`compile_nok`) into a match
kernel: one closure per pattern vertex, built from the vertex alone and
holding no document.  The plan's
:class:`~repro.pattern.artifact.PatternArtifacts` keeps the kernels, so
the plan cache and prepared queries reuse them.  Per vertex the kernel
holds:

* a child-tag dispatch dict — each tag maps to the local edges whose
  child can match it, wildcard edges merged in edge order, so a child
  element is offered only to the edges that can take it;
* a bitmask of the mandatory children, checked once after the scan of
  the children;
* ``following-sibling`` eligibility as bit dependencies: a child with an
  ``after_vid`` constraint is offered an element only once the named
  sibling has matched among the same parent's children (as the frontier
  mechanism of Algorithm 2 does); a constraint naming no local sibling
  never becomes eligible;
* leaf children (no value constraints, no local children) matched
  inline, without a call;
* value constraints compiled to typed comparisons for ``. op lit``,
  ``@a op lit`` and ``text() op lit`` (either operand order), using the
  XPath evaluator's own atomization and comparison rules.  Any other
  constraint (``[not(author)]``, ``[contains(., "x")]``, ...) runs
  through :class:`~repro.xpath.evaluator.XPathEvaluator` with the
  candidate element as context node, one constraint at a time.

Differences from the pseudo-code, for exactness: Algorithm 2
interleaves result construction with frontier deletion; the kernel
constructs the child groups depth-first, which implements the declared
Definition-1 semantics directly (mandatory children need at least one
match, optional children may be empty, all matches of a child are
grouped).  The produced physical structure is the Figure-6 layout (see
:mod:`repro.algebra.nested_list`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.algebra.nested_list import NLEntry
from repro.pattern.blossom import MODE_MANDATORY, BlossomVertex
from repro.pattern.decompose import NoKTree
from repro.xmlkit.storage import ScanCounters, SequentialScan
from repro.xmlkit.tree import DOCUMENT, ELEMENT, TEXT, Document, Node
from repro.xpath.ast import (
    AnyKindTest,
    Comparison,
    Expr,
    Literal,
    LocationPath,
    NameTest,
    NumberLiteral,
    RootContext,
    TextTest,
)
from repro.xpath.evaluator import (
    VALUE_OPS,
    EvalContext,
    XPathEvaluator,
    attribute_atom,
    boolean_value,
    literal_test,
)

__all__ = ["NoKKernel", "NoKMatcher", "compile_nok", "compile_predicate"]

#: A compiled NoK: ``kernel(node, counters)`` matches the NoK's root
#: vertex at ``node`` (whose tag test the caller has passed) and returns
#: the NestedList entry, or ``None``.  Every value constraint evaluated
#: and every child offered to a tag-matching edge counts one comparison.
NoKKernel = Callable[[Node, ScanCounters], "NLEntry | None"]


class NoKMatcher:
    """Evaluates one NoK pattern tree over one document.

    Parameters
    ----------
    nok:
        The NoK pattern tree (from :func:`repro.pattern.decompose.decompose`).
    doc:
        The input document.
    counters:
        Shared work counters; the driving sequential scan reports its
        I/O here and every predicate evaluation counts a comparison.
    start_nid, stop_nid:
        Optional scan range (pre-order ranks).  The bounded nested-loop
        join re-runs matchers over subtree ranges through these.
    kernel:
        The NoK's compiled kernel (the plan's, when it has one);
        compiled here when omitted.
    """

    def __init__(self, nok: NoKTree, doc: Document,
                 counters: ScanCounters | None = None,
                 start_nid: int = 0, stop_nid: int | None = None,
                 kernel: NoKKernel | None = None) -> None:
        self.nok = nok
        self.doc = doc
        self.counters = counters if counters is not None else ScanCounters()
        self.start_nid = start_nid
        self.stop_nid = stop_nid
        self.kernel = kernel if kernel is not None else compile_nok(nok)

    # ------------------------------------------------------------------
    # Evaluation.
    # ------------------------------------------------------------------

    def matches(self) -> list[NLEntry]:
        """All matches, in document order of their root nodes."""
        return list(self.iter_matches())

    def iter_matches(self) -> Iterator[NLEntry]:
        """Pipelined form: the GetNext interface of Section 4.2 is
        ``next()`` on this generator."""
        name = self.nok.root.name
        kernel = self.kernel
        counters = self.counters
        if name == "#root":
            # Pattern-tree roots match the document node itself.
            entry = kernel(self.doc.document_node, counters)
            if entry is not None:
                yield entry
            return
        scan = SequentialScan(self.doc, counters,
                              self.start_nid, self.stop_nid)
        wildcard = name == "*"
        for node in scan:
            if wildcard or node.tag == name:
                entry = kernel(node, counters)
                if entry is not None:
                    yield entry


def compile_nok(nok: NoKTree) -> NoKKernel:
    """Compile a NoK pattern tree into its match kernel."""
    return _compile_vertex(nok.root)


def _compile_vertex(vertex: BlossomVertex) -> NoKKernel:
    tests = tuple(compile_predicate(p) for p in vertex.value_predicates)
    n_groups = len(vertex.child_edges)
    local = [(index, edge) for index, edge in enumerate(vertex.child_edges)
             if not getattr(edge, "cut", False)]

    if not local:
        def match_leaf(node: Node, counters: ScanCounters) -> NLEntry | None:
            if tests and node.kind != DOCUMENT:
                for test in tests:
                    counters.comparisons += 1
                    if not test(node):
                        return None
            return NLEntry(vertex, node, n_groups)
        return match_leaf

    bit_of = {edge.child.vid: 1 << position
              for position, (_, edge) in enumerate(local)}
    mandatory = 0
    # (tag or "*", record) per eligible edge, in edge order.
    edges: list[tuple[str, tuple]] = []
    for index, edge in local:
        child = edge.child
        bit = bit_of[child.vid]
        if edge.mode == MODE_MANDATORY:
            mandatory |= bit
        after = getattr(child, "after_vid", None)
        if after is None:
            needs = 0
        elif after in bit_of:
            needs = bit_of[after]
        else:
            continue  # its predecessor is no local sibling: never eligible
        if child.name == "#root":
            continue  # matches the document node only, never a child
        leaf = not child.value_predicates and not any(
            not getattr(e, "cut", False) for e in child.child_edges)
        sub = None if leaf else _compile_vertex(child)
        edges.append((child.name, (index, bit, needs, sub, child.returning,
                                   child, len(child.child_edges))))
    wildcard = tuple(record for name, record in edges if name == "*")
    dispatch = {tag: tuple(record for name, record in edges
                           if name == tag or name == "*")
                for tag, _ in edges if tag != "*"}

    def match(node: Node, counters: ScanCounters) -> NLEntry | None:
        if tests and node.kind != DOCUMENT:
            for test in tests:
                counters.comparisons += 1
                if not test(node):
                    return None
        entry = NLEntry(vertex, node, n_groups)
        groups = entry.groups
        matched = 0
        for child in node.children:
            if child.kind != ELEMENT:
                continue
            for index, bit, needs, sub, keep, child_vertex, child_groups \
                    in dispatch.get(child.tag, wildcard):
                if needs and not matched & needs:
                    continue
                counters.comparisons += 1
                if sub is None:
                    if keep:
                        groups[index].append(
                            NLEntry(child_vertex, child, child_groups))
                else:
                    found = sub(child, counters)
                    if found is None:
                        continue
                    # Non-kept (purely existential) children record only
                    # the fact of the match; their subtrees are dropped.
                    if keep:
                        groups[index].append(found)
                matched |= bit
        if matched & mandatory != mandatory:
            return None
        return entry

    return match


# ----------------------------------------------------------------------
# Value constraints.
# ----------------------------------------------------------------------

def compile_predicate(predicate: Expr) -> Callable[[Node], bool]:
    """``node -> bool`` for one value constraint of a vertex: its
    effective boolean value with the node as context item."""
    if isinstance(predicate, Comparison) and predicate.op in VALUE_OPS:
        left, right = predicate.left, predicate.right
        if isinstance(right, (Literal, NumberLiteral)):
            path, literal, literal_left = left, right.value, False
        elif isinstance(left, (Literal, NumberLiteral)):
            path, literal, literal_left = right, left.value, True
        else:
            path = None
        shape = _context_operand(path) if path is not None else None
        if shape is not None:
            test = literal_test(predicate.op, literal, literal_left)
            return _COMPILED_SHAPES[shape[0]](test, shape[1])

    def interpreted(node: Node) -> bool:
        return boolean_value(
            XPathEvaluator().evaluate(predicate, EvalContext(node)))
    return interpreted


def _context_operand(expr: Expr) -> tuple[str, str | None] | None:
    """Classify a context-relative operand: ``("self", None)`` for ``.``,
    ``("attribute", name)`` for ``@name``, ``("text", None)`` for
    ``text()``; ``None`` for anything else."""
    if not isinstance(expr, LocationPath) \
            or not isinstance(expr.root, RootContext) or expr.root.absolute:
        return None
    if not expr.steps:
        return ("self", None)
    if len(expr.steps) != 1 or expr.steps[0].predicates:
        return None
    step = expr.steps[0]
    if step.axis == "self" and isinstance(step.test, AnyKindTest):
        return ("self", None)
    if step.axis == "attribute" and isinstance(step.test, NameTest) \
            and step.test.name != "*":
        return ("attribute", step.test.name)
    if step.axis == "child" and isinstance(step.test, TextTest):
        return ("text", None)
    return None


def _self_test(test: Callable[[object], bool], _name: str | None
               ) -> Callable[[Node], bool]:
    def holds(node: Node) -> bool:
        return test(node.typed_value())
    return holds


def _attribute_test(test: Callable[[object], bool], name: str | None
                    ) -> Callable[[Node], bool]:
    def holds(node: Node) -> bool:
        value = node.attrs.get(name)  # type: ignore[arg-type]
        return value is not None and test(attribute_atom(value))
    return holds


def _text_test(test: Callable[[object], bool], _name: str | None
               ) -> Callable[[Node], bool]:
    def holds(node: Node) -> bool:
        for child in node.children:
            if child.kind == TEXT and test(child.typed_value()):
                return True
        return False
    return holds


_COMPILED_SHAPES = {"self": _self_test, "attribute": _attribute_test,
                    "text": _text_test}
