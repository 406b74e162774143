"""Compiled NoK kernels and where filters against the interpreters.

The engine matches NoK pattern trees with kernels compiled once per
plan (:func:`repro.physical.nok.compile_nok`) and re-checks where
clauses with filters compiled the same way
(:mod:`repro.xpath.where`).  These differential tests hold them to the
interpreted forms they replaced:

* kernels against the recursive matcher and its per-node scan in
  ``tests/nok_reference.py``, on random documents and random NoKs
  (wildcards, optional edges, ``following-sibling``, every compiled
  value-constraint shape and interpreted ones): the same NestedList
  structure, the same ``ScanCounters``, the same DNF trip point — and
  the same again on the paper's fixed documents, for numeric literals,
  and in a process-backend worker;
* the stride-checked scan against a ``timeout_ms`` that expires
  mid-scan;
* where filters against :class:`~repro.xpath.evaluator.XPathEvaluator`
  for every parameter type, unbound and attribute-bound variables;
* the plan's compiled forms against a document: a cached plan must not
  keep its snapshot alive.
"""

from __future__ import annotations

import gc
import types
import weakref

import pytest
from hypothesis import given, strategies as st

import repro.xmlkit.storage as storage
from repro.engine import Engine
from repro.engine.construct import DirectEvaluator
from repro.engine.plancache import PlanCache
from repro.engine.prepared import normalize_bindings
from repro.errors import DNFError, QueryTimeoutError, ReproError
from repro.pattern.blossom import MODE_MANDATORY, MODE_OPTIONAL, BlossomTree
from repro.pattern import build_from_path
from repro.pattern.decompose import decompose
from repro.physical import NoKMatcher, compile_nok, merged_scan
from repro.physical.parallel_scan import parallel_merged_scan
from repro.physical.process_scan import ProcessScanBackend
from repro.xmlkit import parse
from repro.xmlkit.partition import partition_document
from repro.xmlkit.storage import SCAN_STRIDE, CancellationToken, ScanCounters
from repro.xmlkit.tree import ELEMENT, DocumentBuilder
from repro.xpath.ast import (
    Comparison,
    Literal,
    LocationPath,
    NumberLiteral,
    RootContext,
)
from repro.xpath.evaluator import (
    EvalContext,
    XPathEvaluator,
    boolean_value,
    evaluate_xpath,
)
from repro.xpath import parse_xpath
from repro.xpath.parser import parse_expr
from repro.xpath.where import WhereFilter

from tests.nok_reference import reference_scan
from tests.test_property_based import COMMON_SETTINGS

TAGS = ["a", "b", "c", "d"]
#: Text and attribute values: numbers, padded numbers, NaN, words.
VALUES = ["x", "y", "1", "2", " 2 ", "1.5", "-3", "nan", "x y"]

_DOT = LocationPath(RootContext(absolute=False))
#: Value constraints of every compiled shape: ``.``, ``self::node()``,
#: ``@k``, ``text()``; literal on either side; numbers, numeric and
#: non-numeric strings.
COMPILED = [
    Comparison("=", _DOT, Literal("x")),
    Comparison("!=", _DOT, Literal("x")),
    Comparison("<", _DOT, NumberLiteral(2.0)),
    Comparison(">=", NumberLiteral(1.5), _DOT),
    Comparison("!=", _DOT, Literal(" 2")),
    parse_expr('. = "x y"'),
    parse_expr("self::node() = 1"),
    parse_expr('. > "1"'),
    parse_expr('@k = "y"'),
    parse_expr("@k > 1"),
    parse_expr("1.5 <= @k"),
    parse_expr('@k != " 2 "'),
    parse_expr('"nan" = @k'),
    parse_expr('text() = "x"'),
    parse_expr("text() != 2"),
    parse_expr('"1" < text()'),
    parse_expr('@k != "y"'),
]
#: Constraints the kernel hands to the evaluator.
PREDICATES = COMPILED + [parse_expr("not(b)"),
                         parse_expr('contains(., "x")')]


# ----------------------------------------------------------------------
# Generators.
# ----------------------------------------------------------------------


@st.composite
def documents(draw, max_depth=4):
    """Random documents with ``k`` attributes and mixed text content."""
    builder = DocumentBuilder()

    def element(depth):
        attrs = ({"k": draw(st.sampled_from(VALUES))}
                 if draw(st.booleans()) else None)
        builder.start_element(draw(st.sampled_from(TAGS)), attrs)
        for _ in range(draw(st.integers(0, max(0, max_depth - depth)))):
            if draw(st.integers(0, 2)) == 0:
                builder.text(draw(st.sampled_from(VALUES)))
            else:
                element(depth + 1)
        builder.end_element()

    builder.start_element("r")
    for _ in range(draw(st.integers(1, 4))):
        element(1)
    builder.end_element()
    return builder.finish()


@st.composite
def noks(draw):
    """The first NoK of a random pattern tree: ``#root``, wildcard or
    named root; wildcard children; mandatory and optional edges; cut
    (descendant) edges; ``following-sibling`` constraints, including
    one naming no local sibling; random value constraints."""
    tree = BlossomTree()
    root = tree.new_root(draw(st.sampled_from(["#root", "*"] + TAGS)))
    if root.name != "#root":
        root.value_predicates = draw(st.lists(st.sampled_from(PREDICATES),
                                              max_size=1))
    child_names = TAGS + ["*", "r"]

    def grow(parent, depth):
        siblings = []
        for _ in range(draw(st.integers(0, 3 if depth < 3 else 0))):
            child = tree.new_vertex(draw(st.sampled_from(child_names)))
            axis = "descendant" if draw(st.integers(0, 5)) == 0 else "child"
            mode = draw(st.sampled_from([MODE_MANDATORY, MODE_OPTIONAL]))
            tree.add_edge(parent, child, axis, mode)
            child.returning = draw(st.booleans())
            child.value_predicates = draw(
                st.lists(st.sampled_from(PREDICATES), max_size=2))
            if siblings and draw(st.integers(0, 2)) == 0:
                # A preceding sibling, or the parent (no local sibling:
                # never eligible).
                child.after_vid = draw(st.sampled_from(
                    [s.vid for s in siblings] + [parent.vid]))
            siblings.append(child)
            if axis == "child":
                grow(child, depth + 1)

    grow(root, 0)
    return decompose(tree).noks[0]


def shape(entry):
    """An NLEntry as nested tuples: vertex, node and groups."""
    if entry is None:
        return None
    return (entry.vertex.vid, entry.node.nid,
            tuple(tuple(shape(e) for e in group) for group in entry.groups))


def run(scan, counters):
    """``(match shapes or the DNF, counter snapshot)`` of one scan."""
    try:
        outcome = [shape(e) for e in scan(counters)]
    except DNFError:
        outcome = "DNF"
    return outcome, counters.snapshot()


# ----------------------------------------------------------------------
# Kernels against the interpreted matcher.
# ----------------------------------------------------------------------


class TestKernelAgainstReference:
    @COMMON_SETTINGS
    @given(doc=documents(), nok=noks())
    def test_matcher_and_merged_scan_agree(self, doc, nok):
        want = run(lambda c: reference_scan(nok, doc, c), ScanCounters())
        assert run(lambda c: NoKMatcher(nok, doc, c).matches(),
                   ScanCounters()) == want
        assert run(lambda c: merged_scan([nok], doc, c)[nok.nok_id],
                   ScanCounters()) == want

    @COMMON_SETTINGS
    @given(doc=documents(), nok=noks(), data=st.data())
    def test_same_dnf_trip_point(self, doc, nok, data):
        budget = data.draw(st.integers(0, len(doc.nodes) + 1))
        want = run(lambda c: reference_scan(nok, doc, c),
                   ScanCounters(budget=budget))
        got = run(lambda c: merged_scan([nok], doc, c)[nok.nok_id],
                  ScanCounters(budget=budget))
        assert got == want

    @COMMON_SETTINGS
    @given(doc=documents(), group=st.lists(noks(), min_size=2, max_size=4))
    def test_one_merged_scan_serves_many_kernels(self, doc, group):
        # Renumber so each NoK has its own id within the merged scan.
        for nok_id, nok in enumerate(group):
            nok.nok_id = nok_id
        per_nok: dict[int, ScanCounters] = {}
        merged = merged_scan(group, doc, ScanCounters(), per_nok)
        for nok in group:
            counters = ScanCounters()
            want = [shape(e) for e in reference_scan(nok, doc, counters)]
            assert [shape(e) for e in merged[nok.nok_id]] == want
            private = per_nok.get(nok.nok_id, ScanCounters())
            assert private.comparisons == counters.comparisons

    @pytest.mark.parametrize("predicate", COMPILED, ids=str)
    def test_compiled_shapes_never_call_the_evaluator(self, predicate,
                                                      monkeypatch):
        doc = parse('<r><a k="2">1</a><a k="y">x</a><a>2<b/></a></r>')
        tree = BlossomTree()
        tree.new_root("a").value_predicates = [predicate]
        nok = decompose(tree).noks[0]
        kernel = compile_nok(nok)
        want = len(reference_scan(nok, doc, ScanCounters()))
        calls = []
        monkeypatch.setattr(XPathEvaluator, "evaluate",
                            lambda *args: calls.append(args))
        matched = [kernel(node, ScanCounters()) is not None
                   for node in doc.elements() if node.tag == "a"]
        assert calls == []
        assert matched.count(True) == want

    def test_worker_kernels_match_the_reference(self):
        doc = parse("<bib>" + "".join(
            f"<shelf><book k='{i % 5}'><a>x{i % 3}</a><b>{i % 7}</b>"
            f"<a>{i}</a></book></shelf>" for i in range(200)) + "</bib>")
        tree = BlossomTree()
        book = tree.new_root("book")
        book.value_predicates = [parse_expr("@k > 1")]
        first = tree.new_vertex("a")
        tree.add_edge(book, first, "child", MODE_MANDATORY)
        later = tree.new_vertex("a")
        tree.add_edge(book, later, "child", MODE_OPTIONAL)
        later.after_vid = first.vid
        later.value_predicates = [parse_expr("text() > 100")]
        later.returning = True
        nok = decompose(tree).noks[0]
        want = run(lambda c: reference_scan(nok, doc, c), ScanCounters())
        pool = ProcessScanBackend(max_workers=2)
        try:
            got = run(lambda c: parallel_merged_scan(
                [nok], doc, c,
                partitions=partition_document(doc, 3, min_nodes=1),
                process_backend=pool)[nok.nok_id], ScanCounters())
        finally:
            pool.close(wait=True)
        assert got[0] == want[0]
        assert got[1]["comparisons"] == want[1]["comparisons"]
        assert got[1]["nodes_scanned"] == want[1]["nodes_scanned"]


# ----------------------------------------------------------------------
# Fixed fixtures: the paper's small documents and numeric literals.
# ----------------------------------------------------------------------


def nok_for(path_text):
    """The one element-rooted NoK of a path."""
    dec = decompose(build_from_path(parse_xpath(path_text)))
    [nok] = [n for n in dec.noks if n.root.name != "#root"]
    return nok


def assert_agrees(doc, nok):
    """Kernel and reference: same matches, same counters; returns the
    kernel's matches."""
    counters = ScanCounters()
    got = NoKMatcher(nok, doc, counters).matches()
    reference = ScanCounters()
    want = reference_scan(nok, doc, reference)
    assert [shape(e) for e in got] == [shape(e) for e in want]
    assert counters.snapshot() == reference.snapshot()
    return got


class TestFixtures:
    PATTERNS = [
        "//book",
        "//book/author",
        "//book/author/last",
        "//book/price",
        '//book[@year = "2000"]',
        '//book[@year = "2000"]/author',
    ]

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_small_bib(self, small_bib, pattern):
        assert_agrees(small_bib, nok_for(pattern))

    RECURSIVE_PATTERNS = [
        "//section",
        "//section/title",
        "//section/section",
        "//section/section/title",
    ]

    @pytest.mark.parametrize("pattern", RECURSIVE_PATTERNS)
    def test_recursive(self, recursive_doc, pattern):
        assert_agrees(recursive_doc, nok_for(pattern))

    def test_generated_corpus(self):
        from repro.datagen import generate_d3
        doc = generate_d3(scale=0.05)
        for pattern in ("//item/attributes", "//author/name/last_name",
                        "//publisher/street_information"):
            assert assert_agrees(doc, nok_for(pattern)), pattern

    def test_leaf_values(self, small_bib):
        matches = assert_agrees(small_bib, nok_for("//last"))
        assert [e.node.string_value() for e in matches] == \
            ["Stevens", "Abiteboul", "Buneman"]

    def test_text_predicate(self, small_bib):
        assert len(assert_agrees(small_bib,
                                 nok_for('//last[. = "Stevens"]'))) == 1

    def test_mandatory_children(self, small_bib):
        # Economics has no author.
        assert len(assert_agrees(small_bib, nok_for("//book/author"))) == 2

    def test_single_pass(self):
        doc = parse("<r><a><b/><b/></a><a/></r>")
        counters = ScanCounters()
        assert len(NoKMatcher(nok_for("//a/b"), doc, counters).matches()) == 1
        assert counters.scans_started == 1
        assert counters.nodes_scanned == len(doc.nodes)


class TestNumericLiterals:
    """Numeric literals: the compiled comparisons agree with the
    evaluator's, in both operand orders, whatever the text's format."""

    NUMERIC_PATTERNS = [
        "//book[@year = 2000]",
        "//book[2000 = @year]",
        "//book[@year = 1850]",
        "//book/price[. = 39.95]",
        "//book/price[39.95 = .]",
        "//book/price[. = 100]",
    ]

    @pytest.mark.parametrize("pattern", NUMERIC_PATTERNS)
    def test_agrees(self, small_bib, pattern):
        assert_agrees(small_bib, nok_for(pattern))

    def test_attribute_both_operand_orders(self, small_bib):
        for pattern in ("//book[@year = 2000]", "//book[2000 = @year]"):
            assert len(assert_agrees(small_bib, nok_for(pattern))) == 1

    def test_text_formatting(self):
        doc = parse("<r><a> 5 </a><a>5.0</a><a>4</a></r>")
        assert len(assert_agrees(doc, nok_for("//a[. = 5]"))) == 2

    def test_unparsable_value_is_unequal(self):
        doc = parse('<r><a x="n/a">word</a><a x="5">5</a></r>')
        for pattern in ("//a[@x = 5]", "//a[. = 5]"):
            assert len(assert_agrees(doc, nok_for(pattern))) == 1


# ----------------------------------------------------------------------
# The stride-checked scan.
# ----------------------------------------------------------------------


def _ticking_clock(monkeypatch, step_s: float) -> None:
    """Make the scan's clock advance ``step_s`` per reading."""
    now = [1000.0]

    def monotonic() -> float:
        now[0] += step_s
        return now[0]

    monkeypatch.setattr(storage, "time", types.SimpleNamespace(
        monotonic=monotonic))


class TestStridedScan:
    def big_doc(self):
        return parse("<r>" + "<a><b>1</b></a>" * 800 + "</r>")

    def test_timeout_raised_mid_scan(self, monkeypatch):
        doc = self.big_doc()
        # Each clock reading is 1 ms; the token expires on its fourth
        # check, i.e. at the start of the fourth stride.
        _ticking_clock(monkeypatch, 0.001)
        counters = ScanCounters()
        counters.cancellation = CancellationToken(timeout_ms=3.5)
        nok = decompose(_single("a")).noks[0]
        with pytest.raises(QueryTimeoutError):
            merged_scan([nok], doc, counters)
        assert counters.nodes_scanned == 3 * SCAN_STRIDE
        assert counters.nodes_scanned < len(doc.nodes)

    def test_engine_timeout_raised_mid_scan(self, monkeypatch):
        doc = self.big_doc()
        engine = Engine(doc)
        engine.query("//a/b")  # compile outside the ticking clock
        _ticking_clock(monkeypatch, 0.001)
        counters = ScanCounters()
        with pytest.raises(QueryTimeoutError):
            engine.query("//a/b", timeout_ms=5.5, counters=counters)
        # Token built (1 ms), checked before planning (2 ms), then four
        # strides start at 3..6 ms and the fifth finds it expired.
        assert counters.nodes_scanned == 4 * SCAN_STRIDE
        assert counters.nodes_scanned < len(doc.nodes)

    def test_early_stop_refunds_undelivered_nodes(self):
        doc = self.big_doc()
        counters = ScanCounters()
        scan = iter(storage.SequentialScan(doc, counters))
        for _ in range(3):
            node = next(scan)
        scan.close()
        # Charged up to the last node delivered, as a per-node scan.
        assert counters.nodes_scanned == node.nid + 1

    @pytest.mark.parametrize("budget", [0, 1, SCAN_STRIDE - 1, SCAN_STRIDE,
                                        SCAN_STRIDE + 1, 3 * SCAN_STRIDE])
    def test_budget_trips_at_budget_plus_one(self, budget):
        doc = self.big_doc()
        counters = ScanCounters(budget=budget)
        with pytest.raises(DNFError):
            list(storage.SequentialScan(doc, counters))
        assert counters.nodes_scanned == budget + 1
        assert counters.budget_trips == 1

    def test_budget_equal_to_the_range_does_not_trip(self):
        doc = self.big_doc()
        counters = ScanCounters(budget=len(doc.nodes))
        elements = list(storage.SequentialScan(doc, counters))
        assert counters.nodes_scanned == len(doc.nodes)
        assert len(elements) == sum(1 for n in doc.nodes
                                    if n.kind == ELEMENT)


def _single(name: str) -> BlossomTree:
    tree = BlossomTree()
    root = tree.new_root(name)
    root.returning = True
    return tree


# ----------------------------------------------------------------------
# Where filters against the evaluator.
# ----------------------------------------------------------------------

OPERANDS = ['"x"', '"1"', "2", "1.5", "$p", "$b", "$b/c", "$b/*", "$a",
            "$a/c", "$s", "$s/b", "$q", "$q/c"]
#: Shapes the filter hands to the evaluator.
INTERPRETED = ["count($b/c) > 1", "$b/c/d = 1", "$b << $b",
               'contains($b, "x")', "$b", "$p", "$b/c[1] = 1",
               "$p/c = 1"]
OPS = ["=", "!=", "<", "<=", ">", ">="]


@st.composite
def where_texts(draw, depth=2):
    kind = draw(st.integers(0, 5 if depth else 2))
    if kind <= 1:
        return (f"{draw(st.sampled_from(OPERANDS))} "
                f"{draw(st.sampled_from(OPS))} "
                f"{draw(st.sampled_from(OPERANDS))}")
    if kind == 2:
        return draw(st.sampled_from(INTERPRETED))
    if kind == 3:
        return f"not({draw(where_texts(depth - 1))})"
    op = draw(st.sampled_from(["and", "or"]))
    parts = draw(st.lists(where_texts(depth - 1), min_size=2, max_size=3))
    return f" {op} ".join(f"({part})" for part in parts)


PARAMETERS = st.one_of(st.integers(-3, 3), st.sampled_from([1.5, 2.0]),
                       st.sampled_from(VALUES), st.booleans())


def outcome(call):
    try:
        return ("value", call())
    except ReproError as exc:
        return (type(exc), str(exc))


def interpreted(where, doc, bindings):
    context = EvalContext(doc.document_node, variables=bindings,
                          resolve_doc=lambda uri: doc)
    return boolean_value(XPathEvaluator().evaluate(where, context))


class TestWhereFilterAgainstEvaluator:
    @COMMON_SETTINGS
    @given(doc=documents(), text=where_texts(), param=PARAMETERS,
           data=st.data())
    def test_filter_agrees(self, doc, text, param, data):
        where = parse_expr(text)
        elements = [n for n in doc.nodes if n.kind == ELEMENT]
        b = data.draw(st.sampled_from(elements))
        attributes = evaluate_xpath(doc, "//@k")
        bindings = {
            "b": [b],
            # As the engine binds it: an int widens to a float.
            "p": normalize_bindings(frozenset({"p"}), {"p": param})["p"],
            "s": data.draw(st.lists(st.sampled_from(elements), max_size=3)),
            # Attribute-bound: the attribute items a path can bind.
            "a": attributes[:data.draw(st.integers(0, 2))],
        }
        direct = DirectEvaluator(doc)
        want = outcome(lambda: interpreted(where, doc, bindings))
        assert outcome(lambda: WhereFilter(where)(bindings,
                                                  direct.evaluate)) == want
        assert outcome(lambda: direct.check_where(where, bindings)) == want

    @pytest.mark.parametrize("text", ["$b/c < $q", "$q = 1", "$q/c = 1",
                                      "1 = $q and $b/c = 1",
                                      "$p/c = 1"])
    def test_unbound_and_atomic_roots_raise_as_before(self, text):
        doc = parse("<r><a><c>1</c></a></r>")
        where = parse_expr(text)
        bindings = {"b": [doc.root.children[0]], "p": 2.0}
        want = outcome(lambda: interpreted(where, doc, bindings))
        assert want[0] != "value"
        got = outcome(lambda: WhereFilter(where)(
            bindings, DirectEvaluator(doc).evaluate))
        assert got == want

    @pytest.mark.parametrize("param", [2, 2.5, "2", " 2 ", "x", True, False])
    def test_engine_where_matches_the_interpreted_clause(self, param):
        doc = parse("<r>" + "".join(
            f"<a><c>{v}</c><c>{w}</c></a>"
            for v, w in [(1, 3), (2, "x"), ("2", " 2 "), ("true", 0)])
            + "</r>")
        query = "for $b in //a where $b/c < $p or $b/c = $p return $b"
        where = parse_expr("$b/c < $p or $b/c = $p")
        normalized = normalize_bindings(frozenset({"p"}), {"p": param})
        want = [n.nid for n in doc.nodes
                if n.kind == ELEMENT and n.tag == "a"
                and interpreted(where, doc, {"b": [n], **normalized})]
        got = Engine(doc).query(query, params={"p": param})
        assert [n.nid for n in got.nodes()] == want


# ----------------------------------------------------------------------
# Ownership: a cached plan never pins a document.
# ----------------------------------------------------------------------


def test_cached_plan_does_not_pin_its_document():
    cache = PlanCache(8)
    doc = parse("<r>" + "<a k='1'><b>2</b><c>x</c></a>" * 50 + "</r>")
    engine = Engine(doc, plan_cache=cache)
    query = ("for $x in //a[@k = 1] where $x/b < $p and not($x/c = 'y') "
             "return $x/b")
    assert len(engine.query(query, params={"p": 3}).items) == 50
    [plan] = [cache.peek(key) for key in list(cache._entries)]
    assert plan.artifacts.kernels and plan.artifacts.where is not None

    ref = weakref.ref(doc)
    del engine, doc
    gc.collect()
    assert ref() is None
    # The plan, kernels and filter included, is still cached, and its
    # kernels run against any document.
    assert cache.peek(next(iter(cache._entries))) is plan
    other = parse("<r><a k='1'><b>1</b><c>x</c></a><a k='2'/></r>")
    noks = plan.artifacts.decomposition.noks
    matches = merged_scan(noks, other, kernels=plan.artifacts.kernels)
    assert sum(len(entries) for entries in matches.values()) == 2
