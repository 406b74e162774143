"""Shared query-expression evaluation: construction, ordering, where checks.

Both the naive oracle interpreter and the BlossomTree executor funnel
their per-tuple work — return-clause construction, order-by keys,
where-clause (re-)verification — through :class:`DirectEvaluator`, so
the two engines cannot drift apart in anything except how they find the
binding tuples.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import DNFError
from repro.xmlkit.tree import Document, Node
from repro.xpath.ast import Expr
from repro.xpath.evaluator import EvalContext, Value, XPathEvaluator
from repro.xpath.where import WhereFilter, compile_where
from repro.xquery.ast import (
    ElementConstructor,
    Enclosed,
    FLWOR,
    ForClause,
    LetClause,
    OrderSpec,
    QueryExpr,
    Sequence,
    TextItem,
)
from repro.engine.result import Item, ResultBuilder

__all__ = ["DirectEvaluator", "order_key"]


class DirectEvaluator:
    """Evaluates any query expression under a given binding environment.

    FLWOR expressions are expanded by direct iteration (the Section 1
    semantics); the BlossomTree executor uses this class only for the
    *inner* pieces (where/order-by/return of an already-enumerated
    tuple), while the oracle uses it for everything.

    Parameters mirror :class:`repro.baseline.naive_flwor.NaiveInterpreter`.
    """

    def __init__(self, doc: Document,
                 resolve_doc: Callable[[str], Document] | None = None,
                 work_budget: int | None = None) -> None:
        self.doc = doc
        self.resolve_doc = resolve_doc if resolve_doc is not None else (lambda uri: doc)
        self.work_budget = work_budget
        self.tuples_examined = 0
        self.xpath = XPathEvaluator()

    # ------------------------------------------------------------------
    # Expression dispatch.
    # ------------------------------------------------------------------

    def eval_query_expr(self, expr: QueryExpr, bindings: dict) -> list[Item]:
        if isinstance(expr, FLWOR):
            return self.eval_flwor(expr, bindings)
        if isinstance(expr, ElementConstructor):
            return [self.construct(expr, bindings)]
        if isinstance(expr, Sequence):
            items: list[Item] = []
            for sub in expr.exprs:
                items.extend(self.eval_query_expr(sub, bindings))
            return items
        value = self.xpath.evaluate(expr, self.context(bindings))
        if isinstance(value, list):
            return list(value)
        return [value]

    def context(self, bindings: dict) -> EvalContext:
        return EvalContext(self.doc.document_node, variables=bindings,
                           resolve_doc=self.resolve_doc)

    def evaluate(self, expr: Expr, bindings: dict) -> Value:
        """One XPath expression's value under bindings."""
        return self.xpath.evaluate(expr, self.context(bindings))

    def check_where(self, where: Expr | None, bindings: dict,
                    compiled: WhereFilter | None = None) -> bool:
        """Effective boolean value of a where clause under bindings.

        ``compiled`` is the clause's filter from the plan (see
        :mod:`repro.xpath.where`); without it, or for another clause,
        the clause is compiled for this call.
        """
        if where is None:
            return True
        if compiled is None or compiled.where is not where:
            compiled = WhereFilter(where)
        return compiled(bindings, self.evaluate)

    # ------------------------------------------------------------------
    # FLWOR by direct iteration.
    # ------------------------------------------------------------------

    def eval_flwor(self, flwor: FLWOR, outer: dict) -> list[Item]:
        tuples: list[dict] = []
        self._expand_clauses(flwor.clauses, 0, dict(outer), tuples,
                             flwor.where, compile_where(flwor.where))
        tuples = self.order_tuples(flwor.order_by, tuples)
        items: list[Item] = []
        for bindings in tuples:
            items.extend(self.eval_query_expr(flwor.return_expr, bindings))
        return items

    def _expand_clauses(self, clauses, index: int, bindings: dict,
                        out: list[dict], where: Expr | None,
                        compiled: WhereFilter | None) -> None:
        if index == len(clauses):
            self.tuples_examined += 1
            if self.work_budget is not None and self.tuples_examined > self.work_budget:
                raise DNFError("direct FLWOR evaluation exceeded its work budget",
                               budget=self.work_budget)
            if self.check_where(where, bindings, compiled):
                out.append(dict(bindings))
            return
        clause = clauses[index]
        sequence = self.xpath.evaluate_path(clause.source, self.context(bindings))
        if isinstance(clause, ForClause):
            for item in sequence:
                bindings[clause.var] = [item]
                self._expand_clauses(clauses, index + 1, bindings, out, where,
                                     compiled)
            bindings.pop(clause.var, None)
        else:
            assert isinstance(clause, LetClause)
            bindings[clause.var] = sequence
            self._expand_clauses(clauses, index + 1, bindings, out, where,
                                 compiled)
            bindings.pop(clause.var, None)

    # ------------------------------------------------------------------
    # Ordering.
    # ------------------------------------------------------------------

    def order_tuples(self, specs: tuple[OrderSpec, ...],
                     tuples: list[dict]) -> list[dict]:
        """Stable order-by over binding tuples (no-op without specs)."""
        if not specs:
            return tuples
        decorated = []
        for index, bindings in enumerate(tuples):
            keys = [order_key(self.xpath.evaluate(s.key, self.context(bindings)),
                              s.descending)
                    for s in specs]
            decorated.append((keys, index, bindings))
        decorated.sort(key=lambda entry: (entry[0], entry[1]))
        return [entry[2] for entry in decorated]

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    def construct(self, ctor: ElementConstructor, bindings: dict) -> Node:
        builder = ResultBuilder()
        self._construct_into(builder, ctor, bindings)
        return builder.finish()

    def _construct_into(self, builder: ResultBuilder, ctor: ElementConstructor,
                        bindings: dict) -> None:
        builder.start_element(ctor.tag, dict(ctor.attrs) if ctor.attrs else None)
        for item in ctor.content:
            if isinstance(item, TextItem):
                builder.text(item.text)
            elif isinstance(item, ElementConstructor):
                self._construct_into(builder, item, bindings)
            else:
                assert isinstance(item, Enclosed)
                # One enclosed expression is one content sequence: its
                # comma-separated parts flatten together so adjacent
                # atoms get the XQuery space separator.
                sequence: list[Item] = []
                for sub in item.exprs:
                    sequence.extend(self.eval_query_expr(sub, bindings))
                builder.add_items(sequence)
        builder.end_element()


def order_key(value, descending: bool):
    """Sortable key for one order-by value.

    Numbers sort numerically, other strings lexicographically; a leading
    type tag keeps mixed keys comparable.  Descending numeric keys
    negate; descending strings invert per-character codes.
    """
    if isinstance(value, list):
        text = value[0].string_value() if value else ""
    elif isinstance(value, bool):
        text = "1" if value else "0"
    else:
        text = str(value)
    text = text.strip()
    try:
        number = float(text)
    except ValueError:
        if descending:
            return (1, 0.0, tuple(-ord(c) for c in text))
        return (1, 0.0, text)
    return (0, -number if descending else number, "")
