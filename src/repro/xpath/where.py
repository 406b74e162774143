"""Compiled where clauses: the per-tuple filter of a FLWOR expression.

The executor re-verifies a FLWOR's where clause once per binding tuple.
:func:`compile_where` turns the clause into a closure once per plan, so
the common shapes skip the general evaluator's dispatch, context
objects and node-set bookkeeping:

* ``and``, ``or`` and ``not`` over the compiled parts, short-circuiting
  left to right as the evaluator does;
* value comparisons (``= != < <= > >=``) whose operands are each a
  literal, a bare ``$var`` (external parameters included) or a
  ``$var/name`` child step, compared existentially with the evaluator's
  own atomization and :func:`~repro.xpath.evaluator._compare_atoms`.

Everything else — structural comparisons, functions, quantifiers,
longer paths — is handed to the caller's evaluator, one sub-expression
at a time.  So is a comparison whose bindings have a shape the compiled
form does not handle (an unbound variable, an atomic value rooting a
path, a sequence holding attribute or string items): the evaluator then
returns the same value, or raises the same error, as it always has.

A filter holds only the expression; the evaluator is passed in per
call, so a cached plan never keeps a document alive.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.xmlkit.tree import ELEMENT, Node
from repro.xpath.ast import (
    BooleanExpr,
    Comparison,
    Expr,
    Literal,
    LocationPath,
    NameTest,
    NotExpr,
    NumberLiteral,
    RootVariable,
)
from repro.xpath.evaluator import VALUE_OPS, Value, _compare_atoms, boolean_value

__all__ = ["Evaluate", "WhereFilter", "compile_where"]

#: ``evaluate(expr, bindings)``: the caller's general evaluator, for the
#: sub-expressions the filter does not compile.
Evaluate = Callable[[Expr, dict], Value]
_Test = Callable[[dict, Evaluate], bool]
#: ``atoms(bindings)``: an operand's atom list, or ``None`` when the
#: bindings have a shape the compiled operand does not handle.
_Atoms = Callable[[dict], "list | None"]


class WhereFilter:
    """A where clause compiled once: ``filter(bindings, evaluate)`` is
    the clause's effective boolean value under ``bindings``."""

    __slots__ = ("where", "_test")

    def __init__(self, where: Expr) -> None:
        self.where = where
        self._test = _compile(where)

    def __call__(self, bindings: dict, evaluate: Evaluate) -> bool:
        return self._test(bindings, evaluate)


def compile_where(where: Expr | None) -> WhereFilter | None:
    """The compiled filter of a where clause (``None`` without one)."""
    return WhereFilter(where) if where is not None else None


def _compile(expr: Expr) -> _Test:
    if isinstance(expr, BooleanExpr):
        parts = tuple(_compile(operand) for operand in expr.operands)
        if expr.op == "and":
            def all_hold(bindings: dict, evaluate: Evaluate) -> bool:
                for part in parts:
                    if not part(bindings, evaluate):
                        return False
                return True
            return all_hold

        def any_holds(bindings: dict, evaluate: Evaluate) -> bool:
            for part in parts:
                if part(bindings, evaluate):
                    return True
            return False
        return any_holds
    if isinstance(expr, NotExpr):
        inner = _compile(expr.operand)

        def negated(bindings: dict, evaluate: Evaluate) -> bool:
            return not inner(bindings, evaluate)
        return negated
    if isinstance(expr, Comparison) and expr.op in VALUE_OPS:
        left, right = _operand(expr.left), _operand(expr.right)
        if left is not None and right is not None:
            return _comparison(expr, left, right)

    def interpreted(bindings: dict, evaluate: Evaluate) -> bool:
        return boolean_value(evaluate(expr, bindings))
    return interpreted


def _comparison(expr: Comparison, left: _Atoms, right: _Atoms) -> _Test:
    op = expr.op

    def compare(bindings: dict, evaluate: Evaluate) -> bool:
        left_atoms = left(bindings)
        right_atoms = right(bindings) if left_atoms is not None else None
        if right_atoms is None:
            return boolean_value(evaluate(expr, bindings))
        for a in left_atoms:
            for b in right_atoms:
                if _compare_atoms(op, a, b):
                    return True
        return False
    return compare


def _operand(expr: Expr) -> _Atoms | None:
    """Compile one comparison operand, or ``None`` for an unhandled one."""
    if isinstance(expr, (Literal, NumberLiteral)):
        constant = [expr.value]
        return lambda bindings: constant
    if not isinstance(expr, LocationPath) \
            or not isinstance(expr.root, RootVariable):
        return None
    name = expr.root.name
    if not expr.steps:
        def variable(bindings: dict) -> list | None:
            value = bindings.get(name)
            if value is None:
                return None
            if isinstance(value, list):
                return [item.typed_value() for item in value]
            return [value]
        return variable
    step = expr.steps[0]
    if len(expr.steps) != 1 or step.axis != "child" or step.predicates \
            or not isinstance(step.test, NameTest):
        return None
    tag = step.test.name
    any_tag = tag == "*"

    def children(bindings: dict) -> list | None:
        value = bindings.get(name)
        if not isinstance(value, list):
            return None
        atoms = []
        for item in value:
            if not isinstance(item, Node):
                return None
            for child in item.children:
                if child.kind == ELEMENT and (any_tag or child.tag == tag):
                    atoms.append(child.typed_value())
        return atoms
    return children
