"""Reusable pattern-compilation artifacts.

Building a BlossomTree, decomposing it into NoK pattern trees
(Algorithm 1) and assigning Dewey IDs are pure functions of the query —
no document is consulted — so their outputs can be computed once at
``prepare()`` time and replayed across executions.  This module bundles
them into one value object, :class:`PatternArtifacts`, which the plan
cache stores and the executor accepts in place of rebuilding.

The bundle also carries the plan's compiled forms: one match kernel
per NoK (:func:`repro.physical.nok.compile_nok`) and the FLWOR's where
clause as a filter (:func:`repro.xpath.where.compile_where`).  Both are
closures over the pattern and the expression only — never over a
document, engine or evaluator — so a cached plan keeps no snapshot
alive, and they live and die with the plan that holds them.

Reuse safety: the executor's match phase only *reads* the pattern tree
(``select`` filters produce copies, merged scans allocate fresh entry
lists per run) and the kernels and filter keep no per-run state, so one
``PatternArtifacts`` instance can back any number of concurrent or
sequential executions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.pattern.blossom import BlossomTree
from repro.pattern.decompose import Decomposition, decompose
from repro.pattern.dewey import DeweyAssignment, assign_dewey
from repro.xpath.ast import Expr
from repro.xpath.where import WhereFilter, compile_where

if TYPE_CHECKING:
    from repro.physical.nok import NoKKernel

__all__ = ["PatternArtifacts", "prepare_artifacts"]


@dataclass(frozen=True)
class PatternArtifacts:
    """Everything the pattern layer derives from one query."""

    tree: BlossomTree
    decomposition: Decomposition
    dewey: DeweyAssignment
    #: One compiled match kernel per NoK, indexed by ``nok_id``.
    kernels: tuple[NoKKernel, ...]
    #: The compiled where clause (``None`` when the FLWOR has none).
    where: WhereFilter | None


def prepare_artifacts(tree: BlossomTree,
                      where: Expr | None = None) -> PatternArtifacts:
    """Run decomposition and Dewey assignment once, for replay, and
    compile the NoKs and the FLWOR's ``where`` clause."""
    # The physical layer imports this package, so its compiler is
    # imported at call time.
    from repro.physical.nok import compile_nok

    decomposition = decompose(tree)
    return PatternArtifacts(
        tree=tree, decomposition=decomposition, dewey=assign_dewey(tree),
        kernels=tuple(compile_nok(nok) for nok in decomposition.noks),
        where=compile_where(where))
