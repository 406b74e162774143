"""Differential bit-identity of QL pruning rewrites.

The soundness contract: for any query and any document, an engine with
query analysis on (pruned BlossomTrees, static-empty short circuits)
returns a result bit-identical to the same engine with analysis off
(`analyze_queries=False`, the escape hatch).  This suite pins that over
the datagen workloads — including scales where rare labels vanish and
the lint legitimately fires — plus hand-written queries targeting each
rewrite kind, across serial and parallel execution.
"""

import pytest

from repro.datagen.workload import DATASETS
from repro.engine import Engine
from tests.conftest import SMALL_BIB
from repro.xmlkit.parser import parse

#: Queries engineered so the lint *does* rewrite on SMALL_BIB
#: (bib/book@year/title/author/last/price).
REWRITTEN_QUERIES = [
    "//zzz/title",                                         # QL001 s-empty
    "//title/book",                                        # QL002 s-empty
    "//author//price",                                     # QL002 s-empty
    '//book[@year = "1994" and @year = "2000"]/title',     # QL003 s-empty
    "//book[@year > 2005 and @year < 2000]/title",         # QL003 s-empty
    '//book[@isbn = "1"]/title',                           # QL006 s-empty
    "for $b in //book where 1 = 2 return $b/title",        # QL004 s-empty
    "for $b in //book where $b/zzz return $b/title",       # QL004 s-empty
    "for $b in //book return $b/zzz",                      # return-empty
    "<out>{ for $b in //book where 1 = 2 "
    "return $b/title }</out>",                             # constructor
    # Warning-only rewrites must not change anything either.
    "for $b in //book where 1 = 1 return $b/title",        # QL005
    "for $b in //book where not($b/zzz) return $b/title",  # QL005
    # Prunable optional branch (let over a provably-empty path).
    "for $b in //book let $z := $b/zzz/qqq "
    "return $b/title",
]


def differential(doc, text, **kwargs):
    """Serialize the query with lint on and off; both must agree."""
    linted = Engine(doc).query(text, **kwargs).serialize()
    plain = Engine(doc, analyze_queries=False).query(
        text, **kwargs).serialize()
    assert linted == plain
    return linted


class TestHandWrittenRewrites:
    @pytest.mark.parametrize("text", REWRITTEN_QUERIES)
    def test_serial(self, small_bib, text):
        differential(small_bib, text)

    @pytest.mark.parametrize("text", REWRITTEN_QUERIES)
    def test_parallel(self, small_bib, text):
        differential(small_bib, text, executor="processes:2")

    def test_rewrites_actually_fired(self, small_bib):
        # The suite is vacuous if nothing was rewritten: assert the
        # static-empty queries really take the short circuit.
        engine = Engine(small_bib)
        engine.query("//zzz/title")
        assert "static-empty" in engine.last_plan


class TestWorkloadDifferential:
    """Every workload query, pruned vs unpruned, on its own dataset.

    At scale 0.1 every label occurs (the lint stays quiet); at scale
    0.02 the rare high-selectivity labels (``b4``, ``country_id``,
    ``phdthesis`` ...) vanish from the generated documents, so the lint
    legitimately rewrites real workload queries to static-empty plans —
    both regimes must be bit-identical to the unpruned run.
    """

    @pytest.mark.parametrize("scale", [0.1, 0.02])
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_serial(self, name, scale):
        dataset = DATASETS[name]
        doc = dataset.generate(scale=scale)
        for spec in dataset.queries:
            differential(doc, spec.text)

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_parallel(self, name):
        dataset = DATASETS[name]
        doc = dataset.generate(scale=0.1)
        for spec in dataset.queries:
            differential(doc, spec.text, executor="processes:2")

    def test_small_scale_rewrites_fire(self):
        # d1 Q1 targets the ~1% label b4: absent at scale 0.02.
        doc = DATASETS["d1"].generate(scale=0.02)
        engine = Engine(doc)
        engine.query(DATASETS["d1"].queries[0].text)
        assert "static-empty" in engine.last_plan


class TestExplicitStrategies:
    """Pruned plans must agree with lint-off across explicit strategies."""

    STRATEGIES = ["pipelined", "stack", "twigstack", "auto"]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_static_empty_across_strategies(self, strategy):
        doc = parse(SMALL_BIB)
        differential(doc, "//zzz/title", strategy=strategy)

    # twigstack refuses optional modes outright, lint on or off.
    @pytest.mark.parametrize("strategy", ["pipelined", "stack", "auto"])
    def test_pruned_let_across_strategies(self, strategy):
        doc = parse(SMALL_BIB)
        differential(
            doc,
            "for $b in //book let $z := $b/zzz/qqq return $b/title",
            strategy=strategy)
