"""Seeded inputs: corpora as XML text and the request streams.

The program receives only what this module generates: XML text, query
text, parameter bindings and update batches.  Every stream is a pure
function of ``(seed, index)``, so one seed always sends the same
requests in the same order, whatever the throughput.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

__all__ = [
    "ENGINE_SCAN_FAMILIES",
    "PAPER_STRATEGIES",
    "Request",
    "compile_cold_stream",
    "engine_scan_stream",
    "library_xml",
    "paper_cells",
    "paper_stream",
    "sequence_digest",
    "wire_stream",
]


@dataclass(frozen=True)
class Request:
    """One request: a query (``text`` + ``params`` under ``strategy``)
    or, with ``kind="commit"``, one inserted book."""

    family: str
    text: str = ""
    params: dict | None = None
    strategy: str = "auto"
    doc: str = "serving"
    kind: str = "query"
    #: commit only: target shelf index and the inserted book's XML.
    shelf: int = 0
    book: str = ""

    def descriptor(self) -> list:
        return [self.kind, self.family, self.doc, self.strategy, self.text,
                self.params, self.shelf, self.book]

    def literal_text(self) -> str:
        """The query with its parameters substituted as literals (the
        form the oracle evaluates)."""
        text = self.text
        for name, value in (self.params or {}).items():
            text = text.replace(f"${name}", repr(value))
        return text


def sequence_digest(requests) -> str:
    """SHA-256 over the canonical JSON of a request sequence."""
    digest = hashlib.sha256()
    for request in requests:
        digest.update(json.dumps(request.descriptor(),
                                 sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Corpora.
# ---------------------------------------------------------------------------


def book_xml(serial: int, price: int, prefix: str = "b") -> str:
    return (f'<book id="{prefix}{serial}"><author>author-{serial % 211}'
            f'</author><title>title-{prefix}{serial}</title>'
            f'<price>{price}</price></book>')


def library_xml(shelves: int, books: int,
                inserts: tuple[tuple[int, str], ...] = ()) -> str:
    """The serving library: ``shelves`` x ``books`` books (40 x 50 gives
    the 14,042-node serving corpus).  ``inserts`` are ``(shelf, book
    XML)`` pairs appended in order, so the text of any committed
    snapshot can be rebuilt from the inserts applied before it."""
    extra: dict[int, list[str]] = {}
    for shelf, book in inserts:
        extra.setdefault(shelf, []).append(book)
    parts = ["<library>"]
    serial = 0
    for s in range(shelves):
        parts.append(f'<shelf genre="g{s % 7}">')
        for _ in range(books):
            serial += 1
            parts.append(book_xml(serial, serial % 97))
        parts.extend(extra.get(s, ()))
        parts.append("</shelf>")
    parts.append("</library>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# engine-scan: six families over the serving corpus.
# ---------------------------------------------------------------------------

#: (family, query text, parameter draw).  ``$p`` gets a fresh draw per
#: request: a half-integer price bound for the bypass FLWOR, an integer
#: price for the constructor.  Draws come from 25 values spread over the
#: 0..96 price range, which keeps the oracle's distinct results per run
#: small; the program caches no result by parameter value.
ENGINE_SCAN_FAMILIES = (
    ("path", "//book/title", None),
    ("twig", "//book[author]/title", None),
    ("flwor-where",
     "for $b in //book where $b/price < $p return $b/title", "half"),
    ("constructor",
     "<report>{for $b in //book where $b/price = $p "
     "return <hit>{$b/title}</hit>}</report>", "int"),
    ("join", "for $s in //shelf, $t in $s//title return $t", None),
    ("static-empty", "//book/isbn", None),
)


def _draw(rng: random.Random, how: str | None) -> dict | None:
    if how is None:
        return None
    step = 4 * rng.randrange(25)
    return {"p": step + 0.5} if how == "half" else {"p": step}


def engine_scan_stream(seed: int):
    rng = random.Random(f"engine-scan/{seed}")
    index = 0
    while True:
        family, text, how = ENGINE_SCAN_FAMILIES[
            index % len(ENGINE_SCAN_FAMILIES)]
        yield Request(family, text, _draw(rng, how))
        index += 1


# ---------------------------------------------------------------------------
# paper-joins: Table 3 queries over datagen d1-d5.
# ---------------------------------------------------------------------------

#: Strategies per dataset beyond ``auto``.  ``auto`` picks TwigStack on
#: the recursive sets and the pipelined join elsewhere, so the paper's
#: other join operators only run when named: stack and bounded
#: nested-loop joins on d1/d4, the naive nested loop on their
#: high-selectivity Q1 (the cell the paper's NL finishes), the caching
#: merge join on the non-recursive sets.
PAPER_STRATEGIES = {
    "d1": (("stack", None), ("bnlj", None), ("nl", ("Q1",))),
    "d4": (("stack", None), ("bnlj", None), ("nl", ("Q1",))),
    "d2": (("caching", None),),
    "d3": (("caching", None),),
    "d5": (("caching", None),),
}


def paper_stream(seed: int, cells: list[Request]):
    """Every cell once per pass, each pass in a seeded order."""
    rng = random.Random(f"paper-joins/{seed}")
    while True:
        order = list(cells)
        rng.shuffle(order)
        yield from order


def paper_cells(datasets) -> list[Request]:
    """One pass over every (dataset, query, strategy) cell."""
    cells: list[Request] = []
    for name, spec in datasets.items():
        for query in spec.queries:
            cells.append(Request(f"{name}.{query.qid}", query.text,
                                 doc=name))
        for strategy, only in PAPER_STRATEGIES[name]:
            for query in spec.queries:
                if only is None or query.qid in only:
                    cells.append(Request(f"{name}.{query.qid}", query.text,
                                         strategy=strategy, doc=name))
    return cells


# ---------------------------------------------------------------------------
# compile-cold: a never-repeated text per request.
# ---------------------------------------------------------------------------

COMPILE_COLD_TEMPLATES = (
    ("path", "//book[price < {x}]/title"),
    ("twig", "//shelf[book/price > {x}]/book[author]/title"),
    ("flwor", "for $b in //book where $b/price >= {x} return $b/author"),
    ("constructor", "<r>{{for $b in //shelf/book where $b/price < {x} "
                    "return <t>{{$b/title}}</t>}}</r>"),
)


@dataclass
class _Fresh:
    """Literal source that never hands out the same literal twice."""

    rng: random.Random
    upper: float
    used: set

    def __call__(self) -> str:
        while True:
            literal = f"{self.rng.uniform(0, self.upper):.6f}"
            if literal not in self.used:
                self.used.add(literal)
                return literal


def compile_cold_stream(seed: int, upper: float, used: set):
    """Every text is new: one template per request, cycled, with a fresh
    literal.  ``used`` is the literal set shared with the other stream
    (the set-up's), so the timed loop never repeats a set-up text."""
    fresh = _Fresh(random.Random(f"compile-cold/{seed}"), upper, used)
    index = 0
    while True:
        family, template = COMPILE_COLD_TEMPLATES[
            index % len(COMPILE_COLD_TEMPLATES)]
        yield Request(family, template.format(x=fresh()), doc="small")
        index += 1


# ---------------------------------------------------------------------------
# wire-read-write: hot texts, a bypass FLWOR and commits.
# ---------------------------------------------------------------------------

#: Hot texts: the path, twig and join shapes with ~21-item results, so a
#: hit costs little next to the bypass FLWOR and the server's latency
#: stays clear of its admission target (see README.md).
WIRE_HOT = (
    ("path", "//book[price = 13]/title"),
    ("twig", "//book[author][price = 29]/title"),
    ("join", "for $s in //shelf, $b in $s//book[price = 41] "
             "return $b/title"),
)
WIRE_MISS = ENGINE_SCAN_FAMILIES[2]
#: Connection 0 commits once per this many of its requests.
COMMIT_EVERY = 40


def wire_stream(seed: int, connection: int):
    """Requests of one connection: 3 of 4 are hot texts, 1 of 4 the
    bypass FLWOR with a fresh ``$p``; on connection 0 one request in
    every :data:`COMMIT_EVERY` (at a seeded phase) is an insert."""
    rng = random.Random(f"wire/{seed}/{connection}")
    phase = rng.randrange(COMMIT_EVERY)
    index = 0
    hot = 0
    inserted = 0
    while True:
        if connection == 0 and index % COMMIT_EVERY == phase:
            inserted += 1
            yield Request("commit", kind="commit",
                          shelf=rng.randrange(40),
                          book=book_xml(inserted, rng.randrange(97),
                                        prefix=f"n{seed}-"))
        elif index % 4 == 3:
            family, text, how = WIRE_MISS
            yield Request(family, text, _draw(rng, how))
        else:
            family, text = WIRE_HOT[hot % len(WIRE_HOT)]
            hot += 1
            yield Request(family, text)
        index += 1
