"""Domain scenario 3: the update problem.

An operational concern the paper discusses but does not benchmark
(Section 2.1): region labels and tag indexes are materializations of
structure; insert one element and watch how much relabeling/rebuilding
the join-based machinery needs, while the scan-based path needs none.

Run with::

    python examples/update_problem.py
"""

from repro import Engine, parse
from repro.datagen import generate_d3
from repro.xmlkit import DocumentUpdater


def main() -> None:
    doc = generate_d3(scale=0.1)
    print(f"corpus: {len(doc.nodes):,} nodes\n")

    print("== The update problem, quantified ==")
    engine = Engine(doc)
    updater = DocumentUpdater(doc)
    updater.register_index(engine.index)
    engine.index.build()

    query = "//item//street_address"
    before = len(engine.query(query, strategy="pipelined"))
    print(f"  before update: {before} results")

    first_item = doc.elements_by_tag("item")[0]
    fragment = parse("<street_address>1 brand new way</street_address>").root
    report = updater.insert_subtree(first_item, fragment)
    print(f"  inserted 1 element near the document start:")
    print(f"    nodes relabeled : {report.nodes_relabeled:6d} "
          f"(of {len(doc.nodes)} — the materialized-encoding cost)")
    print(f"    indexes dropped : {report.indexes_invalidated}")

    after_scan = len(engine.query(query, strategy="pipelined"))
    print(f"  scan-based answer, zero maintenance : {after_scan} results")
    engine.index.build()  # the join-based pipeline pays this first
    after_ts = len(engine.query(query, strategy="twigstack"))
    print(f"  join-based answer after index rebuild: {after_ts} results")
    assert after_scan == after_ts == before + 1


if __name__ == "__main__":
    main()
