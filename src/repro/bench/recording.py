"""In-process recording of benchmark runs for machine-readable export.

The harness appends one record per :func:`~repro.bench.harness.run_cell`
execution; the benchmark suite's ``pytest_sessionfinish`` hook dumps
everything to ``BENCH_PR1.json`` so a CI run leaves behind a queryable
artifact (query text, strategy, wall time, counters snapshot) instead
of only rendered tables.  :func:`merge_json` is the read-modify-write
the serving benchmarks share, so several tests can each contribute
their own section to one ``BENCH_*.json`` artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["RECORDS", "record_run", "write_json", "merge_json", "clear"]

#: All records accumulated in this process, in execution order.
RECORDS: list[dict[str, object]] = []


def record_run(query: str, strategy: str, wall_ms: float | None,
               counters: dict[str, int], **extra: object) -> dict[str, object]:
    """Append one benchmark measurement.

    ``wall_ms`` is ``None`` for runs that did not finish (DNF).  Extra
    keyword fields (dataset name, system label, result count, ...) are
    stored verbatim.
    """
    record: dict[str, object] = {
        "query": query,
        "strategy": strategy,
        "wall_ms": wall_ms,
        "counters": dict(counters),
    }
    record.update(extra)
    RECORDS.append(record)
    return record


def write_json(path: str | Path,
               meta: dict[str, object] | None = None) -> Path:
    """Write all accumulated records (plus optional metadata) as JSON."""
    path = Path(path)
    payload = {"meta": meta or {}, "runs": RECORDS}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def merge_json(path: str | Path, update: dict[str, object]) -> Path:
    """Merge ``update``'s top-level keys into the JSON object at ``path``.

    A missing or unreadable file starts from an empty object, so one
    test's section never depends on another test having run first.
    """
    path = Path(path)
    payload: dict[str, object] = {}
    if path.exists():
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            payload = {}
    payload.update(update)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def clear() -> None:
    """Drop all accumulated records (tests use this for isolation)."""
    RECORDS.clear()
