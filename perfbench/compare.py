"""Compare two sets of saved benchmark runs.

Usage::

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the standard output of ``run.py`` runs, one file
per run.  Runs are grouped by workload; for every end-to-end metric the
tool prints each side's median and quartile spread and whether the
change is worse than the base by more than the metric's bound in
``BENCHMARK.json``.  Runs whose result is not correct keep their
metrics (so a ``success_ratio`` drop from wrong results shows) and are
counted per side.  It refuses to compare runs whose host fingerprints
differ (cores, Python, platform), or runs of different lengths.

Exit status: 0 when every pair is within its bound or better; 1 when
any pair is worse beyond its bound or unresolved, a workload or metric
is on one side only, or the change has an incorrect run; 2 on a refusal.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import COMPARABLE, ROOT


def load(directory: str) -> tuple[dict, dict, set]:
    """``{workload: {metric: [values]}}``, ``{workload: incorrect runs}``
    and the fingerprints seen."""
    values: dict = defaultdict(lambda: defaultdict(list))
    incorrect: dict = defaultdict(int)
    hosts: set = set()
    for path in sorted(Path(directory).iterdir()):
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        if len(lines) < 2:
            continue
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        if record["trace"]:
            continue
        incorrect[record["workload"]] += not result["correct"]
        fingerprint = record["fingerprint"]
        hosts.add(tuple(fingerprint[k] for k in COMPARABLE)
                  + (record["seconds"],))
        for name, metric in result["metrics"].items():
            values[record["workload"]][name].append(metric["value"])
    return values, incorrect, hosts


def spread(values: list) -> float:
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, base_wrong, base_hosts = load(argv[0])
    change, change_wrong, change_hosts = load(argv[1])
    hosts = base_hosts | change_hosts
    if len(hosts) > 1:
        print("refused: runs come from different host fingerprints or "
              f"run lengths: {sorted(hosts)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    status = 0
    for workload in sorted(set(base) | set(change)):
        line = (f"{workload}: incorrect runs base {base_wrong[workload]}, "
                f"change {change_wrong[workload]}")
        if change_wrong[workload]:
            status = 1
            line += "  INCORRECT"
        print(line)
    print(f"{'workload':16} {'metric':16} {'base':>11} {'change':>11} "
          f"{'delta':>8} {'spread':>7}  verdict")
    for workload in sorted(set(base) | set(change)):
        for name, (bound, better) in bounds.items():
            a, b = base[workload].get(name), change[workload].get(name)
            if not a or not b:
                status = 1
                side = "change" if a else "base" if b else "both sides"
                print(f"{workload:16} {name:16} missing on {side}")
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            delta = (mb - ma) / ma if ma else 0.0
            worse = -delta if better == "higher" else delta
            noise = max(spread(a), spread(b))
            if noise > bound:
                verdict = "unresolved (spread above bound)"
            elif worse > bound:
                verdict = "WORSE beyond bound"
            elif worse < -noise:
                verdict = "better"
            else:
                verdict = "within bound"
            status |= verdict not in ("better", "within bound")
            print(f"{workload:16} {name:16} {ma:11.4f} {mb:11.4f} "
                  f"{delta:+8.1%} {noise:7.1%}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
