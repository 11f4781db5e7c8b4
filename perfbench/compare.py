"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Each file holds the lines that `run.py --record FILE` appends, one per
benchmark run, typically ten seeds per workload.  For every workload, trace
mode and metric this prints each side's median and quartiles and the change
of the median.  End-to-end metrics also get a verdict against their bound in
BENCHMARK.json:

    unresolved  either side's spread, (q3 - q1) / median, is wider than the
                bound, so a change of that size could not be seen
    worse       the new median is worse than the old by more than the bound
    better      every new run reads better than every old run
    within      none of the above

A verdict of "unresolved" is never "unchanged": collect more runs, or
report the metric as unresolved.  Per-layer metrics have no bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, trace): {metric: [values]}} from a --record file."""
    groups = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if line.strip():
            entry = json.loads(line)
            key = (entry["record"]["workload"], entry["record"]["trace"])
            for name, metric in entry["result"]["metrics"].items():
                groups[key][name].append(metric["value"])
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(old, new, bound, better):
    sign = 1.0 if better == "lower" else -1.0
    if all(sign * n < sign * o for n in new for o in old):
        return "better"
    if spread(old) > bound or spread(new) > bound:
        return "unresolved"
    worse_by = sign * (statistics.median(new) - statistics.median(old))
    if worse_by > bound * abs(statistics.median(old)):
        return "worse"
    return "within"


def compare(old, new, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines = []
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        for name in sorted(set(old[key]) & set(new[key])):
            a, b = old[key][name], new[key][name]
            qa, qb = quartiles(a), quartiles(b)
            delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("nan")
            line = (f"{workload:13s} {'traced' if trace else 'e2e':6s} {name:32s} "
                    f"{qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] n={len(a)}  ->  "
                    f"{qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] n={len(b)}  "
                    f"{delta:+.1%}")
            if name in bounds:
                m = bounds[name]
                line += f"  {verdict(a, b, m['bound'], m['better'])} (bound {m['bound']:.0%})"
            lines.append(line)
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    for line in compare(load(argv[0]), load(argv[1]), spec):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
