#!/usr/bin/env python3
"""Compares two sets of benchmark runs, one row per (workload, metric).

    python3 benchmark/compare.py A.jsonl B.jsonl

A and B are files written by `benchmark/run.sh --out FILE` (one JSON line per
run): A the parent commit's runs, B the change's, made with the same
--seconds. Only untraced runs count. For every end-to-end metric of
BENCHMARK.json the script prints each side's median, quartiles and run
count, and a verdict against the metric's bound:

  worse       B's median is worse than A's by more than the bound.
  better      Every run of B beats every run of A; or, with both spreads
              within the bound, B beats A in at least 9 of every 10 runs
              paired in file order and B's median beats A's by more than
              A's quartile spread.
  unresolved  Either side's quartile spread (q3 - q1, as a share of its
              median) exceeds the bound.
  same        Otherwise.

The exit status is 1 when any row is worse or unresolved, or when any run
failed its output checks.
"""

import json
import statistics
import sys
from pathlib import Path


def load_runs(path):
    runs = {}
    failed = 0
    with open(path) as lines:
        for line in lines:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            result = record["result"]
            if not result["correct"]:
                failed += 1
            runs.setdefault(record["workload"], []).append(result["metrics"])
    return runs, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, bound, lower_is_better):
    """Verdict of B against A; a and b are lists of run values."""
    sign = 1.0 if lower_is_better else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    a_spread = (a_q3 - a_q1) / a_med if a_med else 0.0
    b_spread = (b_q3 - b_q1) / b_med if b_med else 0.0
    # Positive when B is worse, as a share of A's median.
    worse_by = sign * (b_med - a_med) / a_med if a_med else 0.0
    if worse_by > bound:
        return "worse"
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "better"
    if max(a_spread, b_spread) > bound:
        return "unresolved"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > a_spread:
        return "better"
    return "same"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((Path(__file__).resolve().parent.parent /
                       "BENCHMARK.json").read_text())
    a_runs, a_failed = load_runs(argv[1])
    b_runs, b_failed = load_runs(argv[2])

    header = ("workload", "metric", "A median [q1, q3] n",
              "B median [q1, q3] n", "change", "verdict")
    rows = []
    bad = a_failed + b_failed > 0
    for workload in sorted(set(a_runs) | set(b_runs)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run[name]["value"] for run in a_runs.get(workload, [])
                 if name in run]
            b = [run[name]["value"] for run in b_runs.get(workload, [])
                 if name in run]
            if not a or not b:
                rows.append((workload, name, "-", "-", "-", "missing"))
                bad = True
                continue
            cells = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] {len(values)}")
            change = (statistics.median(b) - statistics.median(a)) / \
                statistics.median(a) if statistics.median(a) else 0.0
            result = verdict(a, b, metric["bound"],
                             metric["better"] == "lower")
            bad = bad or result in ("worse", "unresolved")
            rows.append((workload, f"{name} ({metric['unit']})", *cells,
                         f"{change:+.2%}", result))

    widths = [max(len(str(row[i])) for row in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    if a_failed or b_failed:
        print(f"failed runs: A {a_failed}, B {b_failed}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
