#!/usr/bin/env python3
"""Compare two sets of benchmark runs: bench/e2e/run.sh compare A.json B.json

A.json holds the parent's runs and B.json the change's, as written by
`run.sh --repeat N --out FILE` (or, for one build against another, the
FILE.a.json / FILE.b.json pair that --binary-a/--binary-b writes). Runs
pair up by their repeat index. For every end-to-end metric listed in
BENCHMARK.json and every workload, the verdict is one of:

  gain        at least 10 pairs ran, the change wins at least nine tenths
              of them (ties count for neither) and the medians differ by
              more than the parent's interquartile range
  regression  the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  either side's spread (IQR / median) exceeds the bound,
              and not every change run beats every parent run
  no change   none of the above

Exits 1 when any pair of (metric, workload) regressed, else 0.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")
MIN_PAIRS = 10


def load_runs(path):
    """{workload: {metric: [value by repeat]}}"""
    with open(path) as fh:
        result = json.load(fh)
    runs = {}
    for run in sorted(result["runs"], key=lambda r: r["repeat"]):
        per_metric = runs.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return runs


def spread(values):
    """(q1, median, q3) and IQR / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return values[0], med, values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / abs(med) if med else 0.0


def verdict(parent, change, lower_is_better, bound):
    def better(c, p):
        return c < p if lower_is_better else c > p

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    q1, med_p, q3, spread_p = spread(parent)
    _, med_c, _, spread_c = spread(change)
    worse = (med_c - med_p) if lower_is_better else (med_p - med_c)
    worse_frac = worse / abs(med_p) if med_p else 0.0
    all_better = all(better(c, p) for c in change for p in parent)

    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and -worse > (q3 - q1):
        return "gain", worse_frac
    if worse_frac > bound:
        return "regression", worse_frac
    if max(spread_p, spread_c) > bound and not all_better:
        return "unresolved", worse_frac
    return "no change", worse_frac


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load_runs(argv[1]), load_runs(argv[2])

    regressed = False
    header = "%-20s %-16s %14s %14s %8s %7s %6s  %s"
    print(header % ("workload", "metric", "parent median", "change median",
                    "worse", "bound", "wins", "verdict"))
    for workload in sorted(set(parent) & set(change)):
        for metric in metrics:
            name = metric["name"]
            p = parent[workload].get(name)
            c = change[workload].get(name)
            if not p or not c:
                continue
            lower = metric["better"] == "lower"
            result, worse = verdict(p, c, lower, metric["bound"])
            regressed = regressed or result == "regression"
            wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
            print(header % (workload, name, "%.6g" % statistics.median(p),
                            "%.6g" % statistics.median(c), "%+.1f%%" % (100 * worse),
                            "%.0f%%" % (100 * metric["bound"]),
                            "%d/%d" % (wins, min(len(p), len(c))), result))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
