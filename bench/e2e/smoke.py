#!/usr/bin/env python3
"""e2e_smoke: every workload, timed and traced, at 5% scale.

Usage (ctest runs it from the repository root):
    smoke.py path/to/e2e_bench

Asserts that both runs pass their output checks, that every metric
BENCHMARK.json names is printed for every workload (end-to-end metrics
by the timed run, per-layer metrics by the traced run), that the traced
run leaves at most 10% of its wall time outside the layer spans, and
that the whole test stays under 60 seconds.
"""

import json
import subprocess
import sys
import time

MAX_SECONDS = 60.0
MAX_RESIDUAL = 0.10


def run(bench, trace):
    proc = subprocess.run(
        [bench, "run", "--seed", "1", "--scale", "0.05", "--seconds", "1",
         "--trace", str(trace), "--out", "build-e2e/out/smoke-%d.json" % trace],
        capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit("e2e_bench --trace %d exited with %d" % (trace, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv):
    bench = argv[1]
    with open("BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    start = time.monotonic()
    failures = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        summary = run(bench, trace)
        if not summary["correct"] or summary["failed"] != 0:
            failures.append("trace=%d run failed its output checks" % trace)
        for workload in workloads:
            for metric in benchmark[key]:
                name = "%s.%s" % (workload, metric["name"])
                if name not in summary["metrics"]:
                    failures.append("%s not printed" % name)
        if trace:
            for workload in workloads:
                residual = summary["metrics"]["%s.trace.residual_frac" % workload]
                if residual["value"] > MAX_RESIDUAL:
                    failures.append("%s: trace residual %.3f > %.2f" % (
                        workload, residual["value"], MAX_RESIDUAL))
    elapsed = time.monotonic() - start
    if elapsed > MAX_SECONDS:
        failures.append("smoke took %.0f s (limit %.0f s)" % (elapsed, MAX_SECONDS))
    for failure in failures:
        print("FAIL:", failure)
    print("e2e_smoke: %s in %.1f s" % ("FAILED" if failures else "passed", elapsed))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
