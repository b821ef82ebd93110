#!/usr/bin/env python3
"""List the src/ code a --coverage build never executed.

Usage: coverage_report.py BUILD_DIR

Runs plain `gcov` (JSON intermediate format, demangled names) over
every .gcno object note under BUILD_DIR and merges the counts across
translation units, so an inline function counts as executed when any
unit ran it. Objects that were compiled but never linked have no .gcda
file; gcov reports them as all-zero, which is exactly the point: code
nothing links is code nothing uses.

Prints two lists:
  * src/ files with no executed line at all;
  * repute:: functions that never executed, in the remaining files.

Report only: the exit status is 0 whatever the numbers are.
"""

import collections
import json
import os
import subprocess
import sys


def gcov_units(build_dir):
    notes = []
    for root, _, files in os.walk(build_dir):
        notes += [os.path.join(root, f) for f in files if f.endswith(".gcno")]
    for note in sorted(notes):
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--demangled-names",
             "--object-directory", os.path.dirname(note), note],
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(note)).stdout
        for line in out.splitlines():
            if line.strip():
                yield json.loads(line)


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    build_dir = os.path.abspath(sys.argv[1])
    src_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
    src_dir = os.path.realpath(src_dir) + os.sep

    line_hits = collections.Counter()  # file -> executed line count
    line_total = collections.Counter()  # file -> instrumented lines
    func_hits = collections.Counter()  # (file, line, name) -> count
    for unit in gcov_units(build_dir):
        for entry in unit.get("files", []):
            path = os.path.realpath(
                os.path.join(unit.get("current_working_directory", ""),
                             entry["file"]))
            if not path.startswith(src_dir):
                continue
            rel = "src/" + path[len(src_dir):]
            lines = entry.get("lines", [])
            line_total[rel] += len(lines)
            line_hits[rel] += sum(1 for ln in lines if ln["count"] > 0)
            for fn in entry.get("functions", []):
                name = fn.get("demangled_name", fn["name"])
                if name.startswith("repute::"):
                    key = (rel, fn["start_line"], name)
                    func_hits[key] += fn["execution_count"]

    seen_files = [f for f, n in line_total.items() if n > 0]
    dead_files = sorted(f for f in seen_files if line_hits[f] == 0)
    dead_funcs = sorted(k for k, n in func_hits.items()
                        if n == 0 and k[0] not in dead_files)
    print("coverage: %d src/ file(s) instrumented, %d never executed; "
          "%d repute:: function(s) never executed in the rest"
          % (len(seen_files), len(dead_files), len(dead_funcs)))
    print("\nsrc/ files never executed:")
    for f in dead_files:
        print("  " + f)
    print("\nrepute:: functions never executed:")
    for rel, line, name in dead_funcs:
        print("  %s:%d  %s" % (rel, line, name))


if __name__ == "__main__":
    main()
