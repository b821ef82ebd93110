#!/usr/bin/env bash
# The end-to-end benchmark: one command that builds, generates inputs,
# runs the workloads, checks their output and prints every metric.
#
#   bench/e2e/run.sh [--seed S] [--workload NAME...] [--seconds T]
#                    [--trace [0|1]] [--repeat N] [--scale X]
#                    [--binary-a PATH --binary-b PATH] [--out FILE]
#   bench/e2e/run.sh compare PARENT.json CHANGE.json
#
# Runs from the repository root and writes only under build-e2e/. The
# last line of stdout is a JSON summary; --out (default
# build-e2e/out/results.json) gets the full result with host context.
# See bench/e2e/README.md for the workloads and metrics.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"

if [[ "${1:-}" == "compare" ]]; then
    shift
    exec python3 "$here/compare.py" "$@"
fi

args=()
workloads=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --workload)
            [[ $# -ge 2 ]] || { echo "run.sh: --workload needs a name" >&2; exit 2; }
            shift
            # One or more names, until the next option.
            while [[ $# -gt 0 && "$1" != --* ]]; do
                workloads+="${workloads:+,}$1"
                shift
            done
            ;;
        --trace)
            if [[ $# -ge 2 && "$2" =~ ^[01]$ ]]; then
                args+=(--trace "$2")
                shift 2
            else
                args+=(--trace 1)
                shift
            fi
            ;;
        --seed|--seconds|--repeat|--scale|--binary-a|--binary-b|--out)
            [[ $# -ge 2 ]] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
            args+=("$1" "$2")
            shift 2
            ;;
        *)
            echo "run.sh: unknown argument: $1" >&2
            exit 2
            ;;
    esac
done
[[ -n "$workloads" ]] && args+=(--workload "$workloads")

# Build quietly: stdout is reserved for the results.
build=build-e2e
mkdir -p "$build"
if [[ ! -f "$build/Makefile" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release \
        >"$build/configure.log" 2>&1 ||
        { echo "run.sh: configure failed, see $build/configure.log" >&2; exit 1; }
fi
cmake --build "$build" --target e2e_bench -j "$(nproc)" >"$build/build.log" 2>&1 ||
    { echo "run.sh: build failed, see $build/build.log" >&2; exit 1; }

git_sha="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$build/e2e_bench" run --git "$git_sha" "${args[@]}"
