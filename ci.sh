#!/usr/bin/env bash
# CI entry point. Tiers:
#   tier1         configure + build + full ctest (the gate every change
#                 must pass) + micro-benchmark smoke
#   bench         benchmark regression gate: micro_kernels vs
#                 BENCH_kernels.json via ci/check_bench.py (>25% fails)
#                 + the transfer-overlap gate (pipeline_throughput
#                 --xfer: double-buffered staging must beat serialized
#                 by >=1.15x on modeled time)
#   tsan          ThreadSanitizer build of the queue/scheduler-heavy
#                 tests plus the streaming pipeline, the
#                 double-buffered staging equivalence matrix, the
#                 mapper executor (test_core, test_shard), the
#                 concurrent index-open checksum pass (test_rix) and
#                 the thread pool's shared parallel_for cursor
#                 (test_util)
#   asan          AddressSanitizer build of the index/filter hot paths
#                 (rank-block and scratch-reuse pointer arithmetic), the
#                 verification funnel, the SIMD differential harness
#                 and the bit-vector CIGAR traceback
#   ubsan         UndefinedBehaviorSanitizer build of the alignment
#                 kernels, funnel and SIMD differential harness
#                 (shift/overflow-dense bit-vector code)
#   simdoff       -DREPUTE_SIMD=OFF build: the portable scalar-fallback
#                 lane engine must pass the same differential harness
#                 and funnel equivalence as the vectorized build
#   serve         persistent-service smoke: `repute index build` ->
#                 `repute map --index` byte-compare, daemon round trip
#                 over the Unix socket + SIGTERM drain, and the .rix
#                 load-speedup gate (serve_bench --min-speedup 10,
#                 recorded in BENCH_serve.json)
#   shard         reference-sharding smoke: `repute index build
#                 --shards 4 --jobs 4` -> `repute map --index x.rixm`
#                 byte-compare against the monolithic index (single-end,
#                 paired, static and dynamic schedules, with and
#                 without modeled transfers), the
#                 parallel-build speedup gate (check_bench --only-shard,
#                 >=1.5x at --jobs 4 on multi-core machines, recorded in
#                 BENCH_shard.json); the shard tests run under TSan in
#                 the tsan tier
#   mixed         mixed-length + gzip smoke on generated real-shape
#                 fixtures (ci/gen_mixed_fixtures.py, cacheable keyed on
#                 the generator's own hash): CLI mapping of interleaved
#                 80/100/131 bp reads byte-compared against the
#                 per-length-split oracle, .gz input byte-identical to
#                 its plain twin (single-end, paired with one gz mate,
#                 and through the daemon), the retired --read-length
#                 flag and a misspelled option refused by name, and
#                 test_mixed under TSan
#   zliboff       -DREPUTE_ZLIB=OFF build: plain input keeps working and
#                 gzip input is rejected with a clear error instead of
#                 being misparsed
#   e2e           the end-to-end benchmark (bench/e2e, its own CMake
#                 project in build-e2e/): builds e2e_bench and the
#                 `repute` CLI and runs the e2e_smoke ctest (every
#                 workload at 5% scale, timed and traced)
#   coverage      `repute` CLI built with --coverage -O0, driven through
#                 index build / map / serve / client on the mixed-tier
#                 fixtures; ci/coverage_report.py lists the src/ files
#                 and repute:: functions that never executed (report
#                 only, no threshold; run only when named)
#   format        clang-format --dry-run --Werror over the tree
#
# Usage: ./ci.sh [--quick] [tier...] [jobs]
#   ./ci.sh                 run every tier but coverage (jobs = nproc)
#   ./ci.sh --quick         the same, trimmed bench smoke
#   ./ci.sh tier1 8         one tier, 8 jobs
#   ./ci.sh --format-check  alias for the format tier
# GitHub Actions runs the tiers as parallel matrix jobs (see
# .github/workflows/ci.yml); this script is the single source of truth
# for what each job does.

set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
TIERS=()
JOBS=""
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        --format-check) TIERS+=(format) ;;
        tier1|bench|tsan|asan|ubsan|simdoff|serve|shard|mixed|zliboff|e2e|coverage|format) TIERS+=("$arg") ;;
        ''|*[!0-9]*) echo "unknown argument: $arg" >&2; exit 2 ;;
        *) JOBS="$arg" ;;
    esac
done
[[ ${#TIERS[@]} -eq 0 ]] && TIERS=(tier1 bench tsan asan ubsan simdoff serve shard mixed zliboff e2e format)
JOBS="${JOBS:-$(nproc)}"

# ccache transparently accelerates the CI matrix (each job re-runs the
# configure); harmless when absent.
LAUNCHER=()
if command -v ccache >/dev/null 2>&1; then
    LAUNCHER=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

has_tier() {
    local tier
    for tier in "${TIERS[@]}"; do
        [[ "$tier" == "$1" ]] && return 0
    done
    return 1
}

if has_tier tier1; then
    echo "== tier 1: configure + build + ctest =="
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release "${LAUNCHER[@]}"
    cmake --build build -j "$JOBS"
    ctest --test-dir build --output-on-failure -j "$JOBS"

    echo "== micro-benchmark smoke: FM kernels, seeders, CIGAR and verification funnel =="
    # Minimal min_time: this only proves the benchmarks still run; the
    # bench tier does the regression comparison. (The installed
    # google-benchmark wants a plain double here, not a '0.01s' suffix.)
    if [[ "$QUICK" == "1" ]]; then
        MIN_TIME=0.001
        REPS=1
    else
        MIN_TIME=0.01
        REPS=3
    fi
    ./build/bench/micro_kernels --benchmark_min_time="$MIN_TIME" \
        --benchmark_repetitions="$REPS" \
        --benchmark_filter='BM_Fm|BM_Seeder|BM_Cigar' >/dev/null
    ./build/bench/micro_kernels --benchmark_min_time="$MIN_TIME" \
        --benchmark_repetitions="$REPS" \
        --benchmark_filter='BM_Verify_Myers|BM_Verify_MyersBanded|BM_Prefilter|BM_VerifyFunnel' \
        >/dev/null
fi

if has_tier bench; then
    echo "== bench gate: micro_kernels vs BENCH_kernels.json + xfer overlap =="
    if [[ ! -x build/bench/micro_kernels || ! -x build/bench/pipeline_throughput ]]; then
        cmake -B build -S . -DCMAKE_BUILD_TYPE=Release "${LAUNCHER[@]}"
        cmake --build build -j "$JOBS" --target micro_kernels pipeline_throughput
    fi
    # Even quick keeps >=2 repetitions: the gate's min-over-reps is what
    # absorbs scheduler noise on shared runners.
    if [[ "$QUICK" == "1" ]]; then
        python3 ci/check_bench.py --min-time 0.005 --repetitions 2
    else
        python3 ci/check_bench.py
    fi
fi

if has_tier tsan; then
    echo "== tier 2: ThreadSanitizer (queues, scheduler, pipeline) =="
    cmake -B build-tsan -S . -DREPUTE_SANITIZE=thread \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo "${LAUNCHER[@]}"
    cmake --build build-tsan -j "$JOBS" \
          --target test_ocl test_scheduler test_determinism test_pipeline \
          test_xfer test_shard test_core test_rix test_util
    ./build-tsan/tests/test_ocl
    ./build-tsan/tests/test_scheduler
    ./build-tsan/tests/test_determinism
    # The streaming pipeline is three thread stages around two bounded
    # queues — exactly the code TSan exists for.
    ./build-tsan/tests/test_pipeline
    # Double-buffered staging: per-direction DMA clocks and event
    # wait-lists crossing the scheduler's worker threads.
    ./build-tsan/tests/test_xfer
    # The one mapper executor, over one-shard (monolithic) and K-shard
    # plans: per-device scatter threads, the shard-build ThreadPool and
    # the gather-side merge.
    ./build-tsan/tests/test_shard
    ./build-tsan/tests/test_core
    # Index open: the section checksums of one container, or of every
    # shard of a manifest, are verified on concurrent threads.
    ./build-tsan/tests/test_rix
    # Every device launch runs through parallel_for, whose workers claim
    # work items one at a time from a shared atomic cursor.
    ./build-tsan/tests/test_util
fi

if has_tier asan; then
    echo "== tier 2: AddressSanitizer (index layout, filtration, funnel, CIGAR) =="
    cmake -B build-asan -S . -DREPUTE_SANITIZE=address \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo "${LAUNCHER[@]}"
    cmake --build build-asan -j "$JOBS" \
          --target test_index test_filter test_funnel test_myers_simd \
          test_rix test_align test_cigar
    ./build-asan/tests/test_index
    ./build-asan/tests/test_filter
    # .rix round trip + corrupt-container rejection under ASan: the
    # mmap'd spans and the bounds-checked name-table cursor are pointer
    # arithmetic over foreign bytes.
    ./build-asan/tests/test_rix
    # Funnel equivalence (layer toggles byte-identical) under ASan: the
    # prefilter's packed-word sweep and the banded scan's segment
    # pointers are exactly the code most likely to read out of bounds.
    ./build-asan/tests/test_funnel
    # Lane-batched Myers differential harness: the column-major staging
    # transpose and per-lane arena pointers under ASan.
    ./build-asan/tests/test_myers_simd
    # Bit-vector CIGAR traceback against the full-table oracle: the
    # traceback indexes the stored column deltas by row and column, and
    # the clipped windows at the reference end sit right at their edges.
    ./build-asan/tests/test_align
    ./build-asan/tests/test_cigar
fi

if has_tier ubsan; then
    echo "== tier 2: UndefinedBehaviorSanitizer (alignment kernels, funnel) =="
    cmake -B build-ubsan -S . -DREPUTE_SANITIZE=undefined \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo "${LAUNCHER[@]}"
    cmake --build build-ubsan -j "$JOBS" \
          --target test_align test_funnel test_myers_simd
    # Myers bit-vector and banded DP are shift- and overflow-dense; UBSan
    # runs them standalone (the ASan tier already pairs ASan+UBSan, this
    # catches UB that only manifests without ASan's memory layout).
    ./build-ubsan/tests/test_align
    ./build-ubsan/tests/test_funnel
    # The lane engine's vector shifts/carries under UBSan.
    ./build-ubsan/tests/test_myers_simd
fi

if has_tier simdoff; then
    echo "== scalar fallback: -DREPUTE_SIMD=OFF differential + funnel =="
    cmake -B build-simdoff -S . -DREPUTE_SIMD=OFF \
          -DCMAKE_BUILD_TYPE=Release "${LAUNCHER[@]}"
    cmake --build build-simdoff -j "$JOBS" \
          --target test_align test_funnel test_myers_simd
    ./build-simdoff/tests/test_align
    ./build-simdoff/tests/test_funnel
    # The portable Lane8 engine must be byte-identical to the scalar
    # scan too — same harness, no vector ISA.
    ./build-simdoff/tests/test_myers_simd
fi

if has_tier serve; then
    echo "== serve smoke: index build -> map --index -> daemon round trip =="
    if [[ ! -x build/src/cli/repute || ! -x build/bench/serve_bench ]]; then
        cmake -B build -S . -DCMAKE_BUILD_TYPE=Release "${LAUNCHER[@]}"
        cmake --build build -j "$JOBS" --target repute_cli serve_bench
    fi
    SMOKE="$(mktemp -d)"
    # shellcheck disable=SC2064  # expand $SMOKE now, not at exit
    trap "rm -rf '$SMOKE'" EXIT
    # Deterministic two-sequence FASTA + reads sampled from it (with a
    # sprinkle of substitutions so verification has work to do).
    python3 - "$SMOKE" <<'PY'
import random, sys
out = sys.argv[1]
rng = random.Random(20260808)
seqs = {"chrA": "".join(rng.choice("ACGT") for _ in range(24000)),
        "chrB": "".join(rng.choice("ACGT") for _ in range(16000))}
with open(out + "/ref.fa", "w") as f:
    for name, seq in seqs.items():
        f.write(">%s\n" % name)
        for i in range(0, len(seq), 70):
            f.write(seq[i:i + 70] + "\n")
with open(out + "/reads.fq", "w") as f:
    for i in range(400):
        name, seq = rng.choice(list(seqs.items()))
        start = rng.randrange(len(seq) - 100)
        read = list(seq[start:start + 100])
        for _ in range(rng.randrange(3)):
            p = rng.randrange(100)
            read[p] = rng.choice("ACGT")
        f.write("@r%d\n%s\n+\n%s\n" % (i, "".join(read), "I" * 100))
PY
    R=./build/src/cli/repute
    "$R" index build --ref "$SMOKE/ref.fa" --out "$SMOKE/ref.rix"
    "$R" map --ref "$SMOKE/ref.fa" --reads "$SMOKE/reads.fq" \
         --out "$SMOKE/direct.sam"
    "$R" map --index "$SMOKE/ref.rix" --reads "$SMOKE/reads.fq" \
         --out "$SMOKE/mapped.sam"
    cmp "$SMOKE/direct.sam" "$SMOKE/mapped.sam"
    echo "map --index output byte-identical to map --ref"

    "$R" serve --index "$SMOKE/ref.rix" --socket "$SMOKE/repute.sock" \
         >"$SMOKE/serve.log" 2>&1 &
    SERVE_PID=$!
    for _ in $(seq 1 100); do
        [[ -S "$SMOKE/repute.sock" ]] && break
        sleep 0.1
    done
    "$R" client --socket "$SMOKE/repute.sock" --reads "$SMOKE/reads.fq" \
         --out "$SMOKE/served.sam" --tenant ci
    cmp "$SMOKE/direct.sam" "$SMOKE/served.sam"
    echo "daemon round trip byte-identical"
    kill -TERM "$SERVE_PID"
    wait "$SERVE_PID"
    grep -q "drained" "$SMOKE/serve.log"
    echo "SIGTERM drain clean"

    # The acceptance gate: a prebuilt container must mmap-load at least
    # 10x faster than in-process construction, byte-identically.
    if [[ "$QUICK" == "1" ]]; then
        ./build/bench/serve_bench --quick --repeats 3 --min-speedup 10 \
            --out "$SMOKE/BENCH_serve.json"
    else
        ./build/bench/serve_bench --min-speedup 10 \
            --out "$SMOKE/BENCH_serve.json"
    fi
fi

if has_tier shard; then
    echo "== shard smoke: sharded index vs monolithic byte-compare + build-speedup gate =="
    if [[ ! -x build/src/cli/repute || ! -x build/bench/shard_bench ]]; then
        cmake -B build -S . -DCMAKE_BUILD_TYPE=Release "${LAUNCHER[@]}"
        cmake --build build -j "$JOBS" --target repute_cli shard_bench
    fi
    SHARD_TMP="$(mktemp -d)"
    # shellcheck disable=SC2064  # expand now; also sweep the serve dir
    # when both tiers ran in this invocation (one trap per process).
    trap "rm -rf '$SHARD_TMP' '${SMOKE:-/nonexistent}'" EXIT
    # Five-contig FASTA (shard planning is contig-granular, 4 shards
    # need cut points), substitution-only single reads and proper
    # FR mate pairs sampled from it.
    python3 - "$SHARD_TMP" <<'PY'
import random, sys
out = sys.argv[1]
rng = random.Random(20260809)
comp = str.maketrans("ACGT", "TGCA")
names = ["chr%d" % i for i in range(5)]
seqs = {n: "".join(rng.choice("ACGT") for _ in range(9000 + 2500 * (i % 3)))
        for i, n in enumerate(names)}
with open(out + "/ref.fa", "w") as f:
    for name in names:
        f.write(">%s\n" % name)
        s = seqs[name]
        for i in range(0, len(s), 70):
            f.write(s[i:i + 70] + "\n")

def mutate(read):
    read = list(read)
    for _ in range(rng.randrange(3)):
        p = rng.randrange(len(read))
        read[p] = rng.choice("ACGT")
    return "".join(read)

with open(out + "/reads.fq", "w") as f:
    for i in range(300):
        seq = seqs[rng.choice(names)]
        start = rng.randrange(len(seq) - 100)
        f.write("@r%d\n%s\n+\n%s\n" % (i, mutate(seq[start:start + 100]), "I" * 100))
with open(out + "/r1.fq", "w") as f1, open(out + "/r2.fq", "w") as f2:
    for i in range(150):
        seq = seqs[rng.choice(names)]
        insert = rng.randrange(250, 450)
        start = rng.randrange(len(seq) - insert)
        m1 = mutate(seq[start:start + 100])
        frag = seq[start + insert - 100:start + insert]
        m2 = mutate(frag.translate(comp)[::-1])
        f1.write("@p%d/1\n%s\n+\n%s\n" % (i, m1, "I" * 100))
        f2.write("@p%d/2\n%s\n+\n%s\n" % (i, m2, "I" * 100))
PY
    R=./build/src/cli/repute
    "$R" index build --ref "$SHARD_TMP/ref.fa" --out "$SHARD_TMP/mono.rix"
    "$R" index build --ref "$SHARD_TMP/ref.fa" --out "$SHARD_TMP/ref.rixm" \
         --shards 4 --jobs 4
    # Single-end, static schedule.
    "$R" map --index "$SHARD_TMP/mono.rix" --reads "$SHARD_TMP/reads.fq" \
         --out "$SHARD_TMP/mono.sam"
    "$R" map --index "$SHARD_TMP/ref.rixm" --reads "$SHARD_TMP/reads.fq" \
         --out "$SHARD_TMP/shard.sam"
    cmp "$SHARD_TMP/mono.sam" "$SHARD_TMP/shard.sam"
    echo "sharded single-end SAM byte-identical (static)"
    # Single-end, dynamic work-stealing over a heterogeneous trio.
    "$R" map --index "$SHARD_TMP/mono.rix" --reads "$SHARD_TMP/reads.fq" \
         --devices i7-2600,gtx590-0,gtx590-1 --schedule dynamic \
         --out "$SHARD_TMP/mono_dyn.sam"
    "$R" map --index "$SHARD_TMP/ref.rixm" --reads "$SHARD_TMP/reads.fq" \
         --devices i7-2600,gtx590-0,gtx590-1 --schedule dynamic \
         --out "$SHARD_TMP/shard_dyn.sam"
    cmp "$SHARD_TMP/mono_dyn.sam" "$SHARD_TMP/shard_dyn.sam"
    echo "sharded single-end SAM byte-identical (dynamic trio)"
    # Modeled transfers: two buffer sets per device and the shard-image
    # restage chain, through both schedules.
    "$R" map --index "$SHARD_TMP/ref.rixm" --reads "$SHARD_TMP/reads.fq" \
         --xfer-gbps 6 --out "$SHARD_TMP/shard_xfer.sam"
    cmp "$SHARD_TMP/mono.sam" "$SHARD_TMP/shard_xfer.sam"
    "$R" map --index "$SHARD_TMP/ref.rixm" --reads "$SHARD_TMP/reads.fq" \
         --devices i7-2600,gtx590-0,gtx590-1 --schedule dynamic \
         --xfer-gbps 6 --out "$SHARD_TMP/shard_dyn_xfer.sam"
    cmp "$SHARD_TMP/mono_dyn.sam" "$SHARD_TMP/shard_dyn_xfer.sam"
    echo "sharded single-end SAM byte-identical with modeled transfers"
    # Paired-end with rescue.
    "$R" map --index "$SHARD_TMP/mono.rix" --reads "$SHARD_TMP/r1.fq" \
         --reads2 "$SHARD_TMP/r2.fq" --out "$SHARD_TMP/mono_pe.sam"
    "$R" map --index "$SHARD_TMP/ref.rixm" --reads "$SHARD_TMP/r1.fq" \
         --reads2 "$SHARD_TMP/r2.fq" --out "$SHARD_TMP/shard_pe.sam"
    cmp "$SHARD_TMP/mono_pe.sam" "$SHARD_TMP/shard_pe.sam"
    echo "sharded paired-end SAM byte-identical"
    # The daemon accepts the manifest too: all shards mmap'd resident.
    "$R" serve --index "$SHARD_TMP/ref.rixm" \
         --socket "$SHARD_TMP/repute.sock" \
         >"$SHARD_TMP/serve.log" 2>&1 &
    SHARD_SERVE_PID=$!
    for _ in $(seq 1 100); do
        [[ -S "$SHARD_TMP/repute.sock" ]] && break
        sleep 0.1
    done
    "$R" client --socket "$SHARD_TMP/repute.sock" \
         --reads "$SHARD_TMP/reads.fq" --out "$SHARD_TMP/served.sam" \
         --tenant ci
    cmp "$SHARD_TMP/mono.sam" "$SHARD_TMP/served.sam"
    echo "daemon over .rixm manifest byte-identical"
    kill -TERM "$SHARD_SERVE_PID"
    wait "$SHARD_SERVE_PID"

    # The acceptance gate: sharded mapping identical to monolithic at
    # every shard count and the 4-way parallel build >=1.5x faster than
    # serial (wall clock — enforced on machines with >=2 CPUs).
    python3 ci/check_bench.py --only-shard --shard-min-build-speedup 1.5 \
        --shard-binary build/bench/shard_bench \
        --shard-out "$SHARD_TMP/BENCH_shard.json"
fi

if has_tier mixed; then
    echo "== mixed smoke: length-bucketed mapping vs per-length split + gzip twins =="
    if [[ ! -x build/src/cli/repute ]]; then
        cmake -B build -S . -DCMAKE_BUILD_TYPE=Release "${LAUNCHER[@]}"
        cmake --build build -j "$JOBS" --target repute_cli
    fi
    MIXED_TMP="$(mktemp -d)"
    # shellcheck disable=SC2064  # expand now; also sweep earlier tiers'
    # tmpdirs when they ran in this invocation (one trap per process).
    trap "rm -rf '$MIXED_TMP' '${SHARD_TMP:-/nonexistent}' '${SMOKE:-/nonexistent}'" EXIT
    # Fixture generation self-caches on the generator's hash, so CI can
    # restore $REPUTE_FIXTURE_DIR from a cache and skip this entirely.
    FIXDIR="${REPUTE_FIXTURE_DIR:-$MIXED_TMP/fixtures}"
    python3 ci/gen_mixed_fixtures.py "$FIXDIR"
    R=./build/src/cli/repute

    # Mixed-length input end to end: 80/100/131 bp reads interleaved
    # record by record, mapped in one pass.
    "$R" map --delta 3 --ref "$FIXDIR/ref.fa" --reads "$FIXDIR/mixed.fq" \
         --out "$MIXED_TMP/mixed.sam"
    # The gzip twin must be byte-identical to the plain file.
    "$R" map --delta 3 --ref "$FIXDIR/ref.fa" --reads "$FIXDIR/mixed.fq.gz" \
         --out "$MIXED_TMP/mixed_gz.sam"
    cmp "$MIXED_TMP/mixed.sam" "$MIXED_TMP/mixed_gz.sam"
    echo "gz input byte-identical to plain twin"

    # The oracle: map each length class on its own (uniform batches, no
    # bucketing in play) and re-merge the records in input order — the
    # qname encodes the global ordinal. Bucketed output must match.
    for LEN in 80 100 131; do
        "$R" map --delta 3 --ref "$FIXDIR/ref.fa" \
             --reads "$FIXDIR/mixed_len$LEN.fq" \
             --out "$MIXED_TMP/split$LEN.sam"
    done
    python3 - "$MIXED_TMP/mixed.sam" "$MIXED_TMP"/split{80,100,131}.sam <<'PY'
import sys
mixed_path, *split_paths = sys.argv[1:]

def load(path):
    header, records = [], {}
    for line in open(path):
        if line.startswith("@"):
            header.append(line)
        else:
            records.setdefault(line.split("\t", 1)[0], []).append(line)
    return "".join(header), records

headers, merged = set(), {}
for path in split_paths:
    header, records = load(path)
    headers.add(header)
    merged.update(records)
assert len(headers) == 1, "split runs disagree on the SAM header"
expected = headers.pop() + "".join(
    "".join(merged["mix.%d" % i]) for i in range(len(merged))
)
actual = open(mixed_path).read()
if actual != expected:
    sys.exit("bucketed SAM diverged from the per-length-split oracle")
print("bucketed SAM byte-identical to the per-length-split oracle")
PY

    # Paired mates with per-pair mixed lengths; the second file gzipped
    # independently of the first (compression is sniffed per stream).
    "$R" map --delta 3 --ref "$FIXDIR/ref.fa" --reads "$FIXDIR/r1.fq" \
         --reads2 "$FIXDIR/r2.fq" --out "$MIXED_TMP/pe_plain.sam"
    "$R" map --delta 3 --ref "$FIXDIR/ref.fa" --reads "$FIXDIR/r1.fq" \
         --reads2 "$FIXDIR/r2.fq.gz" --out "$MIXED_TMP/pe_gz.sam"
    cmp "$MIXED_TMP/pe_plain.sam" "$MIXED_TMP/pe_gz.sam"
    echo "paired gz mate byte-identical to plain"

    # The fixed-length mode is gone: its flag is refused by name, not
    # silently ignored.
    if "$R" map --delta 3 --ref "$FIXDIR/ref.fa" --reads "$FIXDIR/mixed.fq" \
         --read-length 100 --out "$MIXED_TMP/pinned.sam" \
         2>"$MIXED_TMP/pinned.log"; then
        echo "FAIL: --read-length was accepted" >&2
        exit 1
    fi
    grep -q -- "--read-length was removed" "$MIXED_TMP/pinned.log"
    echo "--read-length rejected by name"
    # A misspelled option is refused by name (exit 2), not ignored with
    # its default left in force.
    set +e
    "$R" map --dleta 3 --ref "$FIXDIR/ref.fa" --reads "$FIXDIR/mixed.fq" \
         --out "$MIXED_TMP/misspelled.sam" 2>"$MIXED_TMP/misspelled.log"
    MISSPELLED_STATUS=$?
    set -e
    if [[ "$MISSPELLED_STATUS" -ne 2 ]]; then
        echo "FAIL: --dleta exited $MISSPELLED_STATUS, want 2" >&2
        exit 1
    fi
    grep -q -- "unknown option --dleta" "$MIXED_TMP/misspelled.log"
    echo "misspelled --dleta rejected by name"

    # The daemon serves heterogeneous-length gz requests too: the blob
    # ships compressed and the resident session inflates it.
    "$R" index build --ref "$FIXDIR/ref.fa" --out "$MIXED_TMP/ref.rix"
    "$R" serve --index "$MIXED_TMP/ref.rix" \
         --socket "$MIXED_TMP/repute.sock" \
         >"$MIXED_TMP/serve.log" 2>&1 &
    MIXED_SERVE_PID=$!
    for _ in $(seq 1 100); do
        [[ -S "$MIXED_TMP/repute.sock" ]] && break
        sleep 0.1
    done
    "$R" client --delta 3 --socket "$MIXED_TMP/repute.sock" \
         --reads "$FIXDIR/mixed.fq.gz" --out "$MIXED_TMP/served.sam" \
         --tenant ci
    cmp "$MIXED_TMP/mixed.sam" "$MIXED_TMP/served.sam"
    echo "daemon round trip over gz mixed-length reads byte-identical"
    kill -TERM "$MIXED_SERVE_PID"
    wait "$MIXED_SERVE_PID"

    # Bucket accumulation, the reorder writer and the streaming pipeline
    # under TSan: interleaved class streams cross the map workers.
    cmake -B build-tsan -S . -DREPUTE_SANITIZE=thread \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo "${LAUNCHER[@]}"
    cmake --build build-tsan -j "$JOBS" --target test_mixed
    ./build-tsan/tests/test_mixed
fi

if has_tier zliboff; then
    echo "== zliboff: -DREPUTE_ZLIB=OFF build + graceful gz rejection =="
    cmake -B build-zliboff -S . -DREPUTE_ZLIB=OFF \
          -DCMAKE_BUILD_TYPE=Release "${LAUNCHER[@]}"
    cmake --build build-zliboff -j "$JOBS" --target repute_cli test_mixed
    # The gz-dependent tests skip themselves; the no-zlib rejection test
    # only runs in this build.
    ./build-zliboff/tests/test_mixed
    ZOFF_TMP="$(mktemp -d)"
    # shellcheck disable=SC2064  # expand now; chain earlier tmpdirs
    trap "rm -rf '$ZOFF_TMP' '${MIXED_TMP:-/nonexistent}' '${SHARD_TMP:-/nonexistent}' '${SMOKE:-/nonexistent}'" EXIT
    FIXDIR="${REPUTE_FIXTURE_DIR:-$ZOFF_TMP/fixtures}"
    python3 ci/gen_mixed_fixtures.py "$FIXDIR"
    R=./build-zliboff/src/cli/repute
    # Plain input still maps...
    "$R" map --delta 3 --ref "$FIXDIR/ref.fa" --reads "$FIXDIR/mixed.fq" \
         --out "$ZOFF_TMP/plain.sam"
    echo "plain input maps without zlib"
    # ...and gz input is refused loudly instead of misparsed.
    if "$R" map --delta 3 --ref "$FIXDIR/ref.fa" --reads "$FIXDIR/mixed.fq.gz" \
         --out "$ZOFF_TMP/gz.sam" 2>"$ZOFF_TMP/err.log"; then
        echo "FAIL: gz input was accepted by a zlib-less build" >&2
        exit 1
    fi
    grep -q "without zlib" "$ZOFF_TMP/err.log"
    echo "gz input rejected with a clear error"
fi

if has_tier e2e; then
    echo "== e2e: the end-to-end benchmark builds and its smoke test passes =="
    # bench/e2e is its own CMake project over the repository, so this is
    # the tier that notices when src/ drops an API the benchmark uses.
    cmake -S bench/e2e -B build-e2e -DCMAKE_BUILD_TYPE=Release \
          "${LAUNCHER[@]}"
    cmake --build build-e2e -j "$JOBS" --target e2e_bench
    ctest --test-dir build-e2e --output-on-failure --no-tests=error \
          -R '^e2e_smoke$'
fi

if has_tier coverage; then
    echo "== coverage: src/ code the production entry points never run =="
    cmake -B build-coverage -S . -DCMAKE_BUILD_TYPE=Debug \
          -DCMAKE_CXX_FLAGS="--coverage -O0" \
          -DCMAKE_EXE_LINKER_FLAGS="--coverage" "${LAUNCHER[@]}"
    cmake --build build-coverage -j "$JOBS" --target repute_cli
    # Counts accumulate across runs; start every report from zero.
    find build-coverage -name '*.gcda' -delete
    COV_TMP="$(mktemp -d)"
    # The daemon pid is expanded at exit, so a failed client or a
    # socket that never appears does not leave `repute serve` running.
    # shellcheck disable=SC2064  # expand now; chain earlier tmpdirs
    trap "kill \${COV_SERVE_PID:-} 2>/dev/null || true; rm -rf '$COV_TMP' '${ZOFF_TMP:-/nonexistent}' '${MIXED_TMP:-/nonexistent}' '${SHARD_TMP:-/nonexistent}' '${SMOKE:-/nonexistent}'" EXIT
    FIXDIR="${REPUTE_FIXTURE_DIR:-$COV_TMP/fixtures}"
    python3 ci/gen_mixed_fixtures.py "$FIXDIR"
    R=./build-coverage/src/cli/repute
    # --delta 3 throughout: 80 bp reads cannot host 6 k-mers of 14.
    "$R" index build --ref "$FIXDIR/ref.fa" --out "$COV_TMP/ref.rix"
    "$R" index build --ref "$FIXDIR/ref.fa" --out "$COV_TMP/ref.rixm" \
         --shards 2 --jobs 2
    "$R" map --delta 3 --ref "$FIXDIR/ref.fa" --reads "$FIXDIR/mixed.fq.gz" \
         --threads 2 --out "$COV_TMP/gz.sam"
    "$R" map --delta 3 --ref "$FIXDIR/ref.fa" --reads "$FIXDIR/mixed.fq" \
         --cigar false --out "$COV_TMP/nocigar.sam"
    "$R" map --delta 3 --index "$COV_TMP/ref.rixm" --reads "$FIXDIR/r1.fq" \
         --reads2 "$FIXDIR/r2.fq" --devices i7-2600,gtx590-0 \
         --schedule dynamic --xfer-gbps 8 --trace "$COV_TMP/trace.json" \
         --out "$COV_TMP/paired.sam" 2>/dev/null
    "$R" map --delta 3 --index "$COV_TMP/ref.rix" --reads "$FIXDIR/mixed.fq" \
         --platform system2 --devices hikey970-a73,hikey970-a53 \
         --out "$COV_TMP/hikey.sam"
    "$R" serve --index "$COV_TMP/ref.rix" --socket "$COV_TMP/repute.sock" \
         >"$COV_TMP/serve.log" 2>&1 &
    COV_SERVE_PID=$!
    for _ in $(seq 1 100); do
        [[ -S "$COV_TMP/repute.sock" ]] && break
        sleep 0.1
    done
    if [[ ! -S "$COV_TMP/repute.sock" ]]; then
        echo "repute serve never opened its socket:" >&2
        cat "$COV_TMP/serve.log" >&2
        exit 1
    fi
    "$R" client --delta 3 --socket "$COV_TMP/repute.sock" \
         --reads "$FIXDIR/mixed.fq.gz" --out "$COV_TMP/served.sam" --tenant ci
    "$R" client --delta 3 --socket "$COV_TMP/repute.sock" \
         --reads "$FIXDIR/r1.fq" --reads2 "$FIXDIR/r2.fq.gz" \
         --out "$COV_TMP/served_pe.sam" --tenant ci
    kill -TERM "$COV_SERVE_PID"
    wait "$COV_SERVE_PID"
    unset COV_SERVE_PID
    python3 ci/coverage_report.py build-coverage
fi

if has_tier format; then
    echo "== format: clang-format --dry-run --Werror =="
    if command -v clang-format >/dev/null 2>&1; then
        find src tests bench examples \
            \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
            xargs -0 clang-format --dry-run --Werror
        echo "format clean"
    else
        echo "clang-format not installed — skipping format check" >&2
    fi
fi

echo "== ci.sh: all green (${TIERS[*]}) =="
