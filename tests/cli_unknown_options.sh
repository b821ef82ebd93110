#!/bin/sh
# Every `repute` command refuses a misspelled option by name, with exit
# status 2, before it reads any file — instead of ignoring the option
# and running with its default.
#
#   sh tests/cli_unknown_options.sh PATH/TO/repute
R="$1"

check() { # want-name command-words...
    want="$1"
    shift
    out=$("$R" "$@" 2>&1)
    status=$?
    if [ "$status" -ne 2 ]; then
        echo "FAIL: repute $* exited $status, want 2: $out" >&2
        exit 1
    fi
    case "$out" in
        *"unknown option $want"*) ;;
        *) echo "FAIL: repute $* did not name $want: $out" >&2; exit 1 ;;
    esac
}

check --dleta map --ref ref.fa --reads reads.fq --dleta 3
check --shard index build --ref ref.fa --out ref.rix --shard 4
check --handler serve --index ref.rix --socket repute.sock --handler 2
check --tennant client --socket repute.sock --reads reads.fq --tennant ci
# Retired options are refused like misspelled ones.
check --no-simd map --ref ref.fa --reads reads.fq --no-simd
check --no-simd serve --index ref.rix --socket repute.sock --no-simd
echo "unknown options refused by name"
