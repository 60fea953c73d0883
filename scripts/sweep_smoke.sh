#!/usr/bin/env bash
# Crash-safety smoke for the sweep service (DESIGN.md §14), shared by
# scripts/ci.sh and the GitHub Actions workflow. Exercises, against a
# real figure bench (fig04_speedup, tiny scale):
#
#   1. warm journal rerun     -> zero simulations, byte-identical stdout
#   2. kill -9 mid-sweep      -> resume completes, byte-identical stdout
#   3. poisoned cache entry   -> detected, quarantined, re-simulated
#   4. subprocess isolation   -> BVL_SWEEP_ISOLATE=1, byte-identical
#   5. SIGINT                 -> graceful drain, resumable exit code 75
#
# Usage: scripts/sweep_smoke.sh [build-dir] [scratch-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"
scratch="${2:-$build/sweep-smoke}"
bench="$build/bench/fig04_speedup"
[ -x "$bench" ] || { echo "FAIL: $bench not built" >&2; exit 1; }

rm -rf "$scratch"
mkdir -p "$scratch"
export BVL_SCALE=tiny
export BVL_CACHE_DIR="$scratch/cache"

summary_of() { grep '^bvl-sweep-summary:' "$1" | tail -1; }

expect_in_summary() { # <stderr-file> <needle> <what>
    if ! summary_of "$1" | grep -q "$2"; then
        echo "FAIL: $3 (wanted '$2' in: $(summary_of "$1"))" >&2
        exit 1
    fi
}

echo "--- cold run (journal + cache populated)"
BVL_JOBS=4 BVL_SWEEP_DIR="$scratch/s1" \
    "$bench" > "$scratch/cold.out" 2> "$scratch/cold.err"
summary_of "$scratch/cold.err"
expect_in_summary "$scratch/cold.err" 'cache_hits=0' "cold run hit cache"

echo "--- warm journal rerun: zero simulations"
BVL_JOBS=4 BVL_SWEEP_DIR="$scratch/s1" \
    "$bench" > "$scratch/warm.out" 2> "$scratch/warm.err"
summary_of "$scratch/warm.err"
expect_in_summary "$scratch/warm.err" ' simulated=0 ' \
    "warm journal rerun re-simulated"
cmp "$scratch/cold.out" "$scratch/warm.out"

echo "--- kill -9 mid-sweep, then resume"
set +e
BVL_JOBS=1 BVL_SWEEP_DIR="$scratch/s2" BVL_CACHE_DIR= \
    "$bench" > "$scratch/killed.out" 2> /dev/null &
victim=$!
sleep 0.15
kill -9 "$victim" 2>/dev/null
wait "$victim"
killed_status=$?
set -e
if [ "$killed_status" -eq 137 ]; then
    echo "    killed mid-flight" \
         "($(wc -l < "$scratch"/s2/*.journal.jsonl) jobs journaled)"
else
    echo "    note: sweep finished before the kill landed" \
         "(status $killed_status); resume still exercises replay"
fi
BVL_JOBS=1 BVL_SWEEP_DIR="$scratch/s2" BVL_CACHE_DIR= \
    "$bench" > "$scratch/resumed.out" 2> "$scratch/resumed.err"
summary_of "$scratch/resumed.err"
cmp "$scratch/cold.out" "$scratch/resumed.out"

echo "--- poisoned cache entry: detected, quarantined, re-simulated"
entry=$(find "$BVL_CACHE_DIR" -name '*.json' | sort | head -1)
[ -n "$entry" ] || { echo "FAIL: no cache entries written" >&2; exit 1; }
truncate -s 25 "$entry"
BVL_JOBS=4 BVL_SWEEP_DIR="$scratch/s3" \
    "$bench" > "$scratch/poison.out" 2> "$scratch/poison.err"
summary_of "$scratch/poison.err"
expect_in_summary "$scratch/poison.err" 'cache_corrupt=1' \
    "corrupt cache entry not detected"
[ -e "$entry.corrupt" ] \
    || { echo "FAIL: corrupt entry not quarantined" >&2; exit 1; }
cmp "$scratch/cold.out" "$scratch/poison.out"

echo "--- subprocess isolation (BVL_SWEEP_ISOLATE=1)"
BVL_JOBS=2 BVL_SWEEP_DIR="$scratch/s4" BVL_CACHE_DIR= \
    BVL_SWEEP_ISOLATE=1 \
    "$bench" > "$scratch/iso.out" 2> "$scratch/iso.err"
summary_of "$scratch/iso.err"
cmp "$scratch/cold.out" "$scratch/iso.out"

echo "--- SIGINT: graceful drain, resumable exit code"
set +e
BVL_JOBS=1 BVL_SWEEP_DIR="$scratch/s5" BVL_CACHE_DIR= \
    "$bench" > "$scratch/int.out" 2> "$scratch/int.err" &
victim=$!
sleep 0.3
kill -INT "$victim" 2>/dev/null
wait "$victim"
int_status=$?
set -e
if [ "$int_status" -eq 75 ]; then
    expect_in_summary "$scratch/int.err" 'interrupted=1' \
        "interrupted sweep not flagged"
    BVL_JOBS=1 BVL_SWEEP_DIR="$scratch/s5" BVL_CACHE_DIR= \
        "$bench" > "$scratch/int_resumed.out" 2> /dev/null
    cmp "$scratch/cold.out" "$scratch/int_resumed.out"
    echo "    exit 75, resumed byte-identical"
elif [ "$int_status" -eq 0 ]; then
    # Fast machine: the sweep drained before the signal landed. The
    # interrupted path is still covered by tests/test_sweep_service.cc.
    echo "    note: sweep finished before SIGINT landed; skipping"
    cmp "$scratch/cold.out" "$scratch/int.out"
else
    echo "FAIL: SIGINT produced exit $int_status (want 75)" >&2
    exit 1
fi

echo "sweep_smoke.sh: all crash-safety checks passed"
