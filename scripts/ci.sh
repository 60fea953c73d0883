#!/usr/bin/env bash
# Tier-1 verification: build (failing on any compiler warning in the
# normal build) and run the full test suite normally and under
# AddressSanitizer + UBSan, check that the library revision is
# derived from the src/ tree (scripts/revision_check.sh), run the
# checker-enabled suite under plain UBSan, run the
# concurrency/determinism tests under ThreadSanitizer to check the
# parallel sweep runner and the library's re-entrancy guarantees,
# smoke the failure-forensics pipeline (deliberately fatal fault plan
# -> JSON report -> plan minimizer),
# fail on any library function no binary keeps (scripts/dead_symbols.sh),
# smoke the sweep service's crash safety (kill -9/resume, cache
# poisoning, isolation, SIGINT; scripts/sweep_smoke.sh), smoke
# checkpoint produce/restore determinism, corrupt-checkpoint quarantine,
# sampled-run determinism and the checkpoint-prefix farm (cold
# populate, warm zero-fast-forward rerun, corrupt-entry re-production,
# isolate-mode flock race; scripts/checkpoint_smoke.sh), smoke I/O
# fault injection across the persistence stack (per-site faults,
# mid-operation crashes and a seeded probabilistic soak must never
# move sweep stdout or leave temp litter; scripts/chaos_smoke.sh),
# gate the sweep journal a live sweep just wrote (scripts/check_bench.py
# --journal), smoke the V/f figures (fig09_11_vf BVL_JOBS=1 vs 4
# byte-identical, each of its 583 cells simulated once, its journal
# gated), smoke the mobile kernel tier (fig_mobile BVL_JOBS=1 vs 4
# byte-identical, its journal gated, and its simulated-time /
# access-pattern table gated against the pinned BENCH_mobile.json via
# scripts/check_bench.py --mobile), run every other figure and table
# binary (BVL_JOBS=1 vs 4 byte-identical, sweep journals gated), gate
# the sampled-simulation
# cycle-error bound against full detail (fig04_sampled +
# scripts/check_bench.py --sampled), and gate the kernel
# microbenchmarks against the pinned baseline (scripts/check_bench.py).
#
# Suites are selected with ctest labels (see tests/CMakeLists.txt):
# unit, checker, concurrency, trace, workloads.
#
# Parallelism: --jobs N or BVL_CI_JOBS=N (default: nproc). CI runners
# often have fewer cores than nproc reports usable; both knobs
# propagate to cmake --build and ctest.
#
# Usage: scripts/ci.sh [--jobs N]
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="${BVL_CI_JOBS:-$(nproc)}"
while [ $# -gt 0 ]; do
    case "$1" in
      --jobs)
        [ $# -ge 2 ] || { echo "--jobs needs a value" >&2; exit 2; }
        jobs="$2"; shift 2 ;;
      --jobs=*)
        jobs="${1#--jobs=}"; shift ;;
      *)
        echo "unknown option: $1 (usage: scripts/ci.sh [--jobs N])" >&2
        exit 2 ;;
    esac
done
case "$jobs" in
  ''|*[!0-9]*) echo "--jobs/BVL_CI_JOBS must be a number" >&2; exit 2 ;;
esac

echo "=== normal build (jobs=$jobs) ==="
cmake -B build -S . >/dev/null
# Fail on any compiler warning in what this build compiled.
cmake --build build -j "$jobs" 2>&1 | tee build/build.log
if grep -n "warning:" build/build.log; then
    echo "normal build emitted compiler warnings (above)" >&2
    exit 1
fi
ctest --test-dir build --output-on-failure -j "$jobs"

echo "=== library revision is a digest of src/ ==="
scripts/revision_check.sh build

echo "=== host-time benchmark builds against the library (hostbench/) ==="
# A Release (-O3) build of the library: it fails on any warning too,
# as the optimizer finds some the default build does not.
cmake -S hostbench -B build-hostbench >/dev/null
cmake --build build-hostbench -j "$jobs" 2>&1 | tee build-hostbench/build.log
if grep -n "warning:" build-hostbench/build.log; then
    echo "Release hostbench build emitted compiler warnings (above)" >&2
    exit 1
fi
python3 hostbench/test_metrics.py

echo "=== dead-code gate (no library function without a caller) ==="
BVL_CI_JOBS="$jobs" scripts/dead_symbols.sh build-deadsym

echo "=== parallel sweep determinism (BVL_JOBS=1 vs 4) ==="
# Separate BVL_SWEEP_DIR per run: the point is comparing two *live*
# sweeps, not a sweep against its own journal replay.
rm -rf build/sweep.j1 build/sweep.j4
BVL_SCALE=tiny BVL_JOBS=1 BVL_SWEEP_DIR=build/sweep.j1 \
    ./build/bench/fig04_speedup > build/fig04.j1
BVL_SCALE=tiny BVL_JOBS=4 BVL_SWEEP_DIR=build/sweep.j4 \
    ./build/bench/fig04_speedup > build/fig04.j4
cmp build/fig04.j1 build/fig04.j4
echo "fig04_speedup output is byte-identical across thread counts"

echo "=== journal gate (every journaled sweep cell finished ok) ==="
python3 scripts/check_bench.py \
    --journal build/sweep.j1/fig04_speedup.journal.jsonl

echo "=== V/f figures (fig09_11_vf, BVL_JOBS=1 vs 4, each cell once) ==="
# Figs 9, 10 and 11 print from one grid of 583 cells; a cold run must
# simulate each of them exactly once.
rm -rf build/vf.j1 build/vf.j4
BVL_SCALE=tiny BVL_JOBS=1 BVL_SWEEP_DIR=build/vf.j1 \
    ./build/bench/fig09_11_vf > build/fig09_11_vf.j1 2> build/fig09_11_vf.err
BVL_SCALE=tiny BVL_JOBS=4 BVL_SWEEP_DIR=build/vf.j4 \
    ./build/bench/fig09_11_vf > build/fig09_11_vf.j4
cmp build/fig09_11_vf.j1 build/fig09_11_vf.j4
grep -q 'bvl-sweep-summary: submitted=583 simulated=583 ' \
    build/fig09_11_vf.err || {
    cat build/fig09_11_vf.err
    echo "FAIL: fig09_11_vf did not simulate its 583 cells once each"
    exit 1
}
python3 scripts/check_bench.py \
    --journal build/vf.j1/fig09_11_vf.journal.jsonl
echo "fig09_11_vf output is byte-identical across thread counts"

echo "=== mobile tier smoke (fig_mobile, BVL_JOBS=1 vs 4 + gates) ==="
rm -rf build/mobile.j1 build/mobile.j4
BVL_SCALE=tiny BVL_JOBS=1 BVL_SWEEP_DIR=build/mobile.j1 \
    BVL_MOBILE_OUT=build/mobile.json \
    ./build/bench/fig_mobile > build/fig_mobile.j1
BVL_SCALE=tiny BVL_JOBS=4 BVL_SWEEP_DIR=build/mobile.j4 \
    ./build/bench/fig_mobile > build/fig_mobile.j4
cmp build/fig_mobile.j1 build/fig_mobile.j4
echo "fig_mobile output is byte-identical across thread counts"
python3 scripts/check_bench.py \
    --journal build/mobile.j1/fig_mobile.journal.jsonl
# Simulated time and VMU access-pattern counts are machine-independent,
# so the default tight tolerance applies even on CI.
python3 scripts/check_bench.py --mobile build/mobile.json

echo "=== other figure binaries (BVL_JOBS=1 vs 4, journals gated) ==="
# Every figure and table binary runs somewhere in CI; these are the
# ones no leg above covers. The first three sweep, so their journals
# are gated too.
for fig in fig07_breakdown fig08_buffering ablation_engine \
           table06_area table_configs; do
    rm -rf "build/$fig.j1" "build/$fig.j4"
    BVL_SCALE=tiny BVL_JOBS=1 BVL_SWEEP_DIR="build/$fig.j1" \
        "./build/bench/$fig" > "build/$fig.out.j1"
    BVL_SCALE=tiny BVL_JOBS=4 BVL_SWEEP_DIR="build/$fig.j4" \
        "./build/bench/$fig" > "build/$fig.out.j4"
    cmp "build/$fig.out.j1" "build/$fig.out.j4"
done
for fig in fig07_breakdown fig08_buffering ablation_engine; do
    python3 scripts/check_bench.py \
        --journal "build/$fig.j1/$fig.journal.jsonl"
done
echo "figure binaries are byte-identical across thread counts"

echo "=== armed-trace determinism (BVL_TRACE_DIR, BVL_JOBS=1 vs 4) ==="
rm -rf build/traces.j1 build/traces.j4 build/sweep.tj1 build/sweep.tj4
mkdir -p build/traces.j1 build/traces.j4
BVL_SCALE=tiny BVL_JOBS=1 BVL_TRACE_DIR=build/traces.j1 \
    BVL_SWEEP_DIR=build/sweep.tj1 \
    ./build/bench/fig04_speedup > build/fig04.traced.j1
BVL_SCALE=tiny BVL_JOBS=4 BVL_TRACE_DIR=build/traces.j4 \
    BVL_SWEEP_DIR=build/sweep.tj4 \
    ./build/bench/fig04_speedup > build/fig04.traced.j4
cmp build/fig04.j1 build/fig04.traced.j1   # tracing never perturbs
diff <(cd build/traces.j1 && md5sum *.json) \
     <(cd build/traces.j4 && md5sum *.json)
python3 scripts/pipeview.py \
    "$(ls build/traces.j1/*_1b-4VL_saxpy.json | head -1)" \
    --track vcu --limit 5 >/dev/null
echo "traces are byte-identical across thread counts"

echo "=== sweep-service crash safety (kill/resume, cache poisoning) ==="
scripts/sweep_smoke.sh build build/sweep-smoke

echo "=== checkpoint produce/restore + farm + sampled determinism smoke ==="
scripts/checkpoint_smoke.sh build build/ckpt-smoke

echo "=== I/O chaos smoke (fault injection across the persistence stack) ==="
scripts/chaos_smoke.sh build build/chaos-smoke

echo "=== sampled-accuracy gate (fig04 sampled vs full detail) ==="
# Cycle error is machine-independent, so the 3% bound holds on any
# host; wall-clock speedup is reported but never gated.
BVL_SCALE=medium BVL_SAMPLED_OUT=build/sampled.json \
    ./build/bench/fig04_sampled | tee build/fig04_sampled.out
python3 scripts/check_bench.py --sampled build/sampled.json

echo "=== kernel microbenchmark gate (Release) ==="
cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-bench -j "$jobs" --target microbench_sim >/dev/null
python3 scripts/check_bench.py --self-test
./build-bench/bench/microbench_sim \
    --benchmark_filter="$(python3 scripts/check_bench.py --print-filter)" \
    --benchmark_min_time=0.1 \
    --benchmark_out=build-bench/microbench_ci.json \
    --benchmark_out_format=json
python3 scripts/check_bench.py \
    --results build-bench/microbench_ci.json

echo "=== forensics smoke (fatal plan -> report -> minimizer) ==="
report=build/forensics_smoke.json
rm -f "$report"
./build/examples/example_minimize_fault_plan "$report" \
    | tee build/forensics_smoke.log
test -s "$report" || { echo "FAIL: no failure report at $report"; exit 1; }
minimal=$(sed -n 's/^minimal injections: //p' build/forensics_smoke.log)
if [ -z "$minimal" ] || [ "$minimal" -gt 2 ]; then
    echo "FAIL: minimizer did not converge (minimal='$minimal')"
    exit 1
fi
grep -q '^one-minimal: yes' build/forensics_smoke.log \
    || { echo "FAIL: minimized plan is not 1-minimal"; exit 1; }
echo "forensics report written and plan minimized to $minimal injection(s)"

echo "=== sanitized build (ASan + UBSan) ==="
cmake -B build-asan -S . -DBVL_SANITIZE=address >/dev/null
cmake --build build-asan -j "$jobs"
ctest --test-dir build-asan --output-on-failure -j "$jobs"

echo "=== undefined-behavior build (UBSan, checker + trace + workloads) ==="
# The workloads label rides along here: the mobile tier's int8/int16
# fixed-point arithmetic is exactly where signed-overflow or shift UB
# would hide.
cmake -B build-ubsan -S . -DBVL_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j "$jobs"
ctest --test-dir build-ubsan --output-on-failure -j "$jobs" \
      -L 'checker|trace|workloads'

echo "=== thread-sanitized build (TSan, concurrency tests) ==="
cmake -B build-tsan -S . -DBVL_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$jobs"
ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
      -L concurrency

echo "=== ci.sh: all checks passed ==="
