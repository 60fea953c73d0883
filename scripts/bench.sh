#!/usr/bin/env bash
# Simulation-kernel benchmark harness.
#
# Builds the benchmarks in a dedicated Release tree (build-bench), runs
# the kernel microbenchmarks plus a timed fig04 sweep, and writes the
# numbers to a JSON document. Run it before and after touching the hot
# simulation loops (event queue, Clocked tick path, stat counters,
# cache access path) and compare the two files.
#
# By default the measurements land in build-bench/BENCH_kernel.json
# and build-bench/BENCH_mobile.json so a casual run never disturbs the
# pinned baselines that scripts/check_bench.py gates against. After an
# intentional perf or timing-model change, refresh the pins with:
#
#   scripts/bench.sh --update     # rewrites BENCH_kernel.json
#                                 # and BENCH_mobile.json
#
# Usage: scripts/bench.sh [--update | output.json]
set -euo pipefail

cd "$(dirname "$0")/.."
out=build-bench/BENCH_kernel.json
mobile_out=build-bench/BENCH_mobile.json
if [ "${1:-}" = "--update" ]; then
    out=BENCH_kernel.json
    mobile_out=BENCH_mobile.json
elif [ -n "${1:-}" ]; then
    out="$1"
fi
jobs=$(nproc)

echo "=== building benchmarks (Release) ==="
cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-bench -j "$jobs" \
      --target microbench_sim fig04_speedup fig_mobile >/dev/null

echo "=== kernel microbenchmarks ==="
micro_json=build-bench/microbench.json
./build-bench/bench/microbench_sim \
    --benchmark_filter="$(python3 scripts/check_bench.py --print-filter)" \
    --benchmark_min_time=0.5 \
    --benchmark_out="$micro_json" --benchmark_out_format=json

echo "=== fig04 wall clock (tiny scale, single-threaded) ==="
fig04_start=$(date +%s.%N)
BVL_SCALE=tiny BVL_JOBS=1 ./build-bench/bench/fig04_speedup \
    > build-bench/fig04.out
fig04_end=$(date +%s.%N)
fig04_s=$(python3 -c "print(f'{$fig04_end - $fig04_start:.3f}')")
echo "fig04_speedup: ${fig04_s}s"

echo "=== mobile tier (tiny scale, single-threaded) ==="
# Simulated time and VMU pattern counts are machine-independent, so
# this baseline is tight: check_bench.py --mobile flags any timing-
# model change and any kernel that lost an access-pattern path.
BVL_SCALE=tiny BVL_JOBS=1 BVL_MOBILE_OUT="$mobile_out" \
    BVL_SWEEP_DIR=build-bench/.bvl-sweep-mobile \
    ./build-bench/bench/fig_mobile > build-bench/fig_mobile.out
echo "wrote $mobile_out"

python3 - "$micro_json" "$out" "$fig04_s" <<'EOF'
import json, os, subprocess, sys

micro_path, out_path, fig04_s = sys.argv[1], sys.argv[2], sys.argv[3]
with open(micro_path) as f:
    data = json.load(f)

# A hand-recorded "baseline" block (numbers from an older revision)
# survives regeneration so the comparison stays in the file.
baseline = None
if os.path.exists(out_path):
    try:
        with open(out_path) as f:
            baseline = json.load(f).get("baseline")
    except (OSError, ValueError):
        pass

# Fields Google Benchmark writes for every run; any other numeric key
# is a user counter (ticks/s, simCycles/s, insts/s, ...) and is kept.
GBENCH_FIELDS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads",
    "iterations", "real_time", "cpu_time", "time_unit",
    "aggregate_name", "aggregate_unit", "label", "error_occurred",
    "error_message",
}

bench = {}
for b in data.get("benchmarks", []):
    if b.get("run_type", "iteration") != "iteration":
        continue
    entry = {
        "time_ns": round(b["real_time"], 3),
        "cpu_ns": round(b["cpu_time"], 3),
    }
    for k, v in b.items():
        if k not in GBENCH_FIELDS and isinstance(v, (int, float)):
            entry[k] = round(v, 1)
    bench[b["name"]] = entry

git_rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True).stdout.strip()

result = {
    "revision": git_rev or "unknown",
    "build_type": "Release",
    "context": {k: data["context"][k]
                for k in ("num_cpus", "mhz_per_cpu")
                if k in data.get("context", {})},
    "microbenchmarks": bench,
    "fig04_tiny_j1_wall_s": float(fig04_s),
}
if baseline is not None:
    result["baseline"] = baseline
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}")
EOF
