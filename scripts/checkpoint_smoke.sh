#!/usr/bin/env bash
# Checkpoint + sampled-simulation smoke (DESIGN.md §15), shared by
# scripts/ci.sh and the GitHub Actions workflow. Exercises, against
# the example_run_workload driver and a live sweep:
#
#   1. fresh file (--checkpoint --ff)  -> prefix produced and published,
#                                         run finishes and says so
#   2. restore only (--checkpoint)     -> says it restored; stdout
#                                         byte-identical to run 1
#   3. corrupt file, restore only      -> run fails, file left untouched
#   4. corrupt file, with --ff         -> quarantined as *.corrupt,
#                                         produced and published again;
#                                         stdout still byte-identical
#   5. sampled run (--sample) twice    -> byte-identical (determinism)
#   6. produce/restore mid-sweep       -> checkpoint runs concurrent with
#                                         a sweep-service sweep; neither
#                                         perturbs the other
#
# and, against the bench/sweep_farm grid, the checkpoint-prefix farm
# (DESIGN.md §16):
#
#   7. cold populate                 -> one production per unique prefix,
#                                       stdout identical to the no-farm run
#   8. warm rerun                    -> zero productions, all hits,
#                                       stdout still identical
#   9. corrupt farm entry            -> quarantined as *.corrupt,
#                                       re-produced, stdout unchanged
#  10. isolate-mode race             -> forked workers contend for the
#                                       same entries via flock; stdout
#                                       unchanged
#
# Usage: scripts/checkpoint_smoke.sh [build-dir] [scratch-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"
scratch="${2:-$build/ckpt-smoke}"
run="$build/examples/example_run_workload"
sweep="$build/bench/fig04_speedup"
[ -x "$run" ] || { echo "FAIL: $run not built" >&2; exit 1; }
[ -x "$sweep" ] || { echo "FAIL: $sweep not built" >&2; exit 1; }

rm -rf "$scratch"
mkdir -p "$scratch"
ckpt="$scratch/saxpy.bvl"
args=(--workload saxpy --design 1b-4VL --scale small)
# Flip payload bits of checkpoint $1 so its digest cannot match.
flip_last_byte() {
    python3 -c 'import sys; d = bytearray(open(sys.argv[1], "rb").read())
d[-1] ^= 0xFF; open(sys.argv[1], "wb").write(d)' "$1"
}

echo "--- fresh checkpoint: fast-forward 2000 insts, publish, finish"
"$run" "${args[@]}" --checkpoint "$ckpt" --ff 2000 > "$scratch/save.out" \
    2> "$scratch/save.err"
cp "$ckpt" "$scratch/fresh.bvl"
grep -q '^verified  yes' "$scratch/save.out" \
    || { echo "FAIL: producing run did not verify" >&2; exit 1; }
grep -q 'checkpoint: produced prefix' "$scratch/save.err" \
    || { echo "FAIL: producing run did not say it produced" >&2; exit 1; }

echo "--- restore only: byte-identical to the producing run"
"$run" "${args[@]}" --checkpoint "$ckpt" > "$scratch/restore.out" \
    2> "$scratch/restore.err"
cmp "$scratch/save.out" "$scratch/restore.out"
grep -q 'checkpoint: restored prefix' "$scratch/restore.err" \
    || { echo "FAIL: restoring run did not say it restored" >&2; exit 1; }

echo "--- corrupt checkpoint, restore only: run fails, file untouched"
flip_last_byte "$ckpt"
cp "$ckpt" "$scratch/corrupt.bvl"
! "$run" "${args[@]}" --checkpoint "$ckpt" > "$scratch/strict.out" \
    || { echo "FAIL: restore-only run accepted a corrupt file" >&2; exit 1; }
grep -q 'cannot restore checkpoint' "$scratch/strict.out" \
    || { echo "FAIL: failed restore not reported" >&2; exit 1; }
cmp "$ckpt" "$scratch/corrupt.bvl"

echo "--- corrupt checkpoint with --ff: quarantined, published again"
"$run" "${args[@]}" --checkpoint "$ckpt" --ff 2000 \
    > "$scratch/poison.out" 2> "$scratch/poison.err"
cmp "$ckpt.corrupt" "$scratch/corrupt.bvl"
grep -q 'quarantined' "$scratch/poison.err" \
    || { echo "FAIL: no quarantine warning on stderr" >&2; exit 1; }
cmp "$scratch/save.out" "$scratch/poison.out"
cmp "$ckpt" "$scratch/fresh.bvl"

echo "--- sampled run: identical stdout across reruns"
"$run" "${args[@]}" --sample 2000:400:500:4 > "$scratch/sampled1.out"
"$run" "${args[@]}" --sample 2000:400:500:4 > "$scratch/sampled2.out"
cmp "$scratch/sampled1.out" "$scratch/sampled2.out"
grep -q '^verified  yes' "$scratch/sampled1.out" \
    || { echo "FAIL: sampled run did not verify" >&2; exit 1; }

echo "--- produce/restore mid-sweep under the sweep service"
BVL_SCALE=tiny BVL_JOBS=4 BVL_SWEEP_DIR="$scratch/sweep.bg" \
    "$sweep" > "$scratch/sweep.bg.out" 2> /dev/null &
bg=$!
mid="$scratch/mid.bvl"
"$run" "${args[@]}" --checkpoint "$mid" --ff 2000 > "$scratch/mid_save.out"
"$run" "${args[@]}" --checkpoint "$mid" > "$scratch/mid_restore.out"
cmp "$scratch/save.out" "$scratch/mid_save.out"      # vs solo producing run
cmp "$scratch/mid_save.out" "$scratch/mid_restore.out"
wait "$bg"
BVL_SCALE=tiny BVL_JOBS=4 BVL_SWEEP_DIR="$scratch/sweep.solo" \
    "$sweep" > "$scratch/sweep.solo.out" 2> /dev/null
cmp "$scratch/sweep.bg.out" "$scratch/sweep.solo.out"

sfarm="$build/bench/sweep_farm"
[ -x "$sfarm" ] || { echo "FAIL: $sfarm not built" >&2; exit 1; }
farm="$scratch/farm"
# The journal would short-circuit reruns before the farm is even
# consulted; this leg measures the farm, so journaling stays off.
fenv=(env BVL_SCALE=tiny BVL_SWEEP_JOURNAL=0 BVL_CKPT_FARM=1
      BVL_CKPT_DIR="$farm")

echo "--- farm cold populate: one production per unique prefix"
BVL_SCALE=tiny BVL_SWEEP_JOURNAL=0 "$sfarm" \
    > "$scratch/farm_none.out" 2> /dev/null
"${fenv[@]}" "$sfarm" > "$scratch/farm_cold.out" 2> "$scratch/farm_cold.err"
cmp "$scratch/farm_none.out" "$scratch/farm_cold.out"
grep -q 'farm_produced=3' "$scratch/farm_cold.err" \
    || { echo "FAIL: cold farm run did not produce 3 prefixes" >&2
         cat "$scratch/farm_cold.err" >&2; exit 1; }
entries=$(find "$farm" -name '*.bvl' | wc -l)
[ "$entries" -eq 3 ] \
    || { echo "FAIL: expected 3 farm entries, found $entries" >&2; exit 1; }

echo "--- farm warm rerun: zero fast-forwards, stdout unchanged"
"${fenv[@]}" "$sfarm" > "$scratch/farm_warm.out" 2> "$scratch/farm_warm.err"
cmp "$scratch/farm_none.out" "$scratch/farm_warm.out"
grep -q 'farm_produced=0' "$scratch/farm_warm.err" \
    || { echo "FAIL: warm farm rerun re-produced a prefix" >&2
         cat "$scratch/farm_warm.err" >&2; exit 1; }
grep -q 'farm_hits=7' "$scratch/farm_warm.err" \
    || { echo "FAIL: warm farm rerun did not restore all 7 cells" >&2
         cat "$scratch/farm_warm.err" >&2; exit 1; }

echo "--- corrupt farm entry: quarantined, re-produced, stdout unchanged"
victim=$(find "$farm" -name '*.bvl' | sort | head -n 1)
flip_last_byte "$victim"
"${fenv[@]}" "$sfarm" > "$scratch/farm_poison.out" 2> "$scratch/farm_poison.err"
cmp "$scratch/farm_none.out" "$scratch/farm_poison.out"
[ -e "$victim.corrupt" ] \
    || { echo "FAIL: corrupt farm entry not quarantined" >&2; exit 1; }
[ -e "$victim" ] \
    || { echo "FAIL: corrupt farm entry not re-produced" >&2; exit 1; }
grep -q 'farm_corrupt=1' "$scratch/farm_poison.err" \
    || { echo "FAIL: corruption not counted in the sweep summary" >&2
         cat "$scratch/farm_poison.err" >&2; exit 1; }

echo "--- farm race under subprocess isolation (flock across workers)"
rm -rf "$farm"   # cold again: every forked worker misses and contends
"${fenv[@]}" BVL_SWEEP_ISOLATE=1 BVL_JOBS=4 "$sfarm" \
    > "$scratch/farm_race.out" 2> /dev/null
cmp "$scratch/farm_none.out" "$scratch/farm_race.out"
entries=$(find "$farm" -name '*.bvl' | wc -l)
[ "$entries" -eq 3 ] \
    || { echo "FAIL: isolate race left $entries entries, expected 3" >&2
         exit 1; }

echo "checkpoint_smoke.sh: all checkpoint/sampling/farm checks passed"
