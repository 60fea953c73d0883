#!/usr/bin/env python3
"""Host-time benchmark of the bvl simulator, as BENCHMARK.json names it.

Run from the repository root:

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 hostbench/run.py --repin
    python3 hostbench/test_metrics.py        # self-test of the arithmetic

The first run configures and builds hostbench/ (CMake, Release) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. A run repeats passes of the workload's grid until
--seconds have passed (at least three passes), each in a fresh process
so that each pass is cold. It checks every cell against pins.json,
prints a table and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. attempted and failed count
cells (one simulation each) over all passes; a cell fails when it is
not ok, not verified, or differs from its pin in simulated ns,
instruction count or stat digest.

--trace 0 reports the end-to-end metrics of BENCHMARK.json over the
passes: every cell at its fastest pass (metrics.end_to_end says why).
--trace 1 alternates untraced and traced passes, runs the layer probes
once and reports the per-layer ledger, each metric the median over the
traced passes: host time per unit of work for each layer, the work
counts, each layer's self time from the spans, and trace.overhead_pct,
the traced-versus-untraced difference in wall_s. The traced run also
checks that the child spans of every cell span account for the cell's
time.

--seed shuffles the order of the cells in each pass (all but the farm
grid, whose order decides which cell produces a prefix) and is echoed.
The inputs are fixed by the library's own per-workload seeds.

--repin runs every grid once and rewrites pins.json, including the
full-detail reference for sampled_err_pct. Only a change that means to
alter simulated results should do that.
"""

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import metrics

START = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"

MIN_PASSES = 3           # untraced passes of a --trace 0 run
MIN_EACH_TRACED = 2      # untraced and traced passes of a --trace 1 run
LAST_PASS_START_S = 120  # so that a run ends within 180 s


def die(msg):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(1)


def child_env():
    """The environment without BVL_* knobs, which would change what a
    pass runs (job count, isolation, journal, cache or farm paths)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("BVL_")}


def build():
    """Configure once, build the binary; returns (binary, work dir)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("no simulator sources at %s; run from a checkout of the "
            "repository" % (ROOT / "src"))
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out.is_absolute():
        out = ROOT / out
    bdir = out / "hostbench"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "hostbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-6000:])
            die("build step failed: " + " ".join(cmd))
    return bdir / "hostbench", out / "hostbench-work"


def call(binary, args, timeout=None):
    """Run the hostbench binary and return its JSON records."""
    p = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, env=child_env(),
                       timeout=timeout)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-6000:])
        die("'hostbench %s' exited with %d" % (" ".join(args[:2]),
                                                p.returncode))
    return [json.loads(line) for line in p.stdout.splitlines()
            if line.startswith("{")]


def remaining_s():
    return max(10.0, 175.0 - (time.monotonic() - START))


def run_pass(binary, work, grid, order_seed, traced, timeout=None):
    """One pass of @grid in a fresh process and a fresh work dir."""
    d = work / ("%d-%d" % (os.getpid(), order_seed))
    shutil.rmtree(d, ignore_errors=True)
    args = ["grid", grid, "--order-seed", str(order_seed),
            "--work-dir", str(d)]
    if traced:
        args += ["--spans", str(d / "spans.json")]
    try:
        recs = call(binary, args, timeout)
        spans = json.loads((d / "spans.json").read_text()) if traced \
            else None
    finally:
        shutil.rmtree(d, ignore_errors=True)
    summary = [r for r in recs if r["type"] == "pass"]
    if not summary:
        die("pass of %s printed no summary" % grid)
    return {"cells": [r for r in recs if r["type"] == "cell"],
            "dryruns": [r for r in recs if r["type"] == "dryrun"],
            "summary": summary[-1], "spans": spans}


def run_probes(binary, work, grid):
    d = work / ("%d-probes" % os.getpid())
    shutil.rmtree(d, ignore_errors=True)
    try:
        recs = call(binary, ["probes", grid, "--work-dir", str(d)],
                    remaining_s())
    finally:
        shutil.rmtree(d, ignore_errors=True)
    return recs[-1]["metrics"]


def host_record(binary):
    rec = call(binary, ["host"], 60)[0]
    rec["nproc"] = len(os.sched_getaffinity(0))
    rec["loadavg"] = [round(x, 2) for x in os.getloadavg()]
    return rec


def load_json(path, what):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        die("cannot read %s (%s): %s" % (what, path, e))


def repin(binary, work, workloads):
    grids, counters = {}, {}
    for grid in workloads + ["sampled_reference"]:
        p = run_pass(binary, work, grid, 0, False)
        bad = [c["key"] for c in p["cells"]
               if c["status"] != "ok" or not c["verified"]]
        if bad:
            die("cannot pin failed cells: " + ", ".join(bad))
        grids[grid] = {c["key"]: {"ns": c["ns"], "insts": c["insts"],
                                  "digest": c["digest"]}
                       for c in p["cells"]}
        counters[grid] = p["summary"]["counters"]
        print("pinned %d cells of %s" % (len(grids[grid]), grid))
    reference = grids.pop("sampled_reference")
    doc = {
        "schema": "hostbench-pins-v1",
        "cells": grids,
        "counters": {g: c for g, c in counters.items() if c},
        "reference_ns": {k.split("/")[0]: v["ns"]
                         for k, v in reference.items()},
    }
    PINS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print("wrote " + str(PINS))


def measure(binary, work, args):
    """Passes until --seconds are used: (untraced, traced)."""
    rng = random.Random(args.seed)
    untraced, traced = [], []
    longest = 0.0
    t0 = time.monotonic()
    while True:
        elapsed = time.monotonic() - t0
        if args.trace:
            enough = min(len(untraced), len(traced)) >= MIN_EACH_TRACED
        else:
            enough = len(untraced) >= MIN_PASSES
        if enough and elapsed + longest > args.seconds:
            break
        if elapsed + longest > LAST_PASS_START_S:
            if enough:
                break
            die("one pass takes %.0f s; too long for a run" % longest)
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        started = time.monotonic()
        p = run_pass(binary, work, args.workload, rng.getrandbits(63),
                     trace_this, remaining_s())
        longest = max(longest, time.monotonic() - started)
        (traced if trace_this else untraced).append(p)
    return untraced, traced


def main():
    # BENCHMARK.json names the workloads, says why each is there, and
    # lists the metrics with their units.
    spec = load_json(ROOT / "BENCHMARK.json", "the benchmark definition")
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    ap = argparse.ArgumentParser(
        description="Host-time benchmark of the bvl simulator.")
    ap.add_argument("--workload", choices=sorted(why))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repin", action="store_true")
    args = ap.parse_args()
    if not args.repin and not args.workload:
        ap.error("--workload is required")

    binary, work = build()
    work.mkdir(parents=True, exist_ok=True)
    host = host_record(binary)
    if args.repin:
        repin(binary, work, list(why))
        return
    pins = load_json(PINS, "the simulated-output pins")

    untraced, traced = measure(binary, work, args)
    passes = untraced + traced
    cells = [c for p in passes for c in p["cells"]]
    failures = metrics.pin_failures(cells,
                                    pins["cells"].get(args.workload, {}))
    problems = ["cell %s: %s" % f for f in failures]
    want = pins["counters"].get(args.workload, {})
    for p in passes:
        if p["summary"]["counters"] != want:
            problems.append("pass counters %r, pinned %r"
                            % (p["summary"]["counters"], want))

    e2e = metrics.end_to_end(untraced)

    print("hostbench: workload=%s seed=%d passes=%d untraced, %d traced"
          % (args.workload, args.seed, len(untraced), len(traced)))
    print("  why: " + why[args.workload])
    print("  host: nproc=%(nproc)d loadavg=%(loadavg)s compiler=%(compiler)s "
          "build=%(build_type)s" % host)
    for m in spec["end_to_end"]:
        print("  %-28s %14.6g %-8s over %d passes"
              % (m["name"], e2e[m["name"]], m["unit"], len(untraced)))
    if args.workload == "sampled_sweep":
        print("  %-28s %14.6g %-8s vs pinned full detail"
              % ("sampled_err_pct",
                 metrics.sampled_err_pct(untraced[0]["cells"],
                                         pins["reference_ns"]), "%"))
    print("  %-28s %14d %-8s" % ("cells", len(cells), "count"))
    print("  %-28s %14d %-8s" % ("cells_failed", len(failures), "count"))

    if args.trace:
        for p in traced:
            for name, cell, share in metrics.coverage_failures(p["spans"]):
                problems.append("span %s (cell %d): children cover %.1f%%"
                                % (name, cell, 100 * share))
        layer = metrics.median_ledger([metrics.ledger(p) for p in traced])
        layer.update(run_probes(binary, work, args.workload))
        traced_wall = metrics.end_to_end(traced)["wall_s"]
        layer["trace.overhead_pct"] = \
            100.0 * (traced_wall / e2e["wall_s"] - 1.0)
        for m in spec["per_layer"]:
            print("  %-28s %14.6g %s" % (m["name"], layer[m["name"]],
                                         m["unit"]))
        out = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer"]}
    else:
        out = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}

    for line in problems[:20]:
        print("  FAILED " + line)
    print(json.dumps({"correct": not problems, "attempted": len(cells),
                      "failed": len(failures), "metrics": out}))


if __name__ == "__main__":
    main()
