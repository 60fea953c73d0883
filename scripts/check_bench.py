#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh google-benchmark JSON run
against the pinned baseline (BENCH_kernel.json at the repo root) and
fail when a gated kernel microbenchmark regressed beyond tolerance.

The gated benches are the allocation-free hot paths the simulator's
throughput rests on; anything touching the event queue, stat counters
or the cache hit path shows up here long before it shows up in a
figure sweep.

Absolute nanoseconds are machine-dependent, so the tolerance is
deliberately loose (default 25%) and can be widened for noisy CI
runners via --tolerance or BVL_BENCH_TOLERANCE. The gate catches
order-of-magnitude mistakes (an accidental allocation or lock on the
hot path), not single-digit-percent drift; scripts/bench.sh --update
refreshes the baseline after intentional changes.

A second gate covers sampled (fast-forward) simulation accuracy:
--sampled checks a bvl-sampled-validation-v1 document (written by
`BVL_SAMPLED_OUT=<file> build/bench/fig04_sampled`) against the mean
cycle-error bound the sampling feature promises (3%, DESIGN.md §15).
Unlike nanoseconds, cycle error is machine-independent, so the bound
is tight and not widened on CI. Wall-clock speedup is reported but
never gated — it depends on the host.

A third gate covers the mobile kernel tier: --mobile checks a
bvl-mobile-tier-v1 document (written by `BVL_MOBILE_OUT=<file>
build/bench/fig_mobile`) against the pinned BENCH_mobile.json
baseline. Simulated nanoseconds and VMU access-pattern line counts
are machine-independent, so this gate is about the *timing model*,
not the host: it fails when a kernel's simulated time regressed
beyond tolerance, when a run stopped verifying, or when a kernel
lost an access-pattern path it used to exercise (e.g. an indexed
gather silently turned into unit-stride loads).

A fourth gate reads a sweep-service write-ahead journal (the
bvl-sweep-journal-v1 JSONL every figure bench appends to, DESIGN.md
§14) as its results store: --journal fails if any journaled run ended
in a non-ok status, and reports the row count, the designs covered and
the total simulation wall-clock the journal recorded. CI points it at
the journal a bench sweep just wrote, so "the sweep printed numbers"
and "every cell actually finished ok" stop being the same check.

Usage:
    scripts/check_bench.py --results build-bench/microbench.json
    scripts/check_bench.py --results r.json --tolerance 0.5
    scripts/check_bench.py --sampled build/sampled.json
    scripts/check_bench.py --mobile build/mobile.json
    scripts/check_bench.py --journal build/.bvl-sweep/fig04.journal.jsonl
    scripts/check_bench.py --self-test
    scripts/check_bench.py --print-filter

The microbenchmark families to run are listed once, in FAMILIES below:
scripts/bench.sh and scripts/ci.sh pass the --print-filter regex to
microbench_sim --benchmark_filter, and so does hosted CI.
"""

import argparse
import json
import os
import re
import sys

# Benchmark families microbench_sim runs for the baseline and the gate
# (a --benchmark_filter alternation; BM_Stat covers both stat benches).
FAMILIES = ["BM_EventQueue", "BM_TickChurn", "BM_Stat", "BM_CacheHitPath",
            "BM_FastForwardStep", "BM_LittleCoreSimSpeed",
            "BM_BigCoreSimSpeed", "BM_VectorEngineSimSpeed"]

GATED = ["BM_CacheHitPath", "BM_TickChurn", "BM_StatIncrement",
         "BM_FastForwardStep", "BM_LittleCoreSimSpeed",
         "BM_BigCoreSimSpeed", "BM_VectorEngineSimSpeed/0",
         "BM_VectorEngineSimSpeed/1", "BM_VectorEngineSimSpeed/2"]


class GateInputError(Exception):
    """A baseline/results file is unusable; message says how and what
    to do about it."""


def load_json_doc(path, role, hint):
    """Parse @path as a JSON object, or raise one actionable error.

    A missing, truncated, or non-JSON file (a killed benchmark run, a
    bad --results path, an unpulled baseline) must produce a one-line
    diagnosis and a nonzero exit, not a traceback.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise GateInputError("%s file %s does not exist; %s"
                             % (role, path, hint))
    except json.JSONDecodeError as e:
        raise GateInputError("%s file %s is not valid JSON (%s) — "
                             "truncated or corrupt? %s"
                             % (role, path, e, hint))
    except OSError as e:
        raise GateInputError("%s file %s is unreadable (%s); %s"
                             % (role, path, e.strerror, hint))
    if not isinstance(doc, dict):
        raise GateInputError("%s file %s is JSON but not an object "
                             "(got %s); %s"
                             % (role, path, type(doc).__name__, hint))
    return doc


def load_baseline(path):
    """name -> cpu_ns from a BENCH_kernel.json document."""
    doc = load_json_doc(path, "baseline",
                        "regenerate with scripts/bench.sh --update")
    micro = doc.get("microbenchmarks")
    if not isinstance(micro, dict) or not micro:
        raise GateInputError("baseline file %s has no 'microbenchmarks' "
                             "object; regenerate with scripts/bench.sh "
                             "--update" % path)
    try:
        return {name: entry["cpu_ns"] for name, entry in micro.items()}
    except (TypeError, KeyError):
        raise GateInputError("baseline file %s: entries lack 'cpu_ns'; "
                             "regenerate with scripts/bench.sh --update"
                             % path)


def load_results(path):
    """name -> cpu_ns from google-benchmark --benchmark_out JSON."""
    doc = load_json_doc(path, "results",
                        "rerun the microbenchmark with "
                        "--benchmark_out=<path>")
    out = {}
    for b in doc.get("benchmarks", []):
        if not isinstance(b, dict):
            continue
        if b.get("run_type", "iteration") != "iteration":
            continue
        try:
            out[b["name"]] = b["cpu_time"]
        except KeyError:
            raise GateInputError("results file %s: benchmark entry "
                                 "lacks name/cpu_time; rerun the "
                                 "microbenchmark with "
                                 "--benchmark_out=<path>" % path)
    if not out:
        raise GateInputError("results file %s contains no iteration "
                             "benchmarks — interrupted run? rerun the "
                             "microbenchmark with "
                             "--benchmark_out=<path>" % path)
    return out


SAMPLED_SCHEMA = "bvl-sampled-validation-v1"


def load_sampled(path):
    """Validated bvl-sampled-validation-v1 document from fig04_sampled."""
    hint = ("regenerate with BVL_SAMPLED_OUT=%s "
            "build/bench/fig04_sampled" % path)
    doc = load_json_doc(path, "sampled-validation", hint)
    if doc.get("schema") != SAMPLED_SCHEMA:
        raise GateInputError("sampled-validation file %s has schema %r, "
                             "expected %r; %s"
                             % (path, doc.get("schema"), SAMPLED_SCHEMA,
                                hint))
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        raise GateInputError("sampled-validation file %s has no rows — "
                             "did every workload fail? %s" % (path, hint))
    if not isinstance(doc.get("meanAbsError"), (int, float)):
        raise GateInputError("sampled-validation file %s lacks a numeric "
                             "'meanAbsError'; %s" % (path, hint))
    return doc


def check_sampled(doc, max_mean_error):
    """Return (failures, report_lines) for a sampled-validation doc.

    Gates the suite-mean absolute cycle error; per-workload errors are
    reported for diagnosis but individually only fail at 2x the mean
    bound (one phase-y workload may sit above the mean bound without
    the sampling methodology being broken).
    """
    failures = []
    lines = []
    per_row_bound = 2.0 * max_mean_error
    for row in doc["rows"]:
        name = row.get("workload", "?")
        err = row.get("error")
        if not isinstance(err, (int, float)):
            failures.append(name)
            lines.append("%-16s no error value (failed run?)" % name)
            continue
        verdict = "ok"
        if abs(err) > per_row_bound:
            verdict = "EXCEEDS %.0f%%" % (per_row_bound * 100.0)
            failures.append(name)
        lines.append("%-16s %+7.2f%%  %6.1fx  %s"
                     % (name, err * 100.0,
                        row.get("speedup", 0.0), verdict))
    mean = doc["meanAbsError"]
    verdict = "ok"
    if mean > max_mean_error:
        verdict = "EXCEEDS %.0f%% BOUND" % (max_mean_error * 100.0)
        failures.append("mean")
    lines.append("%-16s %+7.2f%%  %6.1fx  %s"
                 % ("mean|err|", mean * 100.0,
                    doc.get("aggregateSpeedup", 0.0), verdict))
    return failures, lines


MOBILE_SCHEMA = "bvl-mobile-tier-v1"
MOBILE_PATTERNS = ("unitLines", "stridedLines", "indexedLines")


def load_mobile(path, role, hint):
    """Validated bvl-mobile-tier-v1 document from fig_mobile."""
    doc = load_json_doc(path, role, hint)
    if doc.get("schema") != MOBILE_SCHEMA:
        raise GateInputError("%s file %s has schema %r, expected %r; %s"
                             % (role, path, doc.get("schema"),
                                MOBILE_SCHEMA, hint))
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        raise GateInputError("%s file %s has no rows — did every run "
                             "fail? %s" % (role, path, hint))
    for row in rows:
        if (not isinstance(row, dict) or "workload" not in row
                or "design" not in row
                or not isinstance(row.get("ns"), (int, float))):
            raise GateInputError("%s file %s: row lacks workload/"
                                 "design/ns; %s" % (role, path, hint))
    return doc


def check_mobile(baseline, results, tolerance):
    """Return (failures, report_lines) for two mobile-tier documents.

    Each baseline cell (workload x design) must still exist, verify,
    keep its simulated time within tolerance, and keep every VMU
    access-pattern class it used to exercise nonzero — a kernel whose
    indexed gather silently degrades to something else should fail
    loudly, not just shift a number.
    """
    if baseline.get("scale") != results.get("scale"):
        raise GateInputError("mobile baseline is at scale %r but the "
                             "results are at %r; rerun fig_mobile with "
                             "BVL_SCALE=%s"
                             % (baseline.get("scale"),
                                results.get("scale"),
                                baseline.get("scale")))
    key = lambda r: (r["workload"], r["design"])
    new = {key(r): r for r in results["rows"]}
    failures = []
    lines = []
    for b in baseline["rows"]:
        name = "%s/%s" % (b["workload"], b["design"])
        r = new.get(key(b))
        if r is None:
            failures.append(name)
            lines.append("%-18s MISSING from results" % name)
            continue
        problems = []
        if not r.get("verified", False):
            problems.append("NOT VERIFIED")
        ratio = r["ns"] / b["ns"] if b["ns"] > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + tolerance:
            verdict = "REGRESSED"
            problems.append(verdict)
        elif ratio < 1.0 / (1.0 + tolerance):
            verdict = "improved"
        for pat in MOBILE_PATTERNS:
            if b.get(pat, 0) > 0 and r.get(pat, 0) == 0:
                problems.append("LOST %s" % pat)
        if problems:
            failures.append(name)
        lines.append("%-18s %12.0f ns -> %12.0f ns  (%+6.1f%%)  %s"
                     % (name, b["ns"], r["ns"], (ratio - 1.0) * 100.0,
                        " ".join(problems) if problems else verdict))
    return failures, lines


JOURNAL_SCHEMA = "bvl-sweep-journal-v1"


def load_journal(path):
    """Valid bvl-sweep-journal-v1 rows from a sweep journal.

    A line is the journal's unit of durability, so the torn tail of a
    killed writer is skipped exactly as the service itself does on
    replay — but a file with NO valid rows (missing, empty, or all
    garbage) is a hard input error: the sweep this gate was meant to
    check never recorded anything.
    """
    hint = ("rerun the bench sweep with journaling on "
            "(unset BVL_SWEEP_JOURNAL or point it at a path)")
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except FileNotFoundError:
        raise GateInputError("journal file %s does not exist; %s"
                             % (path, hint))
    except OSError as e:
        raise GateInputError("journal file %s is unreadable (%s); %s"
                             % (path, e.strerror, hint))
    rows, skipped = [], 0
    for line in lines:
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError:
            skipped += 1
            continue
        if (not isinstance(row, dict)
                or row.get("schema") != JOURNAL_SCHEMA
                or not isinstance(row.get("result"), dict)):
            skipped += 1
            continue
        rows.append(row)
    if not rows:
        raise GateInputError("journal file %s has no valid %s rows "
                             "(%d unusable line(s)) — truncated or not "
                             "a journal? %s"
                             % (path, JOURNAL_SCHEMA, skipped, hint))
    return rows, skipped


def check_journal(rows):
    """Return (failures, report_lines) for journaled sweep rows.

    Every journaled run must have finished with status "ok": a
    deadline, sim_error or lost-worker row means the sweep's printed
    figures silently lack a cell.
    """
    failures = []
    lines = []
    designs = set()
    total_wall_ms = 0.0
    for row in rows:
        design = row.get("design", "?")
        workload = row.get("workload", "?")
        designs.add(design)
        wall = row.get("wallMs", 0.0)
        if isinstance(wall, (int, float)):
            total_wall_ms += wall
        status = row["result"].get("status", "missing-status")
        if status != "ok":
            failures.append("%s/%s" % (design, workload))
            lines.append("%-10s %-14s %s" % (design, workload, status))
    lines.append("%d row(s), %d design(s), %.1f s simulation "
                 "wall-clock journaled"
                 % (len(rows), len(designs), total_wall_ms / 1000.0))
    return failures, lines


def compare(baseline, results, tolerance, benches):
    """Return (failures, report_lines); failures is a list of names."""
    failures = []
    lines = []
    for name in benches:
        if name not in baseline:
            failures.append(name)
            lines.append("%-20s MISSING from baseline" % name)
            continue
        if name not in results:
            failures.append(name)
            lines.append("%-20s MISSING from results" % name)
            continue
        base, new = baseline[name], results[name]
        ratio = new / base if base > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + tolerance:
            verdict = "REGRESSED"
            failures.append(name)
        elif ratio < 1.0 / (1.0 + tolerance):
            verdict = "improved"
        lines.append("%-20s %12.3f ns -> %12.3f ns  (%+6.1f%%)  %s"
                     % (name, base, new, (ratio - 1.0) * 100.0, verdict))
    return failures, lines


def benchmark_filter():
    """The --benchmark_filter regex selecting every family."""
    return "|".join(FAMILIES)


def self_test():
    """Machine-independent check that the gate actually gates."""
    unrun = [g for g in GATED if not re.search(benchmark_filter(), g)]
    assert not unrun, "gated benches the filter does not run: %s" % unrun
    baseline = {"BM_CacheHitPath": 25.0, "BM_TickChurn": 17000.0,
                "BM_StatIncrement": 0.4, "BM_FastForwardStep": 21000.0,
                "BM_LittleCoreSimSpeed": 260000.0,
                "BM_BigCoreSimSpeed": 400000.0,
                "BM_VectorEngineSimSpeed/0": 450000.0,
                "BM_VectorEngineSimSpeed/1": 580000.0,
                "BM_VectorEngineSimSpeed/2": 1170000.0}

    ok = dict(baseline)
    failures, _ = compare(baseline, ok, 0.25, GATED)
    assert not failures, "identical results must pass: %s" % failures

    noisy = {k: v * 1.2 for k, v in baseline.items()}
    failures, _ = compare(baseline, noisy, 0.25, GATED)
    assert not failures, "20%% drift within 25%% tolerance: %s" % failures

    slow = dict(baseline)
    slow["BM_CacheHitPath"] *= 2.0  # injected slowdown
    failures, lines = compare(baseline, slow, 0.25, GATED)
    assert failures == ["BM_CacheHitPath"], \
        "2x slowdown must fail exactly one bench: %s" % failures
    assert any("REGRESSED" in l for l in lines)

    missing = dict(baseline)
    del missing["BM_TickChurn"]
    failures, _ = compare(baseline, missing, 0.25, GATED)
    assert failures == ["BM_TickChurn"], \
        "a dropped bench must fail: %s" % failures

    fast = {k: v * 0.5 for k, v in baseline.items()}
    failures, lines = compare(baseline, fast, 0.25, GATED)
    assert not failures
    assert all("improved" in l for l in lines)

    # Sampled-accuracy gate: bound holds, mean breach, row breach.
    def sampled_doc(errors, mean):
        return {"schema": SAMPLED_SCHEMA,
                "rows": [{"workload": w, "error": e, "speedup": 10.0}
                         for w, e in errors.items()],
                "meanAbsError": mean, "aggregateSpeedup": 10.0}

    good = sampled_doc({"vvadd": 0.01, "mmult": -0.02}, 0.015)
    failures, _ = check_sampled(good, 0.03)
    assert not failures, "1.5%% mean within 3%% bound: %s" % failures

    bad_mean = sampled_doc({"vvadd": 0.04, "mmult": -0.05}, 0.045)
    failures, lines = check_sampled(bad_mean, 0.03)
    assert failures == ["mean"], \
        "mean breach must fail exactly 'mean': %s" % failures
    assert any("EXCEEDS" in l for l in lines)

    bad_row = sampled_doc({"vvadd": 0.09, "mmult": 0.0}, 0.045)
    failures, _ = check_sampled(bad_row, 0.03)
    assert failures == ["vvadd", "mean"], \
        "9%% row must fail the 2x-mean per-row bound: %s" % failures

    no_err = {"schema": SAMPLED_SCHEMA,
              "rows": [{"workload": "vvadd"}], "meanAbsError": 0.0}
    failures, _ = check_sampled(no_err, 0.03)
    assert failures == ["vvadd"], \
        "a row without an error value must fail: %s" % failures

    # Broken input files: one actionable error each, never a traceback.
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        cases = [
            (os.path.join(tmp, "absent.json"), None, "does not exist"),
            (os.path.join(tmp, "torn.json"), '{"benchmarks": [{"na',
             "not valid JSON"),
            (os.path.join(tmp, "scalar.json"), "42", "not an object"),
            (os.path.join(tmp, "empty.json"), '{"benchmarks": []}',
             "no iteration benchmarks"),
        ]
        for path, content, expect in cases:
            if content is not None:
                with open(path, "w") as f:
                    f.write(content)
            try:
                load_results(path)
            except GateInputError as e:
                assert expect in str(e), \
                    "wrong diagnosis for %s: %s" % (path, e)
            else:
                assert False, "%s must be rejected" % path
        bad_base = os.path.join(tmp, "base.json")
        with open(bad_base, "w") as f:
            f.write('{"something_else": {}}')
        try:
            load_baseline(bad_base)
        except GateInputError as e:
            assert "microbenchmarks" in str(e)
        else:
            assert False, "baseline without microbenchmarks must fail"
        bad_sampled = os.path.join(tmp, "sampled.json")
        cases = [
            ('{"schema": "bvl-other-v9", "rows": [{}], '
             '"meanAbsError": 0.1}', "has schema"),
            ('{"schema": "%s", "rows": [], "meanAbsError": 0.1}'
             % SAMPLED_SCHEMA, "no rows"),
            ('{"schema": "%s", "rows": [{}]}' % SAMPLED_SCHEMA,
             "meanAbsError"),
        ]
        for content, expect in cases:
            with open(bad_sampled, "w") as f:
                f.write(content)
            try:
                load_sampled(bad_sampled)
            except GateInputError as e:
                assert expect in str(e), \
                    "wrong sampled diagnosis: %s" % e
            else:
                assert False, "bad sampled doc must be rejected"

    # Mobile-tier gate: pass, regression, lost pattern, unverified,
    # missing cell, scale mismatch, input diagnoses.
    def mobile_doc(scale, rows):
        out = []
        for (w, d, ns, verified, unit, strided, indexed) in rows:
            out.append({"workload": w, "design": d, "ns": ns,
                        "verified": verified, "unitLines": unit,
                        "stridedLines": strided,
                        "indexedLines": indexed})
        return {"schema": MOBILE_SCHEMA, "scale": scale, "rows": out}

    mb = mobile_doc("tiny", [
        ("idct8", "1b-4VL", 50000.0, True, 64, 18432, 352),
        ("ycbcr", "1bDV", 20000.0, True, 0, 240, 288),
    ])
    failures, _ = check_mobile(mb, mb, 0.25)
    assert not failures, "identical mobile docs must pass: %s" % failures

    slow_mb = mobile_doc("tiny", [
        ("idct8", "1b-4VL", 90000.0, True, 64, 18432, 352),
        ("ycbcr", "1bDV", 20000.0, True, 0, 240, 288),
    ])
    failures, lines = check_mobile(mb, slow_mb, 0.25)
    assert failures == ["idct8/1b-4VL"], \
        "1.8x simulated-time must fail exactly one cell: %s" % failures
    assert any("REGRESSED" in l for l in lines)

    lost_mb = mobile_doc("tiny", [
        ("idct8", "1b-4VL", 50000.0, True, 64, 18432, 0),
        ("ycbcr", "1bDV", 20000.0, True, 0, 240, 288),
    ])
    failures, lines = check_mobile(mb, lost_mb, 0.25)
    assert failures == ["idct8/1b-4VL"], \
        "a lost indexed pattern must fail: %s" % failures
    assert any("LOST indexedLines" in l for l in lines)

    unver_mb = mobile_doc("tiny", [
        ("idct8", "1b-4VL", 50000.0, False, 64, 18432, 352),
        ("ycbcr", "1bDV", 20000.0, True, 0, 240, 288),
    ])
    failures, lines = check_mobile(mb, unver_mb, 0.25)
    assert failures == ["idct8/1b-4VL"], \
        "an unverified run must fail: %s" % failures
    assert any("NOT VERIFIED" in l for l in lines)

    missing_mb = mobile_doc("tiny", [
        ("ycbcr", "1bDV", 20000.0, True, 0, 240, 288),
    ])
    failures, _ = check_mobile(mb, missing_mb, 0.25)
    assert failures == ["idct8/1b-4VL"], \
        "a dropped cell must fail: %s" % failures

    try:
        check_mobile(mb, mobile_doc("small", []), 0.25)
    except GateInputError as e:
        assert "scale" in str(e)
    else:
        assert False, "scale mismatch must be a gate input error"

    with tempfile.TemporaryDirectory() as tmp:
        bad_mobile = os.path.join(tmp, "mobile.json")
        cases = [
            ('{"schema": "bvl-other-v9", "rows": [{}]}', "has schema"),
            ('{"schema": "%s", "rows": []}' % MOBILE_SCHEMA, "no rows"),
            ('{"schema": "%s", "rows": [{"workload": "x"}]}'
             % MOBILE_SCHEMA, "lacks workload/design/ns"),
        ]
        for content, expect in cases:
            with open(bad_mobile, "w") as f:
                f.write(content)
            try:
                load_mobile(bad_mobile, "mobile-results", "regenerate")
            except GateInputError as e:
                assert expect in str(e), \
                    "wrong mobile diagnosis: %s" % e
            else:
                assert False, "bad mobile doc must be rejected"

    # Journal gate: all-ok passes, a bad row fails, input diagnoses.
    def journal_line(design, workload, status, wall_ms=100.0):
        return json.dumps({"schema": JOURNAL_SCHEMA, "hash": "h",
                           "design": design, "workload": workload,
                           "scale": "tiny", "attempts": 1,
                           "source": "sim", "wallMs": wall_ms,
                           "result": {"status": status}})

    with tempfile.TemporaryDirectory() as tmp:
        good_j = os.path.join(tmp, "good.jsonl")
        with open(good_j, "w") as f:
            f.write(journal_line("1b-4VL", "saxpy", "ok") + "\n")
            f.write(journal_line("1bDV", "saxpy", "ok") + "\n")
            f.write('{"torn tail')  # killed writer, must be tolerated
        rows, skipped = load_journal(good_j)
        assert len(rows) == 2 and skipped == 1, \
            "torn tail must be skipped, not fatal"
        failures, lines = check_journal(rows)
        assert not failures, "all-ok journal must pass: %s" % failures
        assert any("2 row(s), 2 design(s)" in l for l in lines), lines

        bad_j = os.path.join(tmp, "bad.jsonl")
        with open(bad_j, "w") as f:
            f.write(journal_line("1b-4VL", "saxpy", "ok") + "\n")
            f.write(journal_line("1bDV", "kmeans", "sim_error") + "\n")
        failures, _ = check_journal(load_journal(bad_j)[0])
        assert failures == ["1bDV/kmeans"], \
            "a sim_error row must fail exactly that cell: %s" % failures

        cases = [
            (os.path.join(tmp, "absent.jsonl"), None, "does not exist"),
            (os.path.join(tmp, "empty.jsonl"), "", "no valid"),
            (os.path.join(tmp, "garbage.jsonl"), "not json\n{}\n",
             "no valid"),
            (os.path.join(tmp, "wrong.jsonl"),
             '{"schema": "bvl-other-v9", "result": {}}\n', "no valid"),
        ]
        for path, content, expect in cases:
            if content is not None:
                with open(path, "w") as f:
                    f.write(content)
            try:
                load_journal(path)
            except GateInputError as e:
                assert expect in str(e), \
                    "wrong journal diagnosis for %s: %s" % (path, e)
            else:
                assert False, "%s must be rejected" % path

    print("check_bench.py self-test: all cases behaved")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="compare kernel microbenches against the pinned "
                    "baseline")
    ap.add_argument("--baseline", default="BENCH_kernel.json",
                    help="pinned baseline (default: BENCH_kernel.json)")
    ap.add_argument("--results",
                    help="google-benchmark --benchmark_out JSON to check")
    ap.add_argument("--tolerance", type=float,
                    default=float(os.environ.get("BVL_BENCH_TOLERANCE",
                                                 "0.25")),
                    help="allowed slowdown fraction (default 0.25, env "
                         "BVL_BENCH_TOLERANCE)")
    ap.add_argument("--benches", default=",".join(GATED),
                    help="comma-separated gated bench names")
    ap.add_argument("--sampled",
                    help="bvl-sampled-validation-v1 JSON from "
                         "fig04_sampled to gate instead")
    ap.add_argument("--mobile",
                    help="bvl-mobile-tier-v1 JSON from fig_mobile to "
                         "gate against the pinned mobile baseline")
    ap.add_argument("--mobile-baseline", default="BENCH_mobile.json",
                    help="pinned mobile-tier baseline (default: "
                         "BENCH_mobile.json)")
    ap.add_argument("--journal",
                    help="bvl-sweep-journal-v1 JSONL from a bench "
                         "sweep: fail if any journaled run is not ok")
    ap.add_argument("--max-mean-error", type=float,
                    default=float(os.environ.get("BVL_SAMPLED_MAX_ERROR",
                                                 "0.03")),
                    help="allowed mean |cycle error| for --sampled "
                         "(default 0.03, env BVL_SAMPLED_MAX_ERROR)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the comparator catches an injected "
                         "slowdown, then exit")
    ap.add_argument("--print-filter", action="store_true",
                    help="print the microbench_sim --benchmark_filter "
                         "regex, then exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    if args.print_filter:
        print(benchmark_filter())
        return 0

    if args.sampled:
        try:
            doc = load_sampled(args.sampled)
        except GateInputError as e:
            print("sampled gate: ERROR: %s" % e, file=sys.stderr)
            return 1
        failures, lines = check_sampled(doc, args.max_mean_error)
        print("sampled gate: mean bound %.1f%%, %s @ %s"
              % (args.max_mean_error * 100.0, doc.get("design", "?"),
                 doc.get("scale", "?")))
        for line in lines:
            print("  " + line)
        if failures:
            print("FAIL: over bound: %s" % ", ".join(failures))
            print("(retune the per-workload configs in "
                  "bench/fig04_sampled.cc)")
            return 1
        print("sampled gate passed")
        return 0

    if args.mobile:
        try:
            baseline = load_mobile(
                args.mobile_baseline, "mobile-baseline",
                "regenerate with scripts/bench.sh --update")
            results = load_mobile(
                args.mobile, "mobile-results",
                "regenerate with BVL_MOBILE_OUT=%s "
                "build/bench/fig_mobile" % args.mobile)
            failures, lines = check_mobile(baseline, results,
                                           args.tolerance)
        except GateInputError as e:
            print("mobile gate: ERROR: %s" % e, file=sys.stderr)
            return 1
        print("mobile gate: tolerance %.0f%%, baseline %s @ %s"
              % (args.tolerance * 100.0, args.mobile_baseline,
                 baseline.get("scale", "?")))
        for line in lines:
            print("  " + line)
        if failures:
            print("FAIL: regressed/missing/pattern-lost: %s"
                  % ", ".join(failures))
            print("(intentional timing-model change? refresh with "
                  "scripts/bench.sh --update)")
            return 1
        print("mobile gate passed")
        return 0

    if args.journal:
        try:
            rows, skipped = load_journal(args.journal)
        except GateInputError as e:
            print("journal gate: ERROR: %s" % e, file=sys.stderr)
            return 1
        failures, lines = check_journal(rows)
        print("journal gate: %s" % args.journal)
        if skipped:
            print("  (skipped %d torn/foreign line(s))" % skipped)
        for line in lines:
            print("  " + line)
        if failures:
            print("FAIL: non-ok journaled run(s): %s"
                  % ", ".join(failures))
            return 1
        print("journal gate passed")
        return 0

    if not args.results:
        ap.error("--results, --sampled, --mobile or --journal is "
                 "required (or --self-test)")

    benches = [b for b in args.benches.split(",") if b]
    try:
        baseline = load_baseline(args.baseline)
        results = load_results(args.results)
    except GateInputError as e:
        print("bench gate: ERROR: %s" % e, file=sys.stderr)
        return 1
    failures, lines = compare(baseline, results, args.tolerance, benches)

    print("bench gate: tolerance %.0f%%, baseline %s"
          % (args.tolerance * 100.0, args.baseline))
    for line in lines:
        print("  " + line)
    if failures:
        print("FAIL: regressed/missing: %s" % ", ".join(failures))
        print("(intentional change? refresh with scripts/bench.sh "
              "--update)")
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
