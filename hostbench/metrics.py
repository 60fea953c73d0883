"""Metric arithmetic of the host-time benchmark.

Kept apart from the process handling in run.py so that test_metrics.py
can check it on synthetic inputs. A pass is a dict of the records the
hostbench binary printed: "cells", "dryruns", "summary" (the pass
record) and "spans" (None unless the pass was traced).
"""

import statistics

# Layers whose self time the ledger reports: the src/ modules a grid
# calls, plus "bench", the binary's own glue between those calls. mem
# and sim never appear as spans of a grid (they run inside runWorkload);
# their probes report them instead.
SELF_TIME_LAYERS = ("workloads", "soc", "cpu", "core", "runtime", "isa",
                    "sweep", "bench")

# Share of a cell span's time its child spans must cover.
MIN_CHILD_COVERAGE = 0.95


def median(values):
    return statistics.median(values)


def sim_kips(insts, wall_s, setup_s):
    """Thousand simulated instructions per host second spent outside
    set-up."""
    sim_s = wall_s - setup_s
    if sim_s <= 0:
        raise ValueError("set-up time %r is not below wall time %r"
                         % (setup_s, wall_s))
    return insts / sim_s / 1e3


def end_to_end(passes):
    """The end-to-end metrics of a run's passes of one grid.

    On a shared host, interference from other tenants only ever slows a
    cell down, and it comes and goes within seconds. So each cell counts
    at its fastest pass, and the time a pass spends outside its cells
    (prefix sizing, opening and closing the sweep service) counts at its
    median over the passes. wall_s and setup_s are those sums; they
    estimate the grid's wall clock and set-up time on an undisturbed
    host, and they are far steadier than any single pass.
    """
    best_cell, best_setup = {}, {}
    for p in passes:
        for c in p["cells"]:
            k = c["key"]
            best_cell[k] = min(best_cell.get(k, c["cell_s"]), c["cell_s"])
            best_setup[k] = min(best_setup.get(k, c["setup_s"]),
                                c["setup_s"])
    outside = median([p["summary"]["wall_s"]
                      - sum(c["cell_s"] for c in p["cells"])
                      for p in passes])
    outside_setup = median([p["summary"]["setup_s"]
                            - sum(c["setup_s"] for c in p["cells"])
                            for p in passes])
    wall = sum(best_cell.values()) + outside
    setup = sum(best_setup.values()) + outside_setup
    insts = sum(c["insts"] for c in passes[0]["cells"])
    return {
        "wall_s": wall,
        "setup_s": setup,
        "sim_kips": sim_kips(insts, wall, setup),
        "peak_rss_mb": median([p["summary"]["peak_rss_mb"]
                               for p in passes]),
    }


def pin_failures(cells, pins):
    """(key, reason) for every cell that is not ok, not verified,
    unpinned, or differs from its pin in simulated ns, instruction
    count or stat digest."""
    failures = []
    for c in cells:
        pin = pins.get(c["key"])
        why = None
        if c["status"] != "ok":
            why = "status " + c["status"]
        elif not c["verified"]:
            why = "not verified"
        elif pin is None:
            why = "no pin"
        else:
            for field in ("ns", "insts", "digest"):
                if c[field] != pin[field]:
                    why = "%s %r, pinned %r" % (field, c[field], pin[field])
                    break
        if why:
            failures.append((c["key"], why))
    return failures


def sampled_err_pct(cells, reference_ns):
    """Mean |cycle error| in percent of the sampled cells against the
    pinned full-detail ns of the same app."""
    errs = [abs(c["ns"] - reference_ns[c["key"].split("/")[0]])
            / reference_ns[c["key"].split("/")[0]]
            for c in cells if c["kind"] == "sampled"]
    return 100.0 * sum(errs) / len(errs) if errs else 0.0


def _union_length(intervals, lo, hi):
    """Length of the union of @intervals clipped to [lo, hi]."""
    total = 0.0
    cur = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur is None or a > cur[1]:
            if cur is not None:
                total += cur[1] - cur[0]
            cur = [a, b]
        else:
            cur[1] = max(cur[1], b)
    if cur is not None:
        total += cur[1] - cur[0]
    return total


def _child_cover(spans):
    """Seconds of each span that its children cover."""
    kids = [[] for _ in spans]
    for s in spans:
        if s["parent"] >= 0:
            kids[s["parent"]].append((s["start"], s["end"]))
    return [_union_length(k, s["start"], s["end"])
            for s, k in zip(spans, kids)]


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Seconds per layer: each span's duration minus the part of it
    that its child spans cover."""
    out = {}
    for s, covered in zip(spans, _child_cover(spans)):
        layer = layer_of(s["name"])
        out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - covered
    return out


def coverage_failures(spans, min_share=MIN_CHILD_COVERAGE):
    """(name, cell, share) for each cell span whose children cover less
    than @min_share of it."""
    bad = []
    for s, covered in zip(spans, _child_cover(spans)):
        if s["name"] != "bench.cell":
            continue
        d = s["end"] - s["start"]
        share = covered / d if d > 0 else 1.0
        if share < min_share:
            bad.append((s["name"], s["cell"], share))
    return bad


def _host_ns_per(cells, design, count):
    """Host ns per unit of @count over the full-detail cells of @design
    (0.0 when the pass has none)."""
    sel = [c for c in cells
           if c["kind"] == "detailed" and c["design"] == design]
    n = sum(count(c) for c in sel)
    return 1e9 * sum(c["run_s"] for c in sel) / n if n else 0.0


def ledger(pass_):
    """The per-layer metrics one traced pass measures. A metric whose
    cells the workload does not run reads 0."""
    cells, spans = pass_["cells"], pass_["spans"]

    def total(field):
        return sum(c["counts"][field] for c in cells)

    builds = [s["end"] - s["start"] for s in spans
              if s["name"] == "workloads.makeWorkload"]
    dry_insts = sum(d["insts"] for d in pass_["dryruns"])
    dry_s = sum(d["s"] for d in pass_["dryruns"])
    sampled = [c for c in cells if c["kind"] == "sampled"]
    sampled_insts = sum(c["insts"] for c in sampled)
    counters = pass_["summary"]["counters"]

    def uops(c):
        return c["counts"]["uops"]

    out = {
        "workloads.build_ms": 1e3 * sum(builds) / len(builds)
        if builds else 0.0,
        "cpu.big.ns_per_inst": _host_ns_per(
            cells, "1b", lambda c: c["counts"]["big_retired"]),
        "cpu.little.ns_per_inst": _host_ns_per(
            cells, "1L", lambda c: c["counts"]["little_retired"]),
        "runtime.mt_ns_per_inst": _host_ns_per(
            cells, "1b-4L", lambda c: c["insts"]),
        "runtime.steals": total("steals"),
        "runtime.pops": total("pops"),
        "cpu.ivu.ns_per_uop": _host_ns_per(cells, "1bIV", uops),
        "cpu.dve.ns_per_uop": _host_ns_per(cells, "1bDV", uops),
        "core.vlittle.ns_per_uop": _host_ns_per(cells, "1b-4VL", uops),
        "core.unit_lines": total("unit_lines"),
        "core.strided_lines": total("strided_lines"),
        "core.indexed_lines": total("indexed_lines"),
        "mem.l1d_accesses": total("l1d_accesses"),
        "mem.l2_misses": total("l2_misses"),
        "mem.dram_reads": total("dram_reads"),
        "mem.raw_mem_stall_cycles": total("raw_mem_stall_cycles"),
        "isa.ff_mips": dry_insts / dry_s / 1e6 if dry_s else 0.0,
        "soc.sampled_ns_per_inst":
            1e9 * sum(c["run_s"] for c in sampled) / sampled_insts
            if sampled_insts else 0.0,
        "sweep.cache_hits": counters.get("cache_hits", 0),
        "soc.farm.hits": counters.get("farm_hits", 0),
    }
    self_s = self_times(spans)
    for layer in SELF_TIME_LAYERS:
        out[layer + ".self_s"] = self_s.get(layer, 0.0)
    return out


def median_ledger(ledgers):
    """Per metric, the median over the traced passes' ledgers."""
    return {k: median([l[k] for l in ledgers]) for k in ledgers[0]}
