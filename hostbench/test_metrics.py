#!/usr/bin/env python3
"""Machine-independent self-test of the benchmark's metric arithmetic.

    python3 hostbench/test_metrics.py
"""

import unittest

import metrics


def span(name, start, end, parent=-1, cell=-1):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "cell": cell}


def cell(key, design, kind="detailed", ns=100.0, insts=1000, run_s=1.0,
         digest="d", status="ok", verified=True, **counts):
    base = {"big_retired": 0, "little_retired": 0, "uops": 0,
            "unit_lines": 0, "strided_lines": 0, "indexed_lines": 0,
            "l1d_accesses": 0, "l2_misses": 0, "dram_reads": 0,
            "raw_mem_stall_cycles": 0, "steals": 0, "pops": 0}
    base.update(counts)
    return {"key": key, "design": design, "kind": kind, "ns": ns,
            "insts": insts, "run_s": run_s, "setup_s": 0.0,
            "digest": digest, "status": status, "verified": verified,
            "counts": base}


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent(self):
        spans = [span("bench.cell", 0.0, 10.0, cell=0),
                 span("workloads.makeWorkload", 1.0, 4.0, 0, 0),
                 span("cpu.runWorkload", 5.0, 9.0, 0, 0)]
        self_s = metrics.self_times(spans)
        self.assertAlmostEqual(self_s["bench"], 3.0)
        self.assertAlmostEqual(self_s["workloads"], 3.0)
        self.assertAlmostEqual(self_s["cpu"], 4.0)

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [span("bench.cell", 0.0, 10.0),
                 span("isa.dryRun", 0.0, 6.0, 0),
                 span("isa.runFunctional", 1.0, 5.0, 1)]
        self_s = metrics.self_times(spans)
        self.assertAlmostEqual(self_s["bench"], 4.0)
        self.assertAlmostEqual(self_s["isa"], 2.0 + 4.0)

    def test_overlapping_children_count_once(self):
        spans = [span("bench.cell", 0.0, 10.0),
                 span("cpu.a", 1.0, 6.0, 0),
                 span("cpu.b", 4.0, 8.0, 0)]
        self.assertAlmostEqual(metrics.self_times(spans)["bench"], 3.0)

    def test_self_times_sum_to_the_top_level_spans(self):
        spans = [span("bench.cold", 0.0, 20.0),
                 span("sweep.open", 0.5, 1.0, 0),
                 span("bench.cell", 1.0, 19.0, 0),
                 span("sweep.submit", 1.5, 18.5, 2)]
        self.assertAlmostEqual(sum(metrics.self_times(spans).values()),
                               20.0)

    def test_coverage_flags_a_cell_its_children_do_not_explain(self):
        spans = [span("bench.cell", 0.0, 10.0, cell=3),
                 span("cpu.runWorkload", 0.0, 9.0, 0, 3),
                 span("bench.cell", 10.0, 20.0, cell=4),
                 span("cpu.runWorkload", 10.0, 19.9, 2, 4)]
        bad = metrics.coverage_failures(spans)
        self.assertEqual([(n, c) for n, c, _ in bad], [("bench.cell", 3)])
        self.assertAlmostEqual(bad[0][2], 0.9)


class EndToEnd(unittest.TestCase):
    def test_sim_kips_excludes_setup(self):
        self.assertAlmostEqual(metrics.sim_kips(2000000, 3.0, 1.0), 1000.0)

    def test_sim_kips_rejects_setup_beyond_wall(self):
        with self.assertRaises(ValueError):
            metrics.sim_kips(1, 1.0, 1.0)

    def test_end_to_end_takes_each_cell_at_its_fastest_pass(self):
        def timed(key, cell_s, setup_s, insts):
            c = cell(key, "1b", insts=insts)
            c.update(cell_s=cell_s, setup_s=setup_s)
            return c

        # Pass 1 is slow on a, pass 2 on b; both spend 0.5 s outside
        # their cells and 0.25 s of set-up outside them.
        passes = [
            {"summary": {"wall_s": 4.5, "setup_s": 1.25,
                         "peak_rss_mb": 30.0},
             "cells": [timed("a", 3.0, 0.5, 1000),
                       timed("b", 1.0, 0.5, 3000)]},
            {"summary": {"wall_s": 5.5, "setup_s": 1.75,
                         "peak_rss_mb": 32.0},
             "cells": [timed("a", 2.0, 0.5, 1000),
                       timed("b", 3.0, 1.0, 3000)]},
        ]
        m = metrics.end_to_end(passes)
        self.assertAlmostEqual(m["wall_s"], 2.0 + 1.0 + 0.5)
        self.assertAlmostEqual(m["setup_s"], 0.5 + 0.5 + 0.25)
        self.assertAlmostEqual(m["sim_kips"], 4000 / (3.5 - 1.25) / 1e3)
        self.assertAlmostEqual(m["peak_rss_mb"], 31.0)


class Pins(unittest.TestCase):
    pins = {"a": {"ns": 100.0, "insts": 1000, "digest": "d"}}

    def test_matching_cell_passes(self):
        self.assertEqual(metrics.pin_failures([cell("a", "1b")], self.pins),
                         [])

    def test_any_simulated_difference_fails(self):
        for change in ({"ns": 100.5}, {"insts": 999}, {"digest": "e"},
                       {"status": "deadlock"}, {"verified": False}):
            c = cell("a", "1b")
            c.update(change)
            fails = metrics.pin_failures([c], self.pins)
            self.assertEqual(len(fails), 1, change)

    def test_unpinned_cell_fails(self):
        fails = metrics.pin_failures([cell("b", "1b")], self.pins)
        self.assertEqual(fails, [("b", "no pin")])

    def test_sampled_error(self):
        cells = [cell("x/1b-4VL/medium/sampled", "1b-4VL", kind="sampled",
                      ns=102.0),
                 cell("y/1b-4VL/medium/sampled", "1b-4VL", kind="sampled",
                      ns=196.0),
                 cell("x/1b/small", "1b", ns=5.0)]
        self.assertAlmostEqual(
            metrics.sampled_err_pct(cells, {"x": 100.0, "y": 200.0}), 2.0)


class Ledger(unittest.TestCase):
    def test_host_time_per_unit_of_work(self):
        p = {"cells": [cell("a", "1b", run_s=2.0, big_retired=4000),
                       cell("b", "1b", run_s=1.0, big_retired=2000),
                       cell("c", "1b-4VL", run_s=3.0, uops=1000,
                            unit_lines=7),
                       cell("d", "1bIV", kind="sweep", run_s=9.0,
                            uops=10)],
             "dryruns": [{"insts": 3000000, "s": 0.1}],
             "summary": {"counters": {"cache_hits": 7, "farm_hits": 11}},
             "spans": [span("workloads.makeWorkload", 0.0, 0.02),
                       span("workloads.makeWorkload", 1.0, 1.04)]}
        led = metrics.ledger(p)
        self.assertAlmostEqual(led["cpu.big.ns_per_inst"], 500000.0)
        self.assertAlmostEqual(led["core.vlittle.ns_per_uop"], 3e6)
        self.assertEqual(led["cpu.ivu.ns_per_uop"], 0.0)
        self.assertEqual(led["cpu.little.ns_per_inst"], 0.0)
        self.assertEqual(led["core.unit_lines"], 7)
        self.assertAlmostEqual(led["isa.ff_mips"], 30.0)
        self.assertAlmostEqual(led["workloads.build_ms"], 30.0)
        self.assertEqual(led["sweep.cache_hits"], 7)
        self.assertAlmostEqual(led["workloads.self_s"], 0.06)
        self.assertEqual(led["cpu.self_s"], 0.0)

    def test_median_ledger(self):
        led = metrics.median_ledger([{"m": 1.0}, {"m": 5.0}, {"m": 2.0}])
        self.assertEqual(led, {"m": 2.0})


if __name__ == "__main__":
    unittest.main()
