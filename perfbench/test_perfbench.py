#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py            # everything
    python3 perfbench/test_perfbench.py Metrics    # metric maths only

Metrics covers the maths (geomean, paper error, span self time, the
digest and the correctness gate) on hand-made inputs. Controls builds
the driver and proves the gate fires on real runs: a crash pair with
recovery skipped, and a checked cell with an injected ordering
violation, must both be counted as failed.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
import run  # noqa: E402


def sim_cell(**over):
    cell = {"scheme": "PMEM", "workload": "QE", "finished": True,
            "cycles": 100, "retiredOps": 50, "nvmWrites": 3, "nvmReads": 4,
            "committedTxs": 5, "logWritesDropped": 0,
            "frontendStallCycles": 7, "cpi": [60, 0, 20, 0, 10, 0, 10],
            "txEndOps": 5, "coreCycles": [100], "coreCpi": [100],
            "traceOps": 50}
    cell.update(over)
    return cell


def crash_cell(**over):
    cell = {"scheme": "PMEM", "workload": "QE", "points": 10,
            "badPoints": 0, "checkViolations": 0, "totalCycles": 100,
            "totalTxs": 5, "pointsHash": "00ff", "traceOps": 50}
    cell.update(over)
    return cell


def span(sid, parent, start, end, name="x", pass_="traced"):
    return {"id": sid, "parent": parent, "start": start, "end": end,
            "name": name, "pass": pass_, "cell": 0}


class Metrics(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(metrics.geomean([1, 4]), 2.0)
        self.assertAlmostEqual(metrics.geomean([2, 2, 2]), 2.0)
        with self.assertRaises(ValueError):
            metrics.geomean([1, 0])

    def test_paper_error_point_and_range(self):
        self.assertAlmostEqual(metrics.paper_error("ATOM", 1.33), 0.0)
        self.assertAlmostEqual(metrics.paper_error("ATOM", 1.463), 10.0)
        # Inside the Proteus range: no error; outside: to the nearest end.
        self.assertEqual(metrics.paper_error("Proteus", 1.45), 0.0)
        self.assertAlmostEqual(metrics.paper_error("Proteus", 1.617), 10.0)
        self.assertAlmostEqual(metrics.paper_error("Proteus", 1.296), 10.0)
        self.assertNotIn("Proteus+NoLWR", metrics.PAPER_FIG6)

    def test_fig6_speedup_err(self):
        speed = {"PMEM": 1.0, "PMEM+pcommit": 0.79, "ATOM": 1.33,
                 "Proteus": 1.45, "PMEM+nolog": 1.51 * 1.1,
                 "Proteus+NoLWR": 9.0}
        cells = [{"scheme": s, "workload": w, "cycles": 1000.0 / v}
                 for s, v in speed.items() for w in ("QE", "BT")]
        # Only PMEM+nolog is off (by 10%); the mean is over four schemes.
        self.assertAlmostEqual(metrics.fig6_speedup_err(cells), 2.5)
        crash = [{"scheme": c["scheme"], "workload": c["workload"],
                  "totalCycles": c["cycles"]} for c in cells]
        self.assertAlmostEqual(metrics.fig6_speedup_err(crash), 2.5)

    def test_self_time_subtracts_covered_children(self):
        spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 3.0),
                 span(3, 1, 2.0, 5.0),      # overlaps child 2
                 span(4, 1, 9.0, 12.0),     # runs past the parent
                 span(5, 3, 2.5, 4.0)]      # grandchild: not the root's
        own = metrics.self_times(spans)
        self.assertAlmostEqual(own[1], 10.0 - (4.0 + 1.0))
        self.assertAlmostEqual(own[3], 3.0 - 1.5)
        self.assertAlmostEqual(own[2], 2.0)

    def test_layer_seconds_filters_name_and_pass(self):
        spans = [span(1, 0, 0, 4, "cell"), span(2, 1, 0, 1, "simulate"),
                 span(3, 0, 0, 2, "simulate", "noskip")]
        self.assertAlmostEqual(
            metrics.layer_seconds(spans, "simulate", ("traced",)), 1.0)
        self.assertAlmostEqual(
            metrics.layer_seconds(spans, "cell", ("traced",)), 3.0)
        self.assertAlmostEqual(
            metrics.layer_seconds(spans, "simulate", ("noskip",)), 2.0)

    def test_digest_covers_golden_counters_only(self):
        base = metrics.digest(sim_cell())
        self.assertEqual(base, metrics.digest(sim_cell()))
        self.assertEqual(len(base), 16)
        self.assertEqual(base, metrics.digest(sim_cell(kernelSteps=9)))
        for field, value in (("cycles", 101), ("nvmWrites", 4),
                             ("cpi", [61, 0, 19, 0, 10, 0, 10])):
            self.assertNotEqual(base, metrics.digest(sim_cell(**{field: value})))
        self.assertNotEqual(metrics.digest(crash_cell()),
                            metrics.digest(crash_cell(pointsHash="01ff")))

    def test_gate(self):
        self.assertEqual(metrics.cell_ops(sim_cell()), (1, 0))
        self.assertEqual(metrics.cell_ops(
            sim_cell(check={"pass": True, "events": 3})), (1, 0))
        for bad in ({"finished": False}, {"committedTxs": 4},
                    {"coreCpi": [99]}, {"cpi": [61, 0, 20, 0, 10, 0, 10]},
                    {"check": {"pass": False, "events": 3}}):
            self.assertEqual(metrics.cell_ops(sim_cell(**bad)), (1, 1), bad)
        self.assertEqual(metrics.cell_ops(crash_cell()), (10, 0))
        self.assertEqual(metrics.cell_ops(crash_cell(badPoints=3)), (10, 3))
        self.assertEqual(metrics.cell_ops(crash_cell(checkViolations=1)),
                         (10, 10))
        self.assertEqual(metrics.cell_ops(crash_cell(points=0)), (1, 1))

    def test_digest_mismatch_fails_the_cell(self):
        doc = {"passes": [
            {"label": "setup", "cells": [{"traceOps": 1}]},
            {"label": "reference", "cells": [sim_cell(), sim_cell()]},
            {"label": "timed", "cells": [sim_cell(), sim_cell(nvmReads=5)]},
        ]}
        attempted, failed, digests = metrics.judge(doc)
        self.assertEqual((attempted, failed), (4, 1))
        self.assertEqual(digests[("PMEM/QE run", 1)],
                         metrics.digest(sim_cell()))

    def test_crash_pair_must_match_its_reference_run(self):
        doc = {"passes": [
            {"label": "setup", "cells": [sim_cell(), sim_cell()]},
            {"label": "timed", "cells": [crash_cell(),
                                         crash_cell(totalCycles=99)]},
        ]}
        attempted, failed, digests = metrics.judge(doc)
        self.assertEqual((attempted, failed), (22, 10))
        self.assertEqual(len(digests), 4)

    def test_evaluate_reports_exactly_the_benchmark_metrics(self):
        cells = [sim_cell(scheme=s, workload=w, bundleTxs=9,
                          kernelSteps=40, skippedCycles=60,
                          mcWriteAttempts=10, mcWriteNoCandidate=9,
                          wpqOccupancy=2, lpqOccupancy=1, l3Hits=1,
                          l3Misses=3)
                 for s in ("PMEM", *metrics.PAPER_FIG6)
                 for w in ("QE", "BT")]

        def pass_(label, wall):
            return {"label": label, "traced": label != "plain",
                    "wall_s": wall, "cacheHits": 0,
                    "cacheMisses": len(cells), "cacheResident": len(cells),
                    "cells": cells}

        doc = {"setup_s": [0.5, 0.4, 0.6], "peak_rss_mb": 100.0,
               "passes": [pass_("timed", 2.0), pass_("timed", 4.0)],
               "spans": []}
        result, _ = metrics.evaluate(doc, 0)
        self.assertEqual(tuple(result["metrics"]), metrics.END_TO_END)
        self.assertEqual((result["attempted"], result["failed"]), (20, 0))
        self.assertEqual(result["metrics"]["wall_s"]["value"], 3.0)
        self.assertEqual(result["metrics"]["setup_s"]["value"], 0.5)

        doc["passes"] = [pass_("plain", 2.0), pass_("traced", 2.5),
                         pass_("noskip", 3.0)]
        doc["spans"] = [span(1, 0, 0, 3, "simulate"),
                        span(2, 0, 0, 6, "simulate", "noskip")]
        result, _ = metrics.evaluate(doc, 1)
        got = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(tuple(got), metrics.PER_LAYER)
        self.assertAlmostEqual(got["trace.overhead_pct"], 25.0)
        self.assertAlmostEqual(got["sim.skip_speedup"], 2.0)
        self.assertAlmostEqual(got["memctrl.write_pick_yield"], 0.1)
        self.assertAlmostEqual(got["cache.l3_miss_ratio"], 0.75)


class Controls(unittest.TestCase):
    """Negative controls: deliberately broken runs must fail the gate."""

    @classmethod
    def setUpClass(cls):
        cls.driver = run.build()

    def judge(self, workload, control):
        doc = run.run_driver(self.driver, workload, 1, 0, 0, control)
        attempted, failed, _ = metrics.judge(doc)
        self.assertGreater(attempted, 0)
        return failed

    def test_break_recovery_fails_crash_points(self):
        self.assertGreater(self.judge("crash_sweep", "break-recovery"), 0)

    def test_mutated_rule_fails_checked_cell(self):
        self.assertGreater(self.judge("check_matrix", "mutate-rule"), 0)


if __name__ == "__main__":
    unittest.main()
