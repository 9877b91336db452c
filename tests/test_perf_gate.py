#!/usr/bin/env python3
"""Decision tests for tools/perf_gate.py.

Canned perfbench/run.py result lines go straight into the gate's
comparison function with the repository's BENCHMARK.json, so the
verdicts are checked without running the benchmark. Run directly:

    python3 tests/test_perf_gate.py
"""

import importlib.util
import json
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perf_gate", REPO / "tools" / "perf_gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())

BASE = {"tok_s": 1000.0, "latency_p50_ms": 10.0, "latency_tail_ms": 20.0,
        "setup_s": 1.0, "peak_rss_mb": 100.0}


def line(i, scale=None, correct=True, attempted=1000, failed=0):
    """run.py's last line for run @p i: BASE with +-1% jitter, each
    metric multiplied by its factor in @p scale."""
    jitter = 1.0 + 0.01 * ((i % 3) - 1)
    metrics = {m["name"]: {"value": BASE[m["name"]] * jitter *
                           (scale or {}).get(m["name"], 1.0),
                           "unit": m["unit"]} for m in SPEC["end_to_end"]}
    return json.loads(json.dumps({"correct": correct,
                                  "attempted": attempted,
                                  "failed": failed, "metrics": metrics}))


def pairs(change=None, parent=None):
    """10 (parent, change) pairs; keyword dicts go to line()."""
    return [(line(i, **(parent or {})), line(i, **(change or {})))
            for i in range(10)]


class PerfGateTest(unittest.TestCase):
    def verdicts(self, rows):
        return {r["metric"]["name"]: r["verdict"] for r in rows}

    def test_within_bound_passes(self):
        rows, failures = gate.judge(SPEC, "serve_fp8kv", pairs(
            change={"scale": {"tok_s": 0.9, "latency_p50_ms": 1.2,
                              "peak_rss_mb": 1.05}}))
        self.assertEqual(failures, [])
        self.assertEqual(set(self.verdicts(rows).values()), {"ok"})
        self.assertEqual(len(rows), len(SPEC["end_to_end"]))

    def test_regression_on_a_higher_is_better_metric_fails(self):
        rows, failures = gate.judge(SPEC, "serve_fp8kv", pairs(
            change={"scale": {"tok_s": 0.7}}))
        self.assertEqual(len(failures), 1)
        self.assertIn("serve_fp8kv tok_s", failures[0])
        self.assertEqual(self.verdicts(rows)["tok_s"], "REGRESSED")

    def test_regression_on_a_lower_is_better_metric_fails(self):
        rows, failures = gate.judge(SPEC, "serve_fp32kv", pairs(
            change={"scale": {"latency_p50_ms": 1.3}}))
        self.assertEqual(len(failures), 1)
        self.assertIn("serve_fp32kv latency_p50_ms", failures[0])
        self.assertEqual(self.verdicts(rows)["latency_p50_ms"],
                         "REGRESSED")

    def test_improvements_never_fail(self):
        _, failures = gate.judge(SPEC, "train_fp4_snip", pairs(
            change={"scale": {"tok_s": 2.0, "latency_p50_ms": 0.5,
                              "setup_s": 0.5, "peak_rss_mb": 0.5}}))
        self.assertEqual(failures, [])

    def test_peak_rss_is_judged_by_its_own_bound(self):
        rows, failures = gate.judge(SPEC, "train_fp4_snip", pairs(
            change={"scale": {"peak_rss_mb": 1.15}}))
        self.assertEqual(len(failures), 1)
        self.assertIn("train_fp4_snip peak_rss_mb", failures[0])
        self.assertEqual(self.verdicts(rows),
                         {"tok_s": "ok", "latency_p50_ms": "ok",
                          "latency_tail_ms": "ok", "setup_s": "ok",
                          "peak_rss_mb": "REGRESSED"})

    def test_a_wide_parent_spread_is_unresolved_not_failing(self):
        wide = [(line(i, scale={"setup_s": 1.0 + 0.2 * (i % 4)}),
                 line(i, scale={"setup_s": 1.1})) for i in range(10)]
        rows, failures = gate.judge(SPEC, "serve_fp8kv", wide)
        self.assertEqual(failures, [])
        self.assertEqual(self.verdicts(rows)["setup_s"], "unresolved")

    def test_higher_failed_share_fails(self):
        _, failures = gate.judge(SPEC, "serve_fp8kv", pairs(
            change={"failed": 2}, parent={"failed": 1}))
        self.assertEqual(len(failures), 1)
        self.assertIn("failed share", failures[0])
        _, failures = gate.judge(SPEC, "serve_fp8kv", pairs(
            change={"failed": 1}, parent={"failed": 1}))
        self.assertEqual(failures, [])

    def test_incorrect_or_failed_change_run_fails(self):
        for bad in (line(3, correct=False), None):
            runs = pairs()
            runs[3] = (runs[3][0], bad)
            rows, failures = gate.judge(SPEC, "serve_fp8kv", runs)
            self.assertEqual(rows, [])
            self.assertEqual(len(failures), 1)
            self.assertIn("change run 3", failures[0])

    def test_a_failing_parent_cannot_be_compared(self):
        for bad in (line(5, correct=False), None):
            runs = pairs()
            runs[5] = (bad, runs[5][1])
            self.assertEqual(gate.judge(SPEC, "serve_fp8kv", runs),
                             ([], None))

    def test_pair_order_alternates(self):
        self.assertEqual(gate.sides(0), ("parent", "change"))
        self.assertEqual(gate.sides(1), ("change", "parent"))
        firsts = [gate.sides(i)[0] for i in range(gate.PAIRS)]
        self.assertEqual(firsts, ["parent", "change"] * (gate.PAIRS // 2))


if __name__ == "__main__":
    unittest.main(verbosity=2)
