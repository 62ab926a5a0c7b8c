#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a source tree:

    python3 perfbench/test_harness.py

Covers the metric names BENCHMARK.json declares, the tail-percentile rule
and the spread statistics here, and builds and runs the C++ tests of the
span arithmetic and the trace JSON (perfbench/tests/test_trace.cpp).
"""

import os
import re
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
import harness  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.bench = harness.load_benchmark()

    def test_metric_names_are_valid_and_unique(self):
        names = []
        for key in ("end_to_end", "per_layer"):
            for m in self.bench[key]:
                self.assertTrue(NAME_RE.fullmatch(m["name"]), m["name"])
                self.assertTrue(UNIT_RE.fullmatch(m["unit"]), m["unit"])
                self.assertIn(m["better"], ("higher", "lower"))
                names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))

    def test_workloads_match_the_harness(self):
        self.assertEqual(tuple(w["name"] for w in self.bench["workloads"]),
                         harness.WORKLOADS)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))

    def test_golden_tables_cover_every_workload(self):
        for w in harness.WORKLOADS:
            path = harness.golden_path(w, harness.DEFAULT_SEED)
            with open(path) as f:
                header = f.readline().strip()
            self.assertFalse(header.endswith("task_wall_ms"), path)
        self.assertIsNone(harness.golden_path(harness.WORKLOADS[0],
                                              harness.DEFAULT_SEED + 1))


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond_the_median(self):
        self.assertIsNone(harness.tail_percentile(range(19)))
        self.assertEqual(harness.tail_percentile(range(1, 21)), (50, 10, 20))

    def test_picks_the_highest_percentile_with_ten_beyond(self):
        # p75 of 39 samples is the 30th, leaving only 9 beyond it.
        self.assertEqual(harness.tail_percentile(range(1, 40))[0], 50)
        self.assertEqual(harness.tail_percentile(range(1, 41)), (75, 30, 40))
        self.assertEqual(harness.tail_percentile(range(1, 101)),
                         (90, 90, 100))
        self.assertEqual(harness.tail_percentile(range(1, 201))[0], 95)
        self.assertEqual(harness.tail_percentile(range(1, 1001)),
                         (99, 990, 1000))
        self.assertEqual(harness.tail_percentile(range(1, 10001))[0], 99.9)

    def test_order_of_samples_does_not_matter(self):
        xs = [5.0 - 0.1 * i for i in range(40)]
        self.assertEqual(harness.tail_percentile(xs),
                         harness.tail_percentile(sorted(xs)))


class SpreadTest(unittest.TestCase):
    def test_quartile_spread_is_relative_to_the_median(self):
        values = [10, 11, 9, 10, 12, 8, 10]
        q1, q2, q3 = harness.quartiles(values)
        self.assertEqual(q2, 10)
        self.assertAlmostEqual(harness.spread(values), (q3 - q1) / 10)
        self.assertEqual(harness.spread([3.0] * 4), 0.0)


class CppTraceTest(unittest.TestCase):
    def test_span_arithmetic_and_trace_json(self):
        binary = harness.build()
        tests = os.path.join(os.path.dirname(binary), "perfbench_tests")
        proc = subprocess.run([tests], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
