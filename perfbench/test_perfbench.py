"""Tests of the benchmark's own logic; they need no build.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import unittest

import run
import workloads


class PercentileGuard(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(run.percentile(xs, 50), 50)
        self.assertEqual(run.percentile(xs, 99), 99)
        self.assertEqual(run.percentile(xs, 100), 100)
        self.assertEqual(run.percentile([7], 99), 7)

    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertEqual(run.samples_beyond(1000, 99), 10)
        self.assertEqual(run.samples_beyond(999, 99), 9)
        self.assertEqual(run.tail_percentile(list(range(1000)), 99), 989)
        with self.assertRaises(run.BenchError):
            run.tail_percentile(list(range(999)), 99)
        with self.assertRaises(run.BenchError):
            run.tail_percentile([1.0] * 50, 99)

    def test_end_to_end_refuses_a_thin_run(self):
        n = 1000 * run.P99_SLICES
        out = {"setups": [(1, 1, 0)], "measured_ns": 10**9, "rss_kb": 1024,
               "ops": [("p", 10**6, True, 0)] * (n - 1)}
        with self.assertRaises(run.BenchError):
            run.end_to_end(out)
        out["ops"] = [("p", 10**6, True, 0)] * n
        self.assertEqual(run.end_to_end(out)["latency_ms_p99"], 1.0)

    def test_sliced_p99_ignores_one_stalled_slice(self):
        calm = list(range(1000))
        stalled = calm[:980] + [10**6] * 20
        self.assertEqual(run.sliced_p99(calm * 4 + stalled, 5), 989)
        self.assertEqual(run.sliced_p99(calm * 5, 5), 989)


class SchemaGuard(unittest.TestCase):
    def test_tables_pass(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            run.check_schema(run.wrap({k: 1.5 for k in table}, table), table)

    def test_bad_name(self):
        table = {"bad name": "ms"}
        with self.assertRaises(run.BenchError):
            run.check_schema(run.wrap({"bad name": 1.0}, table), table)

    def test_missing_or_wrong_unit(self):
        table = {"latency_ms_p50": "ms"}
        with self.assertRaises(run.BenchError):
            run.check_schema({"latency_ms_p50": {"value": 1.0}}, table)
        with self.assertRaises(run.BenchError):
            run.check_schema(
                {"latency_ms_p50": {"value": 1.0, "unit": "s"}}, table)

    def test_missing_metric_and_non_finite_value(self):
        table = {"a": "ms", "b": "ms"}
        with self.assertRaises(run.BenchError):
            run.check_schema(run.wrap({"a": 1.0}, {"a": "ms"}), table)
        with self.assertRaises(run.BenchError):
            run.check_schema(run.wrap({"a": 1.0, "b": math.nan}, table),
                             table)

    def test_benchmark_json_matches_the_tables(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]),
                         workloads.WORKLOADS)
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower",
                       "bound": max(m["bound"] for m in bench["end_to_end"])},
                      bench["end_to_end"])


class SeededInputs(unittest.TestCase):
    def test_op_sequence_is_a_function_of_the_seed(self):
        for w in ("apps", "control", "load"):
            a = workloads.op_sequence(w, 7)
            self.assertEqual(a, workloads.op_sequence(w, 7))
            self.assertNotEqual(a, workloads.op_sequence(w, 8))
            n = workloads.COUNT_LENGTH[w]
            self.assertNotEqual(a[:n], workloads.op_sequence(w, 8)[:n])
            self.assertEqual({p for p, _ in a}, set(workloads.kinds(w)))

    def test_serve_arrivals_are_a_function_of_the_seed(self):
        a = workloads.arrivals(7, 10)
        self.assertEqual(a, workloads.arrivals(7, 10))
        self.assertNotEqual(a, workloads.arrivals(8, 10))
        dues = [d for d, _, _ in a]
        self.assertEqual(dues, sorted(dues))
        self.assertLess(dues[-1], 10 * 10**6)
        rate = workloads.SERVE_RATE_PER_S
        self.assertLess(abs(len(a) - 10 * rate), 0.05 * 10 * rate)
        self.assertEqual({k for _, k, _ in a}, set(workloads.SERVE))

    def test_driver_input_is_a_function_of_the_seed(self):
        for w in workloads.WORKLOADS:
            s = workloads.spec(w, 3, 2, "run", 5)
            self.assertEqual(s, workloads.spec(w, 3, 2, "run", 5))
            self.assertNotEqual(s, workloads.spec(w, 4, 2, "run", 5))

    def test_every_op_has_a_committed_answer(self):
        for w in ("apps", "control", "load"):
            for prog, exprs in workloads.kinds(w).items():
                self.assertTrue(workloads.program_source(prog))
                for e in exprs:
                    self.assertTrue(workloads.expected(prog, e))
        for _, sources in workloads.SERVE.values():
            for src in sources:
                self.assertTrue(workloads.expected("serve", src))
                self.assertNotIn("\t", src)


class DerivedMetrics(unittest.TestCase):
    def test_ratios_of_nothing_are_zero(self):
        self.assertEqual(run.ratio(0, 0), 0.0)
        self.assertEqual(run.ratio(1, 4), 0.25)


if __name__ == "__main__":
    unittest.main()
