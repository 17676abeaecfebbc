"""Tests of the rfbench runner helpers.

    python3 -m unittest discover -s rfbench -p 'test_*.py'
"""

import json
import pathlib
import re
import sys
import unittest

sys.dont_write_bytecode = True
HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

SPEC = benchlib.load_spec(HERE.parent / "BENCHMARK.json")


class TailPercentileTest(unittest.TestCase):
    def test_p99_when_enough_samples_lie_beyond(self):
        values = list(range(1, 2001))  # 2000 samples: p99 has 20 beyond
        value, percentile, count = benchlib.tail_percentile(values)
        self.assertEqual(value, 1980)
        self.assertAlmostEqual(percentile, 0.99)
        self.assertEqual(count, 2000)
        self.assertEqual(sum(v > value for v in values), 20)

    def test_lowers_to_keep_ten_samples_beyond(self):
        values = list(range(1, 201))  # p99 would leave 2 beyond
        value, percentile, count = benchlib.tail_percentile(values)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(percentile, 190 / 200)
        self.assertEqual(count, 200)

    def test_exactly_ten_beyond_at_the_boundary(self):
        values = list(range(1, 1001))  # p99 leaves exactly 10 beyond
        value, percentile, _ = benchlib.tail_percentile(values)
        self.assertEqual(value, 990)
        self.assertAlmostEqual(percentile, 0.99)

    def test_order_of_input_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(benchlib.tail_percentile(values),
                         benchlib.tail_percentile(sorted(values)))

    def test_short_run_reports_its_median(self):
        values = list(range(1, 16))
        value, percentile, count = benchlib.tail_percentile(values)
        self.assertEqual(value, 8)
        self.assertAlmostEqual(percentile, 8 / 15)
        self.assertEqual(count, 15)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.tail_percentile([])


class SteadyTailTest(unittest.TestCase):
    def test_a_burst_in_one_stretch_does_not_move_the_tail(self):
        quiet = list(range(1, 201))
        burst = quiet[:180] + [v + 1000 for v in quiet[180:]]
        values = quiet * 3 + burst
        self.assertGreater(benchlib.tail_percentile(values)[0], 1000)
        value, percentile, count, stretches = benchlib.steady_tail(values)
        self.assertEqual(value, 190)  # 10 beyond in each 200-sample stretch
        self.assertAlmostEqual(percentile, 0.95)
        self.assertEqual((count, stretches), (800, 4))

    def test_short_run_is_one_stretch(self):
        values = list(range(1, 300))
        self.assertEqual(benchlib.steady_tail(values),
                         (*benchlib.tail_percentile(values), 1))


class ThroughputTest(unittest.TestCase):
    def test_median_over_windows(self):
        windows = [[100.0, 1.0], [300.0, 1.0], [200.0, 1.0], [10.0, 1.0]]
        self.assertEqual(benchlib.throughput(windows, 610.0, 4.0), 150.0)

    def test_whole_run_ratio_when_too_few_windows(self):
        self.assertEqual(benchlib.throughput([[100.0, 1.0]], 250.0, 2.5), 100.0)


class FailureAccountingTest(unittest.TestCase):
    def test_clean_run(self):
        self.assertEqual(benchlib.failure_accounting(400, 0), (0.0, True))

    def test_any_failure_makes_the_run_incorrect(self):
        frac, correct = benchlib.failure_accounting(400, 1)
        self.assertAlmostEqual(frac, 0.0025)
        self.assertFalse(correct)

    def test_inconsistent_counts_are_rejected(self):
        for attempted, failed in ((0, 0), (3, 4), (3, -1)):
            with self.assertRaises(ValueError):
                benchlib.failure_accounting(attempted, failed)
        with self.assertRaises(TypeError):
            benchlib.failure_accounting(3.0, 0)

    def test_failures_reach_the_result_line(self):
        values = {name: 1.0 for name in benchlib.declared(SPEC, False)}
        line = json.loads(benchlib.result_line(values, SPEC, False, 10, 2))
        self.assertEqual(line["attempted"], 10)
        self.assertEqual(line["failed"], 2)
        self.assertFalse(line["correct"])


class NamesTest(unittest.TestCase):
    def test_end_to_end_names_match_benchmark_json(self):
        self.assertEqual(tuple(benchlib.declared(SPEC, False)),
                         benchlib.END_TO_END)

    def test_end_to_end_assembly_emits_exactly_the_declared_names(self):
        record = {"block_us": [float(i) for i in range(1, 101)],
                  "ttfb_us": [float(i) for i in range(1, 41)],
                  "setup_s": [0.1, 0.2, 0.3], "windows": [],
                  "samples": 1000.0, "wall_s": 2.0, "rss_mb": 12.5}
        values, counts = benchlib.end_to_end(record)
        benchlib.check_names(values, SPEC, False)
        self.assertEqual(values["samples_per_s"], 500.0)
        self.assertEqual(values["setup_s"], 0.2)
        self.assertEqual(counts["block"]["count"], 100)
        line = json.loads(benchlib.result_line(values, SPEC, False, 5, 0))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(line["metrics"]["setup_s"],
                         {"value": 0.2, "unit": "s"})

    def test_workload_program_emits_exactly_the_declared_per_layer_names(self):
        source = (HERE / "src" / "workloads.cpp").read_text()
        emitted = set(re.findall(r'm\["([A-Za-z0-9_.-]+)"\]', source))
        self.assertEqual(emitted, set(benchlib.declared(SPEC, True)))

    def test_undeclared_or_missing_names_are_rejected(self):
        values = {name: 1.0 for name in benchlib.declared(SPEC, True)}
        benchlib.check_names(values, SPEC, True)
        with self.assertRaises(ValueError):
            benchlib.check_names({**values, "bogus": 1.0}, SPEC, True)
        values.pop("trace.coverage")
        with self.assertRaises(ValueError):
            benchlib.check_names(values, SPEC, True)

    def test_setup_s_is_declared_as_the_contract_requires(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
