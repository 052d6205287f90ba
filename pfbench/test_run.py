"""Unit tests of the benchmark runner's helpers.

    python3 -m unittest discover -s pfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class NearestRankTest(unittest.TestCase):
    def test_picks_the_ceil_rank(self):
        xs = list(range(1, 101))  # 1..100, shuffled order must not matter
        xs.reverse()
        self.assertEqual(run.nearest_rank(xs, 50), 50)
        self.assertEqual(run.nearest_rank(xs, 90), 90)
        self.assertEqual(run.nearest_rank(xs, 89.5), 90)

    def test_refuses_fewer_than_ten_samples_beyond(self):
        xs = list(range(100))
        self.assertEqual(run.nearest_rank(xs, 90), 89)  # exactly 10 beyond
        with self.assertRaises(ValueError):
            run.nearest_rank(xs, 91)  # 9 beyond
        with self.assertRaises(ValueError):
            run.nearest_rank(list(range(19)), 50)  # median of 19: 9 beyond
        self.assertEqual(run.nearest_rank(list(range(20)), 50), 9)
        with self.assertRaises(ValueError):
            run.nearest_rank(list(range(999)), 99)
        with self.assertRaises(ValueError):
            run.nearest_rank([], 50)

    def test_rejects_out_of_range_percentiles(self):
        with self.assertRaises(ValueError):
            run.nearest_rank(list(range(100)), 0)
        with self.assertRaises(ValueError):
            run.nearest_rank(list(range(100)), 101)


class MetricNameTest(unittest.TestCase):
    def test_accepts_the_name_alphabet(self):
        for name in ("setup_s", "comm.ring_wait_us_p50.fwd_0_1", "9x", "a-b.c_d",
                     "x" * 64):
            self.assertTrue(run.valid_name(name), name)

    def test_rejects_everything_else(self):
        for name in ("", "_lead", ".lead", "fwd[0->1]", "a b", "é", "x" * 65,
                     "ms/step", None, 3):
            self.assertFalse(run.valid_name(name), name)

    def test_every_declared_metric_is_valid(self):
        for spec in (run.END_TO_END, run.PER_LAYER):
            for name, unit in spec.items():
                self.assertTrue(run.valid_name(name), name)
                self.assertRegex(unit, run.UNIT_RE)
        for wanted in run.SAMPLE_METRICS.values():
            for _, name in wanted:
                self.assertIn(name, run.PER_LAYER)

    def test_benchmark_json_matches_the_runner(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


class ResultSchemaTest(unittest.TestCase):
    SPEC = {"latency_ms_p50": "ms", "setup_s": "s"}

    def good(self):
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"latency_ms_p50": {"value": 1.25, "unit": "ms"},
                            "setup_s": {"value": 0.5, "unit": "s"}}}

    def test_accepts_a_well_formed_result(self):
        self.assertEqual(run.validate_result(self.good(), self.SPEC), self.good())

    def test_rejects_malformed_results(self):
        def broken(edit):
            r = self.good()
            edit(r)
            return r

        cases = [
            lambda r: r.pop("failed"),
            lambda r: r.update(extra=1),
            lambda r: r.update(correct="yes"),
            lambda r: r.update(attempted=0),
            lambda r: r.update(attempted=1.5),
            lambda r: r.update(failed=True),
            lambda r: r["metrics"].pop("setup_s"),
            lambda r: r["metrics"].update(other={"value": 1, "unit": "s"}),
            lambda r: r["metrics"]["setup_s"].update(value=float("nan")),
            lambda r: r["metrics"]["setup_s"].update(value="1"),
            lambda r: r["metrics"]["setup_s"].update(unit="ms"),
            lambda r: r["metrics"]["setup_s"].pop("unit"),
        ]
        for edit in cases:
            with self.assertRaises(ValueError):
                run.validate_result(broken(edit), self.SPEC)

    def test_result_is_one_json_line(self):
        line = json.dumps(self.good())
        self.assertNotIn("\n", line)
        self.assertEqual(json.loads(line), self.good())


class AggregationTest(unittest.TestCase):
    def proc(self, lat, setup):
        return {"values": {"setup_s": setup, "peak_rss_mib": 100.0,
                           "loss_end": 4.0},
                "samples": {"latency_ms": lat,
                            "throughput_per_s": [1000.0 / x for x in lat]},
                "layers": {}}

    def test_end_to_end_pools_processes(self):
        runs = [self.proc([10.0] * 60, 0.3),
                self.proc([30.0] * 60, 0.5),
                self.proc([20.0] * 60, 0.4)]
        m = run.end_to_end(runs)
        self.assertEqual(m["throughput_per_s"], 50.0)  # median chunk rate
        self.assertEqual(m["setup_s"], 0.4)
        self.assertEqual(m["latency_ms_p50"], 20.0)
        self.assertEqual(m["latency_ms_p90"], 30.0)
        self.assertEqual(set(m), set(run.END_TO_END))

    def test_quietest_keeps_the_least_stolen_runs(self):
        runs = [{"steal_frac": s, "i": i}
                for i, s in enumerate([0.05, 0.0, 0.02, 0.0, 0.3, 0.01])]
        self.assertEqual([r["i"] for r in run.quietest(runs)], [1, 3, 5, 2])


if __name__ == "__main__":
    unittest.main()
