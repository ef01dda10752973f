#!/usr/bin/env python3
"""Unit tests for bench/e2e/reducer.py (stdlib unittest; no pytest needed).

  python3 -B -m unittest discover -s bench/e2e/tests -v
"""

import copy
import json
import os
import sys
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(_HERE, os.pardir))
import reducer  # noqa: E402

_BENCHMARK_JSON = os.path.join(_HERE, os.pardir, os.pardir, os.pardir, "BENCHMARK.json")


def span(span_id, parent, name, layer, start, end, op=1):
    return {"id": span_id, "parent": parent, "op": op, "name": name, "layer": layer,
            "start_ns": start, "end_ns": end}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1000, 0, -1))  # Unsorted input.
        self.assertEqual(reducer.percentile(values, 99), 990)
        self.assertEqual(reducer.percentile(values, 50), 500)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNotNone(reducer.percentile(list(range(1000)), 99))
        self.assertIsNone(reducer.percentile(list(range(999)), 99))
        self.assertIsNotNone(reducer.percentile(list(range(20)), 50))
        self.assertIsNone(reducer.percentile(list(range(19)), 50))
        self.assertIsNone(reducer.percentile([], 50))


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        spans = [
            span(0, -1, "meeting", "bench", 0, 100),
            span(1, 0, "encode", "wire", 10, 30),
            span(2, 0, "apply", "core", 20, 50),  # Overlaps the encode.
            span(3, 0, "apply", "core", 60, 70),
            span(4, 3, "inner", "markov", 62, 66),
        ]
        selfs = reducer.self_times(spans)
        self.assertEqual(selfs[0], 100 - 40 - 10)
        self.assertEqual(selfs[1], 20)
        self.assertEqual(selfs[3], 6)
        self.assertEqual(selfs[4], 4)

    def test_layer_self_times_and_residual_add_up(self):
        spans = [
            span(0, -1, "meeting", "bench", 0, 1_000_000),
            span(1, 0, "encode", "wire", 0, 300_000),
            span(2, 0, "apply", "core", 300_000, 900_000),
            span(3, -1, "meeting", "bench", 0, 2_000_000, op=2),
            span(4, 3, "apply", "core", 0, 2_000_000, op=2),
        ]
        values = reducer.reduce_spans(spans)
        self.assertAlmostEqual(values["self.wire_ms_per_op"], 0.15)
        self.assertAlmostEqual(values["self.core_ms_per_op"], 1.3)
        self.assertAlmostEqual(values["trace.residual_share"], 0.1 / 3.0)
        total = sum(values["self.%s_ms_per_op" % layer] for layer in reducer.LAYERS)
        residual_ms = values["trace.residual_share"] * 3.0 / 2
        self.assertAlmostEqual(total + residual_ms, 3.0 / 2)


class BestOfRoundsTest(unittest.TestCase):
    def test_fastest_round_of_each_operation(self):
        # Three rounds of four operations; a slow spell hits round 0's start
        # and round 2's end.
        values = [9, 9, 3, 4] + [1, 2, 5, 4] + [2, 2, 9, 9]
        self.assertEqual(reducer.best_of_rounds(values, 3), [1, 2, 3, 4])
        self.assertEqual(reducer.best_of_rounds(values, 1), values)

    def test_uneven_rounds_raise(self):
        with self.assertRaises(ValueError):
            reducer.best_of_rounds([1, 2, 3], 2)


class BoundTest(unittest.TestCase):
    def test_direction(self):
        self.assertAlmostEqual(reducer.worsening(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(reducer.worsening(100, 110, "higher"), -0.10)
        self.assertAlmostEqual(reducer.worsening(100, 90, "higher"), 0.10)

    def test_within_bound(self):
        self.assertTrue(reducer.within_bound(100, 105, "lower", 0.1))
        self.assertFalse(reducer.within_bound(100, 111, "lower", 0.1))
        self.assertTrue(reducer.within_bound(100, 150, "higher", 0.1))
        self.assertFalse(reducer.within_bound(100, 85, "higher", 0.1))

    def test_spread(self):
        self.assertAlmostEqual(reducer.spread([90, 100, 110]), 0.2)
        self.assertAlmostEqual(reducer.spread([110, 100, 95, 105, 90]), 0.2)


class ComputeMetricsTest(unittest.TestCase):
    def test_unmeasured_layers_report_zero_and_missing_data_raises(self):
        run = {"workload": "serve_zipf",
               "samples": {"op_ms": [1.0] * 40 + [3.0] * 40, "setup_s": [2.0, 4.0, 3.0],
                           "capacity_chunk_s": [0.1, 0.4, 0.2, 0.1]},
               "values": {"rounds": 2, "capacity_chunk_queries": 100,
                          "peak_rss_mb": 7.0}}
        metrics = reducer.compute_metrics(run, reducer.END_TO_END)
        self.assertEqual(metrics["latency_p50_ms"], 1.0)
        self.assertEqual(metrics["setup_s"], 3.0)
        # Chunks at their fastest round: 0.1 s and 0.1 s for 2 x 100 queries.
        self.assertAlmostEqual(metrics["throughput_per_s"], 200 / 0.2)
        layer = {"wire.encode_ms.p50": reducer.PER_LAYER["wire.encode_ms.p50"]}
        self.assertEqual(reducer.compute_metrics(run, layer), {"wire.encode_ms.p50": 0.0})
        with self.assertRaises(ValueError):
            reducer.compute_metrics(dict(run, workload="sim_meet"), layer)

    def test_meeting_throughput_uses_each_meeting_at_its_fastest(self):
        run = {"workload": "net_replay",
               "samples": {"op_ms": [2.0] * 20 + [1.0] * 20 + [4.0] * 40},
               "values": {"rounds": 2}}
        self.assertAlmostEqual(reducer.compute_metrics(
            run, {"t": reducer.END_TO_END["throughput_per_s"]})["t"], 1e3 * 40 / 60)


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        with open(_BENCHMARK_JSON) as f:
            self.spec = json.load(f)

    def errors_after(self, mutate):
        spec = copy.deepcopy(self.spec)
        mutate(spec)
        return reducer.validate_benchmark(spec)

    def test_repository_file_is_valid_and_matches_the_reducer(self):
        self.assertEqual(reducer.validate_benchmark(self.spec), [])
        for section, names in (("end_to_end", reducer.END_TO_END),
                               ("per_layer", reducer.PER_LAYER),
                               ("workloads", reducer.WORKLOADS)):
            self.assertEqual([entry["name"] for entry in self.spec[section]], list(names))

    def test_name_charset(self):
        def rename(spec):
            spec["workloads"][0]["name"] = "sim meet"
        self.assertTrue(self.errors_after(rename))
        self.assertFalse(reducer.NAME_RE.match("a/b"))
        self.assertTrue(reducer.NAME_RE.match("core.apply_ms.p50"))

    def test_metric_count_limits(self):
        def too_many_end_to_end(spec):
            spec["end_to_end"] = spec["end_to_end"] * 5
        def too_many_per_layer(spec):
            spec["per_layer"] = spec["per_layer"] * 3
        self.assertIn("1 to 16 end_to_end metrics",
                      self.errors_after(too_many_end_to_end))
        self.assertIn("1 to 128 per_layer metrics", self.errors_after(too_many_per_layer))
        self.assertIn("a name is used twice", self.errors_after(too_many_per_layer))

    def test_every_metric_maps_to_a_listed_workload(self):
        def drop_sim_meet(spec):
            spec["workloads"] = [w for w in spec["workloads"] if w["name"] != "sim_meet"]
        errors = self.errors_after(drop_sim_meet)
        self.assertIn(
            "per_layer metrics.time_to_target_s: measured on no listed workload", errors)

    def test_unknown_workload(self):
        def add_workload(spec):
            spec["workloads"].append({"name": "net_chaos", "why": "x"})
        self.assertIn("workload 'net_chaos' is not run by run.py",
                      self.errors_after(add_workload))

    def test_bounds_and_setup(self):
        def loose_bound(spec):
            spec["end_to_end"][0]["bound"] = 0.3
        def no_setup(spec):
            spec["end_to_end"] = [m for m in spec["end_to_end"] if m["name"] != "setup_s"]
        self.assertTrue(self.errors_after(loose_bound))
        self.assertTrue(self.errors_after(no_setup))


if __name__ == "__main__":
    unittest.main()
