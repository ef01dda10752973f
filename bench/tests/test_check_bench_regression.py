#!/usr/bin/env python3
"""Unit tests for bench/check_bench_regression.py (the CI bench gate).

Stdlib-only and unittest-compatible on purpose — the CI image has no
pytest. Run as either of:

  python3 -m unittest discover -s bench/tests -v
  pytest bench/tests            # works too, when pytest exists locally
"""

import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "check_bench_regression.py")
_SPEC = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
cbr = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cbr)


def run_main(argv):
    """Runs the script's main() with `argv`, returning (exit_code, stdout)."""
    out = io.StringIO()
    old_argv = sys.argv
    sys.argv = ["check_bench_regression.py"] + argv
    try:
        with redirect_stdout(out):
            code = cbr.main()
    finally:
        sys.argv = old_argv
    return code, out.getvalue()


class ParseJsonLinesTest(unittest.TestCase):
    def test_skips_headers_and_garbage(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("# header line\n")
                handle.write('{"bench": "query_throughput", "threads": 1}\n')
                handle.write("{not json\n")
                handle.write("[1, 2, 3]\n")  # JSON, but not an object.
                handle.write('  {"bench": "other"}  \n')  # Leading whitespace.
            records = list(cbr.parse_json_lines(path))
        self.assertEqual(len(records), 2)
        self.assertEqual(records[0]["bench"], "query_throughput")
        self.assertEqual(records[1]["bench"], "other")


class ThresholdMathTest(unittest.TestCase):
    """compare() ratio gates: floors for higher_better, ceilings for
    lower_better, boundary values inclusive."""

    def _compare(self, summary, baseline, threshold=0.25):
        with redirect_stdout(io.StringIO()):
            return cbr.compare(summary, baseline, threshold)

    def test_higher_better_floor_is_inclusive(self):
        baseline = {"higher_better": {"qps": 100.0}}
        # Exactly at the floor (100 * 0.75) passes ...
        self.assertEqual(
            self._compare({"higher_better": {"qps": 75.0}}, baseline), [])
        # ... a hair under fails.
        failures = self._compare({"higher_better": {"qps": 74.999}}, baseline)
        self.assertEqual(len(failures), 1)
        self.assertIn("qps", failures[0])
        self.assertIn("dropped", failures[0])

    def test_lower_better_ceiling_is_inclusive(self):
        baseline = {"lower_better": {"cpu_ms": 10.0}}
        self.assertEqual(
            self._compare({"lower_better": {"cpu_ms": 12.5}}, baseline), [])
        failures = self._compare({"lower_better": {"cpu_ms": 12.501}}, baseline)
        self.assertEqual(len(failures), 1)
        self.assertIn("grew", failures[0])

    def test_improvements_never_fail(self):
        baseline = {"higher_better": {"qps": 100.0},
                    "lower_better": {"cpu_ms": 10.0}}
        summary = {"higher_better": {"qps": 1000.0},
                   "lower_better": {"cpu_ms": 0.1}}
        self.assertEqual(self._compare(summary, baseline), [])

    def test_threshold_is_respected(self):
        baseline = {"higher_better": {"qps": 100.0}}
        summary = {"higher_better": {"qps": 60.0}}  # A 40% drop.
        self.assertEqual(len(self._compare(summary, baseline, 0.25)), 1)
        self.assertEqual(self._compare(summary, baseline, 0.5), [])

    def test_zero_baseline_is_skipped(self):
        # A <= 0 baseline cannot anchor a ratio; the metric is not gated.
        baseline = {"higher_better": {"qps": 0.0}}
        summary = {"higher_better": {"qps": 50.0}}
        self.assertEqual(self._compare(summary, baseline), [])

    def test_missing_baseline_key_is_skipped_not_failed(self):
        # New metrics without committed numbers must not break CI.
        baseline = {"higher_better": {}}
        summary = {"higher_better": {"brand_new_metric": 42.0}}
        self.assertEqual(self._compare(summary, baseline), [])

    def test_missing_summary_key_fails(self):
        # A gated baseline key the run no longer produces means a bench arm
        # vanished; that must fail, in every gated section.
        for direction in ("higher_better", "lower_better", "exact"):
            baseline = {direction: {"qps:tfidf:ta": 8000.0}}
            failures = self._compare({direction: {}}, baseline)
            self.assertEqual(len(failures), 1, direction)
            self.assertIn("qps:tfidf:ta", failures[0])
            self.assertIn("missing", failures[0])

    def test_info_section_is_never_gated(self):
        baseline = {"higher_better": {}, "info": {"p99_ms": 1.0}}
        summary = {"higher_better": {}, "info": {"p99_ms": 9999.0}}
        self.assertEqual(self._compare(summary, baseline), [])
        # Nor is an info key that disappeared from the run.
        self.assertEqual(self._compare({"higher_better": {}}, baseline), [])


class ExactKeyTest(unittest.TestCase):
    """Deterministic work counters ("exact" section) fail on ANY mismatch."""

    def _compare(self, summary, baseline, threshold=0.25):
        with redirect_stdout(io.StringIO()):
            return cbr.compare(summary, baseline, threshold)

    def test_exact_match_passes(self):
        baseline = {"exact": {"batch:queries": 500.0}}
        summary = {"exact": {"batch:queries": 500.0}}
        self.assertEqual(self._compare(summary, baseline), [])

    def test_any_drift_fails_even_within_threshold(self):
        baseline = {"exact": {"batch:queries": 500.0}}
        summary = {"exact": {"batch:queries": 501.0}}  # 0.2% "improvement".
        failures = self._compare(summary, baseline)
        self.assertEqual(len(failures), 1)
        self.assertIn("batch:queries", failures[0])
        self.assertIn("exactly", failures[0])

    def test_exact_in_both_directions(self):
        baseline = {"exact": {"k": 10.0}}
        self.assertEqual(len(self._compare({"exact": {"k": 9.0}}, baseline)), 1)
        self.assertEqual(len(self._compare({"exact": {"k": 11.0}}, baseline)), 1)

    def test_missing_exact_baseline_is_skipped(self):
        baseline = {"exact": {}}
        summary = {"exact": {"new_counter": 7.0}}
        self.assertEqual(self._compare(summary, baseline), [])


class SummarizeQueryTest(unittest.TestCase):
    def test_keys_name_sweep_and_processor(self):
        records = [
            {"bench": "query_throughput", "sweep": "tfidf",
             "processor": "exhaustive", "cached": False, "trace": "cold",
             "qps": 100.0, "bytes_per_posting": 7.2},
            {"bench": "query_throughput", "sweep": "tfidf",
             "processor": "exhaustive", "cached": False, "trace": "cold",
             "qps": 120.0, "bytes_per_posting": 7.2},
            {"bench": "query_throughput", "sweep": "tfidf",
             "processor": "maxscore", "cached": True, "trace": "cold",
             "qps": 150.0, "queries": 60, "result_cache_hits": 0,
             "result_cache_misses": 60, "postings_decoded": 40.0},
            {"bench": "query_throughput", "sweep": "tfidf",
             "processor": "maxscore", "cached": True, "trace": "zipf",
             "qps": 9000.0, "queries": 60, "result_cache_hits": 60,
             "result_cache_misses": 0, "postings_decoded": 0,
             "cache_hit_rate": 1.0},
        ]
        summary = cbr.summarize_query(records)
        self.assertEqual(summary["higher_better"],
                         {"qps:tfidf:exhaustive": 120.0,
                          "cache_hit_rate:tfidf:zipf": 1.0})
        self.assertEqual(summary["lower_better"], {"bytes_per_posting": 7.2})
        self.assertEqual(summary["exact"], {
            "postings_decoded:tfidf:maxscore:primed:cold": 40.0,
            "postings_decoded:tfidf:maxscore:primed:zipf": 0.0,
            "queries:tfidf:maxscore:primed:cold": 60.0,
            "queries:tfidf:maxscore:primed:zipf": 60.0,
            "result_cache_hits:tfidf:maxscore:primed:cold": 0.0,
            "result_cache_hits:tfidf:maxscore:primed:zipf": 60.0,
            "result_cache_misses:tfidf:maxscore:primed:cold": 60.0,
            "result_cache_misses:tfidf:maxscore:primed:zipf": 0.0,
        })
        self.assertEqual(summary["info"],
                         {"qps:tfidf:maxscore:cached:cold": 150.0,
                          "qps:tfidf:maxscore:cached:zipf": 9000.0})

    def test_exact_counter_must_agree_across_thread_counts(self):
        def row(threads, postings):
            return {"bench": "query_throughput", "sweep": "fused",
                    "processor": "maxscore", "cached": True, "trace": "cold",
                    "threads": threads, "qps": 1.0, "postings_decoded": postings}
        key = "postings_decoded:fused:maxscore:primed:cold"
        agreed = cbr.summarize_query([row(1, 38460), row(8, 38460)])
        self.assertEqual(agreed["exact"][key], 38460.0)
        split = cbr.summarize_query([row(1, 38460), row(2, 38461), row(8, 38460)])
        with redirect_stdout(io.StringIO()):
            failures = cbr.compare(split, {"exact": {key: 38460.0}}, 0.25)
        self.assertEqual(len(failures), 1)
        self.assertIn(key, failures[0])


class EndToEndTest(unittest.TestCase):
    """main() through temp files: exit codes for the CI-visible outcomes."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def _path(self, name):
        return os.path.join(self.dir, name)

    def _write_query_log(self, qps):
        path = self._path("query.log")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# micro_query_throughput\n")
            handle.write(json.dumps({
                "bench": "query_throughput", "sweep": "tfidf",
                "processor": "maxscore", "cached": False, "trace": "cold",
                "threads": 1, "qps": qps}) + "\n")
        return path

    def test_update_baseline_then_pass(self):
        log = self._write_query_log(100.0)
        baseline = self._path("BASE.json")
        code, _ = run_main(["--input", log,
                            "--output", self._path("out.json"),
                            "--baseline", baseline, "--update-baseline"])
        self.assertEqual(code, 0)
        with open(baseline, encoding="utf-8") as handle:
            written = json.load(handle)
        self.assertEqual(written["higher_better"]["qps:tfidf:maxscore"], 100.0)

        code, out = run_main(["--input", log,
                              "--output", self._path("out2.json"),
                              "--baseline", baseline])
        self.assertEqual(code, 0)
        self.assertIn("PASS", out)

    def test_regression_exits_one(self):
        baseline = self._path("BASE.json")
        run_main(["--input", self._write_query_log(100.0),
                  "--output", self._path("out.json"),
                  "--baseline", baseline, "--update-baseline"])
        code, out = run_main(["--input", self._write_query_log(50.0),
                              "--output", self._path("out2.json"),
                              "--baseline", baseline])
        self.assertEqual(code, 1)
        self.assertIn("FAIL", out)
        self.assertIn("qps:tfidf:maxscore", out)

    def test_missing_baseline_exits_two(self):
        code, out = run_main(["--input", self._write_query_log(100.0),
                              "--output", self._path("out.json"),
                              "--baseline", self._path("NOPE.json")])
        self.assertEqual(code, 2)
        self.assertIn("not found", out)

    def test_empty_input_exits_two(self):
        log = self._path("empty.log")
        with open(log, "w", encoding="utf-8") as handle:
            handle.write("# nothing but headers\n")
        code, out = run_main(["--input", log,
                              "--output", self._path("out.json")])
        self.assertEqual(code, 2)
        self.assertIn("no bench_result lines", out)

    def test_update_baseline_without_baseline_path_exits_two(self):
        code, out = run_main(["--input", self._write_query_log(100.0),
                              "--output", self._path("out.json"),
                              "--update-baseline"])
        self.assertEqual(code, 2)
        self.assertIn("--update-baseline needs --baseline", out)

    def test_no_baseline_writes_summary_and_passes(self):
        out_path = self._path("out.json")
        code, out = run_main(["--input", self._write_query_log(100.0),
                              "--output", out_path])
        self.assertEqual(code, 0)
        self.assertIn("nothing compared", out)
        self.assertTrue(os.path.exists(out_path))


if __name__ == "__main__":
    unittest.main()
