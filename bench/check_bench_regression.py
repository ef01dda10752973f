#!/usr/bin/env python3
"""Bench-regression gate for the CI bench job (stdlib only).

Reads the stdout of micro_meeting_throughput, micro_query_throughput, or
sustained_load (JSON result lines mixed with '#' headers), reduces it to a
small summary of throughput / cost metrics, writes that summary as JSON,
and compares it against a committed baseline: the check fails when any
throughput metric drops by more than --threshold (default 25%), any cost
metric grows by more than the same margin, any "exact" metric (the
deterministic work counters of sustained_load's batch arm) differs at all,
or a gated baseline metric is missing from the run (a bench arm vanished).
Latency percentiles are never gated — they land in the summary's "info"
section, which compare() ignores.

Usage:
  check_bench_regression.py --bench meeting --input meeting.log \
      --output BENCH_MEETING.json [--baseline bench/baselines/BENCH_MEETING.json]
      [--threshold 0.25] [--update-baseline]

With --update-baseline the summary is also written to the baseline path
(used locally to refresh the committed numbers after an intentional change).
"""

import argparse
import json
import sys


def parse_json_lines(path):
    """Yields every line of `path` that parses as a JSON object."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(obj, dict):
                yield obj


def summarize_meeting(records):
    """Summary of micro_meeting_throughput: best meetings/sec across thread
    counts (wall-clock noise is absorbed by taking the max) and the
    single-thread per-merge CPU cost."""
    best_rate = 0.0
    merge_cpu_1t = None
    for rec in records:
        if rec.get("bench") != "meeting_throughput":
            continue
        best_rate = max(best_rate, float(rec.get("meetings_per_sec", 0.0)))
        if rec.get("threads") == 1:
            merge_cpu_1t = float(rec.get("merge_cpu_millis_mean", 0.0))
    summary = {"higher_better": {}, "lower_better": {}}
    if best_rate > 0:
        summary["higher_better"]["meetings_per_sec"] = best_rate
    if merge_cpu_1t is not None and merge_cpu_1t > 0:
        summary["lower_better"]["merge_cpu_millis_mean_1t"] = merge_cpu_1t
    return summary


def summarize_query(records):
    """Summary of micro_query_throughput.

    Gated metrics are wall-clock qps of full-work serves (uncached arms on
    the cold trace, best across thread counts) plus deterministic work
    counters: compressed bytes per posting, the decode volume of
    the primed/cached arm on the cold trace, and the Zipfian-trace cache
    hit rate. The qps of the cache-warm Zipfian serve is near-free per
    query and too noisy to gate; it is reported under "info", which
    compare() ignores."""
    best_qps = {}
    info_qps = {}
    hit_rates = {}
    lower = {}
    for rec in records:
        if rec.get("bench") != "query_throughput":
            continue
        sweep = rec.get("sweep", "?")
        processor = rec.get("processor", "?")
        cached = bool(rec.get("cached", False))
        trace = rec.get("trace", "?")
        qps = float(rec.get("qps", 0.0))
        if rec.get("bytes_per_posting") is not None:
            lower["bytes_per_posting"] = float(rec["bytes_per_posting"])
        if cached:
            key = "qps:%s:%s:cached:%s" % (sweep, processor, trace)
            info_qps[key] = max(info_qps.get(key, 0.0), qps)
            if trace == "zipf":
                hit_rates["cache_hit_rate:%s:zipf" % sweep] = float(
                    rec.get("cache_hit_rate", 0.0))
            if trace == "cold" and rec.get("postings_decoded") is not None:
                lower["postings_decoded:%s:%s:primed:cold" % (sweep, processor)] = \
                    float(rec["postings_decoded"])
        elif trace == "cold":
            key = "qps:%s:%s" % (sweep, processor)
            best_qps[key] = max(best_qps.get(key, 0.0), qps)
    higher = dict(sorted(best_qps.items()))
    higher.update(sorted(hit_rates.items()))
    summary = {"higher_better": higher, "lower_better": dict(sorted(lower.items()))}
    if info_qps:
        summary["info"] = dict(sorted(info_qps.items()))
    return summary


def summarize_load(records):
    """Summary of sustained_load.

    The batch arm's work counters are pure functions of (collection, seed,
    trace) and are gated exactly — any drift means serving behavior changed,
    not that the machine was slow. Everything wall-clock — the open-loop
    ramp's percentiles, achieved qps, max_sustainable_qps — is info-only:
    one-core CI runners make latency gates pure noise."""
    exact = {}
    info = {}
    for rec in records:
        if rec.get("bench") != "sustained_load":
            continue
        arm = rec.get("arm", "?")
        if arm == "batch":
            for key in ("queries", "cold_postings_decoded",
                        "warm_postings_decoded", "warm_cache_hits",
                        "warm_cache_misses"):
                if rec.get(key) is not None:
                    exact["batch:%s" % key] = float(rec[key])
        elif arm == "open":
            prefix = "open:qps%g" % float(rec.get("target_qps", 0.0))
            for key in ("achieved_qps", "p50_ms", "p99_ms", "p999_ms",
                        "met_slo"):
                if rec.get(key) is not None:
                    info["%s:%s" % (prefix, key)] = float(rec[key])
        elif arm == "closed":
            for key in ("achieved_qps", "p50_ms", "p99_ms"):
                if rec.get(key) is not None:
                    info["closed:%s" % key] = float(rec[key])
        elif arm == "summary":
            info["max_sustainable_qps"] = float(
                rec.get("max_sustainable_qps", 0.0))
    summary = {"higher_better": {}, "lower_better": {},
               "exact": dict(sorted(exact.items()))}
    if info:
        summary["info"] = dict(sorted(info.items()))
    return summary


def compare(summary, baseline, threshold):
    """Returns a list of regression messages (empty = pass)."""
    failures = []
    for direction in ("exact", "higher_better", "lower_better"):
        current = summary.get(direction, {})
        for name in sorted(baseline.get(direction, {})):
            if name not in current:
                print("REGRESSION %s: in the baseline but missing from the run"
                      % name)
                failures.append("%s missing from the run (%s baseline key)"
                                % (name, direction))
    base_exact = baseline.get("exact", {})
    for name, current in summary.get("exact", {}).items():
        if name not in base_exact:
            print("note: no baseline for %s (skipped)" % name)
            continue
        base = float(base_exact[name])
        status = "OK" if current == base else "REGRESSION"
        print("%s %s: %.0f vs baseline %.0f (exact)" % (status, name, current, base))
        if current != base:
            failures.append("%s changed (%.0f -> %.0f); deterministic counter "
                            "must match exactly" % (name, base, current))
    for direction in ("higher_better", "lower_better"):
        base_metrics = baseline.get(direction, {})
        for name, current in summary.get(direction, {}).items():
            if name not in base_metrics:
                print("note: no baseline for %s (skipped)" % name)
                continue
            base = float(base_metrics[name])
            if base <= 0:
                continue
            if direction == "higher_better":
                floor = base * (1.0 - threshold)
                status = "OK" if current >= floor else "REGRESSION"
                print("%s %s: %.3f vs baseline %.3f (floor %.3f)"
                      % (status, name, current, base, floor))
                if current < floor:
                    failures.append("%s dropped %.1f%% (%.3f -> %.3f)"
                                    % (name, 100.0 * (1.0 - current / base),
                                       base, current))
            else:
                ceiling = base * (1.0 + threshold)
                status = "OK" if current <= ceiling else "REGRESSION"
                print("%s %s: %.3f vs baseline %.3f (ceiling %.3f)"
                      % (status, name, current, base, ceiling))
                if current > ceiling:
                    failures.append("%s grew %.1f%% (%.3f -> %.3f)"
                                    % (name, 100.0 * (current / base - 1.0),
                                       base, current))
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True,
                        choices=["meeting", "query", "load"])
    parser.add_argument("--input", required=True,
                        help="captured bench stdout (JSON lines + headers)")
    parser.add_argument("--output", required=True,
                        help="where to write the summary JSON")
    parser.add_argument("--baseline", default=None,
                        help="committed baseline summary to compare against")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional regression (default 0.25)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write the summary to the baseline path too")
    args = parser.parse_args()

    records = list(parse_json_lines(args.input))
    summarize = {"meeting": summarize_meeting, "query": summarize_query,
                 "load": summarize_load}[args.bench]
    summary = summarize(records)
    if (not summary["higher_better"] and not summary["lower_better"]
            and not summary.get("exact")):
        print("error: no bench_result lines found in %s" % args.input)
        return 2

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.output)

    if args.update_baseline:
        if not args.baseline:
            print("error: --update-baseline needs --baseline")
            return 2
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("updated baseline %s" % args.baseline)
        return 0

    if not args.baseline:
        print("no baseline given; summary written, nothing compared")
        return 0
    try:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except FileNotFoundError:
        print("error: baseline %s not found (run with --update-baseline "
              "locally and commit it)" % args.baseline)
        return 2

    failures = compare(summary, baseline, args.threshold)
    if failures:
        print("\nFAIL: %d regression(s) beyond %.0f%%:"
              % (len(failures), 100.0 * args.threshold))
        for failure in failures:
            print("  - " + failure)
        return 1
    print("\nPASS: all metrics within %.0f%% of baseline"
          % (100.0 * args.threshold))
    return 0


if __name__ == "__main__":
    sys.exit(main())
