#!/usr/bin/env python3
"""End-to-end benchmark: builds bench/e2e against this checkout's src/,
runs workloads and prints every metric as `<workload> <metric> <value> <unit>`.

  python3 bench/e2e/run.py                 # all workloads, every metric
  python3 bench/e2e/run.py --repeat 5      # 5 timed runs each: median/min/max/spread
  python3 bench/e2e/run.py --workload sim_meet --seed 7 --seconds 30 --trace 0

With --workload, the last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} holding
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
Any failed correctness gate makes the command exit non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import reducer  # noqa: E402

ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "e2e_bench"
# A run must end within 180 s; the binary's own time caps are lower still.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    """Configures (once) and builds the benchmark binary in build-e2e/."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no src/ next to bench/: run from a full checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_bench", "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise BenchError("build step failed: " + " ".join(step))


def run_once(workload, seed, seconds, trace):
    """Runs the binary once; returns its record, with span reductions added
    for a traced run. `record["ok"]` is False when a gate failed."""
    out = BUILD / "out" / ("%s-%d-%s" % (workload, seed, "traced" if trace else "timed"))
    out.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload=" + workload, "--seed=%d" % seed,
               "--seconds=%g" % seconds, "--trace=%d" % int(trace), "--out=" + str(out)]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed no result (exit %d)" % (workload, proc.returncode))
    record = json.loads(lines[-1])
    record["ok"] = proc.returncode == 0 and record["correct"]
    if trace:
        record["values"].update(reducer.reduce_spans(reducer.load_spans(out / "spans.jsonl")))
    return record


def print_metrics(workload, metrics, table):
    for name, value in metrics.items():
        print("%s %s %.6g %s" % (workload, name, value, table[name].unit))


def print_gates(workload, record):
    print("%s digest %s" % (workload, record["digest"]))
    for failure in record["failed_checks"]:
        print("%s FAILED %s" % (workload, failure))


def run_single(args):
    """One run of one workload: its metrics, then the JSON line."""
    record = run_once(args.workload, args.seed, args.seconds, args.trace)
    table = reducer.PER_LAYER if args.trace else reducer.END_TO_END
    metrics = reducer.compute_metrics(record, table)
    print_metrics(args.workload, metrics, table)
    print_gates(args.workload, record)
    print(json.dumps({
        "correct": record["ok"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": table[name].unit}
                    for name, value in metrics.items()},
    }))
    return 0 if record["ok"] else 1


def run_all(args, workloads):
    """One traced run of each workload (its timed rounds give the end-to-end
    metrics, its traced round the rest): every metric and gate."""
    ok = True
    for workload in workloads:
        record = run_once(workload, args.seed, args.seconds, True)
        for table in (reducer.END_TO_END, reducer.PER_LAYER):
            print_metrics(workload, reducer.compute_metrics(record, table), table)
        print_gates(workload, record)
        ok = ok and record["ok"]
    print("correct" if ok else "INCORRECT")
    return 0 if ok else 1


def run_repeat(args, workloads):
    """N timed runs per workload on one seed: the run-to-run spread of each
    end-to-end metric, how much worse than the median the worst run was
    against the metric's bound, and a check that every digest agrees."""
    with open(ROOT / "BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    ok = True
    row = "%-10s %-18s %12s %12s %12s %8s %8s %6s %s"
    print(row % ("workload", "metric", "median", "min", "max", "spread", "worst", "bound",
                 "unit"))
    for workload in workloads:
        runs = [run_once(workload, args.seed, args.seconds, False)
                for _ in range(args.repeat)]
        per_metric = {}
        for record in runs:
            metrics = reducer.compute_metrics(record, reducer.END_TO_END)
            for name, value in metrics.items():
                per_metric.setdefault(name, []).append(value)
        for name, values in per_metric.items():
            metric = reducer.END_TO_END[name]
            median = statistics.median(values)
            worst = max(reducer.worsening(median, v, metric.better) for v in values)
            fits = all(reducer.within_bound(median, v, metric.better, bounds[name])
                       for v in values)
            print(row % (workload, name, "%.6g" % median, "%.6g" % min(values),
                         "%.6g" % max(values), "%.1f%%" % (100 * reducer.spread(values)),
                         "%.1f%%" % (100 * worst), "%.2f" % bounds[name],
                         metric.unit + ("" if fits else "  (a run is past the bound)")))
        digests = {record["digest"] for record in runs}
        print("%-10s digest %s" % (workload, " ".join(sorted(digests))))
        if len(digests) != 1:
            print("%s FAILED runs on seed %d disagree on the digest"
                  % (workload, args.seed))
            ok = False
        ok = ok and all(record["ok"] for record in runs)
    print("correct" if ok else "INCORRECT")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=reducer.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="timed runs per workload for the spread report")
    args = parser.parse_args()
    try:
        build()
        workloads = [args.workload] if args.workload else list(reducer.WORKLOADS)
        if args.repeat > 0:
            return run_repeat(args, workloads)
        if args.workload:
            return run_single(args)
        return run_all(args, workloads)
    except (BenchError, ValueError, OSError) as error:
        sys.stderr.write("run.py: %s\n" % error)
        return 2


if __name__ == "__main__":
    sys.exit(main())
