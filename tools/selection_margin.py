#!/usr/bin/env python3
"""Pre-meetings margin gate for Figure 9: meetings to a footrule target.

Runs a peer-selection bench (fig09_peer_selection_amazon, or
fig10_peer_selection_web) once per seed, one process per core, and reads
its two convergence series: `without_pre_meetings` (random partners) and
`with_pre_meetings`. For every seed and arm it prints the meetings until
the footrule first reaches each target (sampled every --eval-every of the
bench, 100 by default; `>N` when the run never reaches it) and the footrule
after the last meeting, then the median over the seeds.

It exits non-zero unless both hold, judged on the first target:

  * the pre-meetings median of meetings to the target is strictly below
    random's;
  * the pre-meetings median footrule after the last meeting is no worse
    than random's.

Usage:
    python3 tools/selection_margin.py build/bench/fig09_peer_selection_amazon
    python3 tools/selection_margin.py build/bench/fig10_peer_selection_web \\
        --targets=0.10,0.05
    python3 tools/selection_margin.py build/bench/fig09_peer_selection_amazon \\
        --seeds=7,11,13 --meetings=2000 -- --scale=1

Arguments after `--` go to the bench unchanged.
"""

import argparse
import concurrent.futures
import os
import statistics
import subprocess
import sys

ARMS = (("random", "without_pre_meetings"), ("pre-meetings", "with_pre_meetings"))


def run_seed(binary, seed, meetings, extra):
    """Returns {series label: [(meetings, footrule), ...]} for one seed."""
    command = [binary, f"--seed={seed}", f"--meetings={meetings}", *extra]
    out = subprocess.run(command, check=True, capture_output=True, text=True).stdout
    series = {label: [] for _, label in ARMS}
    for line in out.splitlines():
        fields = line.split("\t")
        if len(fields) >= 3 and fields[0] in series:
            series[fields[0]].append((int(fields[1]), float(fields[2])))
    for label, points in series.items():
        if not points:
            sys.exit(f"seed {seed}: no '{label}' rows in the output of {' '.join(command)}")
    return series


def meetings_to(points, target):
    """First sampled meeting count whose footrule is <= target, else None."""
    return next((m for m, footrule in points if footrule <= target), None)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("binary", help="path of the fig09 (or fig10) bench binary")
    parser.add_argument("--seeds", default="7,11,13,17,19")
    parser.add_argument("--meetings", type=int, default=3000)
    parser.add_argument("--targets", default="0.20,0.15",
                        help="footrule targets; the gate judges the first")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    extra = argv[split + 1:]
    seeds = [int(s) for s in args.seeds.split(",")]
    targets = [float(t) for t in args.targets.split(",")]

    with concurrent.futures.ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        runs = list(pool.map(
            lambda seed: run_seed(args.binary, seed, args.meetings, extra), seeds))

    never = args.meetings + 1  # Sorts after every reached count.
    medians = {}
    print(f"seeds {' '.join(map(str, seeds))}, {args.meetings} meetings")
    for target in targets:
        for arm, label in ARMS:
            counts = [meetings_to(run[label], target) for run in runs]
            cells = [f">{args.meetings}" if c is None else str(c) for c in counts]
            median = statistics.median(never if c is None else c for c in counts)
            medians[(arm, target)] = median
            shown = f">{args.meetings}" if median >= never else f"{median:g}"
            print(f"to <= {target:.2f}\t{arm:<12}\t{' '.join(cells)}\tmedian {shown}")
    for arm, label in ARMS:
        finals = [run[label][-1][1] for run in runs]
        medians[(arm, "final")] = statistics.median(finals)
        print(f"footrule at {args.meetings}\t{arm:<12}\t"
              f"{' '.join(f'{f:.3f}' for f in finals)}\tmedian {medians[(arm, 'final')]:.3f}")

    first = targets[0]
    failures = []
    if not medians[("pre-meetings", first)] < medians[("random", first)]:
        failures.append(f"pre-meetings median to <= {first:.2f} is not below random's")
    if medians[("pre-meetings", "final")] > medians[("random", "final")]:
        failures.append(f"pre-meetings median footrule at {args.meetings} is worse than random's")
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK: pre-meetings lead random")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
