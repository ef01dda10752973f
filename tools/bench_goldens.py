#!/usr/bin/env python3
"""Checks every paper-figure bench's default stdout against its golden.

Runs each `fig*`, `table*` and `ablation*` bench of a build tree at its
default flags, several at once, and compares its standard output byte for
byte with `bench/goldens/<bench>.txt`. Exits 1 when an output differs, a
golden is missing, or a bench fails; prints a unified diff of each
difference. Stdlib only.

  python3 tools/bench_goldens.py build                 # check
  python3 tools/bench_goldens.py build --jobs 2        # at most 2 at once
  python3 tools/bench_goldens.py build --update        # rewrite the goldens
  python3 tools/bench_goldens.py build --only fig04_convergence_amazon

A change that means to move an output regenerates the affected goldens with
--update in the same commit and names each changed line.
"""

import argparse
import concurrent.futures
import difflib
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "bench" / "goldens"
PREFIXES = ("fig", "table", "ablation")
MAX_DIFF_LINES = 40


def bench_names():
    """Every figure, table and ablation bench with a source in bench/."""
    return sorted(p.stem for p in (ROOT / "bench").glob("*.cc")
                  if p.stem.startswith(PREFIXES))


def run_bench(binary):
    start = time.monotonic()
    proc = subprocess.run([str(binary)], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, check=False)
    return proc, time.monotonic() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build", nargs="?", default="build",
                        help="CMake build tree holding bench/<name> binaries")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="benches run at once (default: one per core)")
    parser.add_argument("--update", action="store_true",
                        help="write each output as its golden instead of checking")
    parser.add_argument("--only", action="append", default=[],
                        help="check only this bench (repeatable)")
    args = parser.parse_args()

    names = args.only or bench_names()
    unknown = sorted(set(names) - set(bench_names()))
    if unknown:
        parser.error("no such bench: " + ", ".join(unknown))
    binaries = {name: pathlib.Path(args.build) / "bench" / name for name in names}
    missing = [name for name, binary in binaries.items() if not binary.is_file()]
    if missing:
        print("not built: " + ", ".join(missing), file=sys.stderr)
        return 1

    failures = 0
    with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        futures = {name: pool.submit(run_bench, binary)
                   for name, binary in binaries.items()}
        for name in names:
            proc, seconds = futures[name].result()
            golden = GOLDENS / f"{name}.txt"
            if proc.returncode != 0:
                failures += 1
                print(f"FAIL {name}: exit {proc.returncode} ({seconds:.1f} s)")
                sys.stdout.write(proc.stderr.decode(errors="replace")[-2000:])
                continue
            if args.update:
                GOLDENS.mkdir(parents=True, exist_ok=True)
                golden.write_bytes(proc.stdout)
                print(f"wrote {golden.relative_to(ROOT)} ({seconds:.1f} s)")
                continue
            if not golden.is_file():
                failures += 1
                print(f"FAIL {name}: no golden {golden.relative_to(ROOT)}")
                continue
            expected = golden.read_bytes()
            if proc.stdout == expected:
                print(f"ok   {name} ({seconds:.1f} s)")
                continue
            failures += 1
            print(f"FAIL {name}: stdout differs from {golden.relative_to(ROOT)}")
            diff = list(difflib.unified_diff(
                expected.decode(errors="replace").splitlines(),
                proc.stdout.decode(errors="replace").splitlines(),
                fromfile=f"golden/{name}", tofile=f"stdout/{name}", lineterm=""))
            for line in diff[:MAX_DIFF_LINES]:
                print("  " + line)
            if len(diff) > MAX_DIFF_LINES:
                print(f"  ... {len(diff) - MAX_DIFF_LINES} more diff lines")
    if failures:
        print(f"{failures} of {len(names)} benches failed")
        return 1
    print(f"{len(names)} benches {'written' if args.update else 'match their goldens'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
