#!/usr/bin/env python3
"""Metric catalogue check: docs/METRICS.md matches the names src/ registers.

A registered name is the string literal of a `GetCounter(...)`,
`GetHistogram(...)` or `TraceSpan name(...)` call in a `.h` or `.cc` file
under src/. A documented name is a backticked name in the first cell of a
table row of docs/METRICS.md; a combined row such as `` `a` / `b` ``
documents both names. The check fails when

  * a registered name has no row, or
  * a row documents a `jxp.*` or `markov.*` name that nothing registers
    (a row left behind by a deleted metric).

Usage:
    python3 tools/metrics_doc_check.py
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
CATALOGUE = os.path.join(REPO, "docs", "METRICS.md")

REGISTRATION = re.compile(
    r'\b(?:GetCounter|GetHistogram|TraceSpan\s+\w+)\s*\(\s*"([^"]+)"')
BACKTICKED = re.compile(r"`([^`]+)`")
CHECKED_PREFIXES = ("jxp.", "markov.")


def registered_names(src):
    names = {}
    for root, _, files in os.walk(src):
        for name in sorted(files):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as f:
                for literal in REGISTRATION.findall(f.read()):
                    names.setdefault(literal, os.path.relpath(path, REPO))
    return names


def documented_names(catalogue):
    names = set()
    with open(catalogue, encoding="utf-8") as f:
        for line in f:
            if not line.startswith("|"):
                continue
            first_cell = line.split("|")[1]
            names.update(BACKTICKED.findall(first_cell))
    return names


def main():
    registered = registered_names(SRC)
    documented = documented_names(CATALOGUE)
    missing = sorted(set(registered) - documented)
    stale = sorted(name for name in documented - set(registered)
                   if name.startswith(CHECKED_PREFIXES))
    for name in missing:
        print(f"registered in {registered[name]} but has no row: {name}")
    for name in stale:
        print(f"documented but registered nowhere in src/: {name}")
    if missing or stale:
        print("Add a docs/METRICS.md row for each new name; delete the row "
              "of each name the code no longer registers.")
        return 1
    print(f"{len(registered)} registered names, all documented; "
          "no stale rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
