#!/usr/bin/env python3
"""Dead-code sweep: library functions that no bench or e2e binary keeps.

The roots are the experiments: every bench of the repository and bench/e2e's
`e2e_bench` (configured from outside; bench/e2e itself is only read).
Examples are not roots, so library code that only an example calls counts
as unreached. The sweep builds the roots with

    -O0 -fno-inline -ffunction-sections -fdata-sections -Wl,--gc-sections

so each function sits in its own section and the linker drops every one
that no binary reaches. The sweep then lists the `jxp::` functions that the
`libjxp_*.a` archives define out of line (`T` in `nm -C --defined-only`)
and that no binary keeps. Weak (`W`) symbols -- inline functions and
template instantiations -- are emitted by whichever library function uses
them, so an unreached one only echoes an unreached `T` caller (e.g.
`StatusOr<Graph>::ok` behind a dead loader) and is not listed. The list is
compared with the committed allowlist: the unreached functions the
repository keeps on purpose, each with its reason (a test oracle or a test
hook). Any difference -- a newly unreached function, or an allowlisted one
that is gone or reached again -- fails the sweep.

Usage:
    python3 tools/dead_code_sweep.py            # build, sweep, compare
    python3 tools/dead_code_sweep.py --list     # print the unreached list only

Allowlist format: one function per line, `<qualified name>  -- <reason>`;
blank lines and lines starting with `#` are ignored. Names carry no
parameter list, so the overloads of a name share one entry.
"""

import argparse
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SWEEP_FLAGS = "-O0 -fno-inline -ffunction-sections -fdata-sections"
LINK_FLAGS = "-Wl,--gc-sections"
SEPARATOR = "  -- "
BUILD_DIR = os.path.join(REPO, "build-sweep")
E2E_BUILD_DIR = os.path.join(REPO, "build-sweep-e2e")
ALLOWLIST = os.path.join(REPO, "tools", "dead_code_allowlist.txt")


def run(cmd):
    print("+", " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def configure(source, build):
    run(["cmake", "-S", source, "-B", build, "-G", "Unix Makefiles",
         "-DCMAKE_BUILD_TYPE=Debug", "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
         "-DCMAKE_CXX_FLAGS=" + SWEEP_FLAGS,
         "-DCMAKE_EXE_LINKER_FLAGS=" + LINK_FLAGS])


def build(build_dir, e2e_dir, jobs):
    configure(REPO, build_dir)
    # The bench directory's `all` builds its executables and the libraries
    # they link, never the test binaries or the examples.
    run(["make", "-C", os.path.join(build_dir, "bench"), "-j", str(jobs)])
    configure(os.path.join(REPO, "bench", "e2e"), e2e_dir)
    run(["make", "-C", e2e_dir, "-j", str(jobs), "e2e_bench"])


def strip_parameters(name):
    """`jxp::f(int) const` -> `jxp::f`: drops the trailing parameter list."""
    end = name.rfind(")")
    if end < 0:
        return name
    depth = 0
    for i in range(end, -1, -1):
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                return name[:i]
    return name


def defined_symbols(path, types):
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        # "<address> <type> <name>"; archive member headers have no type.
        parts = line.split(" ", 2)
        if len(parts) == 3 and (types is None or parts[1] in types):
            names.add(parts[2])
    return names


def executables(directory):
    found = []
    for entry in sorted(os.listdir(directory)):
        path = os.path.join(directory, entry)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            found.append(path)
    return found


def unreached(build_dir, e2e_dir):
    src = os.path.join(build_dir, "src")
    library = set()
    for unit in sorted(os.listdir(src)):
        unit_dir = os.path.join(src, unit)
        if not os.path.isdir(unit_dir):
            continue
        for entry in sorted(os.listdir(unit_dir)):
            if entry.startswith("libjxp_") and entry.endswith(".a"):
                library |= defined_symbols(os.path.join(unit_dir, entry), {"T"})
    binaries = (executables(os.path.join(build_dir, "bench")) +
                [os.path.join(e2e_dir, "e2e_bench")])
    kept = set()
    for binary in binaries:
        kept |= defined_symbols(binary, None)
    return sorted({strip_parameters(s) for s in library - kept
                   if s.startswith("jxp::")})


def read_allowlist(path):
    entries = {}
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            name, sep, reason = line.partition(SEPARATOR)
            if not sep or not reason.strip():
                sys.exit(f"{path}:{number}: expected '<name>{SEPARATOR}<reason>'")
            entries[name.strip()] = reason.strip()
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--no-build", action="store_true",
                        help="sweep the existing build directories")
    parser.add_argument("--list", action="store_true",
                        help="print the unreached functions and exit")
    args = parser.parse_args()

    if not args.no_build:
        build(BUILD_DIR, E2E_BUILD_DIR, args.jobs)
    found = unreached(BUILD_DIR, E2E_BUILD_DIR)
    print(f"{len(found)} unreached jxp:: functions")
    if args.list:
        print("\n".join(found))
        return 0

    allowed = read_allowlist(ALLOWLIST)
    new = [name for name in found if name not in allowed]
    stale = sorted(set(allowed) - set(found))
    for name in new:
        print(f"unreached and not allowlisted: {name}")
    for name in stale:
        print(f"allowlisted but no longer unreached: {name}")
    if new or stale:
        print("No bench or e2e_bench reaches the new functions: delete them "
              "(with their tests, and any example that calls them), or "
              "allowlist each with its reason; drop stale allowlist entries.")
        return 1
    print("sweep matches the allowlist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
