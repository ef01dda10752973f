#!/usr/bin/env python3
"""Knob sweep: option fields that no experiment sets, and bench flags that no
caller passes.

The dead-code sweep cannot see an option that no bench, e2e workload or
daemon flag sets: the code behind an always-default field sits inside
functions the benches reach. This check reads the options structs instead.

A knob is a data member of a `struct *Options`, `struct *Config` or
`struct *Plan` defined in a header under src/ (nested structs are named
with their enclosing class, e.g. `PreMeetingSelector::Options`). A knob is
set when a C++ file under src/ or bench/ (bench/e2e included) assigns it:
`x.f = ...`, `p->f = ...` and a nested `x.f.g = ...` (which sets both `f`
and `g`) all count, and so does a designated initializer `{.f = ...}`.
Tests and examples are not experiments and do not count. Matching is by
field name only, so a name that one struct's setter uses counts as set for
every struct that has a field of that name.

A bench flag is a name that a bench/*.cc file reads with
`flags.Get*("name", ...)` or `flags.Has("name")`. A flag is passed when
`--name` appears in a file under .github/, tools/, tests/ or docs/, in
README.md, EXPERIMENTS.md or DESIGN.md, or in a bench/ file other than the
one that reads it (a bench's own usage comment does not count). Matching is
by name, as for knobs.

The check fails when

  * a knob is unset and tools/knob_allowlist.txt lacks it,
  * a flag is not passed and the allowlist lacks `--name`, or
  * an allowlist entry names a knob or flag that is gone, or is set or
    passed again.

An unset knob or unpassed flag either goes (fold it into a named constant)
or gets an allowlist entry with its reason.

Usage:
    python3 tools/knob_sweep.py            # compare with the allowlist
    python3 tools/knob_sweep.py --list     # print the unset knobs and flags

Allowlist format: one entry per line, `<Struct>::<field>  -- <reason>` or
`--<flag>  -- <reason>`; blank lines and lines starting with `#` are
ignored.
"""

import argparse
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
BENCH = os.path.join(REPO, "bench")
SETTER_ROOTS = (SRC, BENCH)
ALLOWLIST = os.path.join(REPO, "tools", "knob_allowlist.txt")
# Where a flag counts as passed (bench/ minus the file that reads it).
CALLER_ROOTS = tuple(os.path.join(REPO, d) for d in (".github", "tools", "tests", "docs"))
CALLER_FILES = tuple(os.path.join(REPO, f)
                     for f in ("README.md", "EXPERIMENTS.md", "DESIGN.md"))
SEPARATOR = "  -- "
CPP_SUFFIXES = (".h", ".cc", ".cpp")

COMMENT_OR_LITERAL = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'',
    re.DOTALL)
SCOPE = re.compile(r"\b(?:class|struct)\s+(\w+)\s*(?:final\s*)?(?::[^;{()]*)?\{")
KNOB_STRUCT = re.compile(r"\w*(?:Options|Config|Plan)")
ACCESS = re.compile(r"^(?:(?:public|private|protected)\s*:\s*)+")
NOT_A_FIELD = re.compile(
    r"^(?:static|using|friend|typedef|struct|class|enum|template)\b")
DECLARATOR = re.compile(r"(\w+)\s*(?:\[[^\]]*\])?\s*$")
# `.f.g[i] =` / `->f =`: a chain of member accesses ending in a plain `=`.
SETTER = re.compile(
    r"((?:(?:\.|->)\s*\w+\s*(?:\[[^\]]*\]\s*)*)+)=(?!=)")
MEMBER = re.compile(r"(?:\.|->)\s*(\w+)")
FLAG_READ = re.compile(r'\bflags\.(?:Get\w*|Has)\(\s*"([\w-]+)"')


def blank(text):
    """Drops comments and the contents of literals, keeping offsets."""
    def spaces(m):
        s = m.group(0)
        if s[0] in "\"'":
            return s[0] + " " * (len(s) - 2) + s[-1]
        return re.sub(r"[^\n]", " ", s)
    return COMMENT_OR_LITERAL.sub(spaces, text)


def closing_brace(text, open_at):
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    raise ValueError("unbalanced braces")


def top_level_statements(body):
    """Yields the statements of a class body, nested braces dropped.

    A statement whose braces follow a parameter list is a function
    definition and is skipped; any other braces (a nested type, a brace
    initializer) are dropped and the statement runs on to its `;`.
    """
    statement, depth = [], 0
    for c in body:
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0 and "(" in "".join(statement):
                statement = []
        elif depth > 0:
            continue
        elif c == ";":
            yield "".join(statement)
            statement = []
        else:
            statement.append(c)


def field_name(statement):
    statement = ACCESS.sub("", " ".join(statement.split()))
    if not statement or NOT_A_FIELD.match(statement):
        return None
    declaration = statement.split("=", 1)[0]
    if "(" in declaration or "operator" in declaration:
        return None
    m = DECLARATOR.search(declaration)
    # A field needs a type before its name.
    if m is None or not declaration[:m.start()].strip():
        return None
    return m.group(1)


def knobs_of(path):
    """{qualified field name: header path} for the knob structs of a header."""
    with open(path, encoding="utf-8") as f:
        text = blank(f.read())
    scopes = []
    for m in SCOPE.finditer(text):
        open_at = m.end() - 1
        scopes.append((m.group(1), open_at, closing_brace(text, open_at)))
    knobs = {}
    for name, open_at, close_at in scopes:
        if not KNOB_STRUCT.fullmatch(name):
            continue
        enclosing = [n for n, o, c in scopes if o < open_at and close_at < c]
        qualified = "::".join(enclosing + [name])
        for statement in top_level_statements(text[open_at + 1:close_at]):
            field = field_name(statement)
            if field is not None:
                knobs[qualified + "::" + field] = os.path.relpath(path, REPO)
    return knobs


def cpp_files(root, suffixes):
    for directory, _, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(suffixes):
                yield os.path.join(directory, name)


def all_knobs():
    knobs = {}
    for path in cpp_files(SRC, (".h",)):
        knobs.update(knobs_of(path))
    return knobs


def set_fields():
    names = set()
    for root in SETTER_ROOTS:
        for path in cpp_files(root, CPP_SUFFIXES):
            with open(path, encoding="utf-8") as f:
                text = blank(f.read())
            for chain in SETTER.findall(text):
                names.update(MEMBER.findall(chain))
    return names


def read_text(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (UnicodeDecodeError, OSError):
        return ""


def bench_flags():
    """{"--name": the bench/*.cc paths that read the flag}."""
    flags = {}
    for name in sorted(os.listdir(BENCH)):
        path = os.path.join(BENCH, name)
        if name.endswith(".cc") and os.path.isfile(path):
            for flag in FLAG_READ.findall(read_text(path)):
                flags.setdefault("--" + flag, set()).add(path)
    return flags


def caller_texts():
    """{path: text} of every file a flag's caller may live in."""
    paths = list(CALLER_FILES)
    for root in CALLER_ROOTS + (BENCH,):
        for directory, dirs, files in os.walk(root):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            paths.extend(os.path.join(directory, name) for name in sorted(files))
    # The allowlist and this script name flags without passing them.
    skip = {ALLOWLIST, os.path.abspath(__file__)}
    return {p: read_text(p) for p in paths if p not in skip}


def unpassed_flags(flags):
    """{"--name": its readers} for the `flags` that no caller passes."""
    texts = caller_texts()
    unpassed = {}
    for flag, readers in flags.items():
        passed = re.compile(re.escape(flag) + r"(?![\w-])")
        if not any(passed.search(text) for path, text in texts.items()
                   if path not in readers):
            unpassed[flag] = ", ".join(
                sorted(os.path.relpath(r, REPO) for r in readers))
    return unpassed


def read_allowlist(path):
    allowed = {}
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            # " -- " with its spaces: a flag entry itself starts with "--".
            knob, sep, reason = line.partition(" -- ")
            if not sep or not reason.strip():
                sys.exit(f"{path}:{number}: expected '<knob>{SEPARATOR}"
                         "<reason>'")
            allowed[knob.strip()] = reason.strip()
    return allowed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--list", action="store_true",
                        help="print the unset knobs and unpassed flags and exit")
    args = parser.parse_args()

    knobs = all_knobs()
    assigned = set_fields()
    unset = {k: h for k, h in knobs.items()
             if k.rsplit("::", 1)[1] not in assigned}
    flags = bench_flags()
    unset.update(unpassed_flags(flags))
    if args.list:
        for knob in sorted(unset):
            print(f"{knob}  ({unset[knob]})")
        return 0

    allowed = read_allowlist(ALLOWLIST)
    missing = sorted(set(unset) - set(allowed))
    gone = sorted(k for k in allowed if k not in knobs and k not in flags)
    now_set = sorted(k for k in allowed
                     if (k in knobs or k in flags) and k not in unset)
    for knob in missing:
        what = "flag passed by no caller" if knob.startswith("--") else "unset"
        print(f"{what} and not allowlisted: {knob} ({unset[knob]})")
    for knob in gone:
        print(f"allowlisted but no such field or flag: {knob}")
    for knob in now_set:
        print(f"allowlisted but set under src/ or bench/, or passed: {knob}")
    if missing or gone or now_set:
        print("Fold an unset knob or unpassed flag into a named constant or "
              "allowlist it with its reason; delete the entry of a knob or "
              "flag that is gone, or set or passed again.")
        return 1
    print(f"{len(knobs)} knobs in {len(set(knobs.values()))} headers and "
          f"{len(flags)} bench flags; {len(unset)} unset or unpassed, all "
          "allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
