#!/usr/bin/env python3
"""Fail if a library export has no caller outside its module and test/.

Every top-level `val` in lib/*/*.mli must be named in some source file
other than its own .ml/.mli.  The files searched are the OCaml sources
under lib/, bin/, bench/, examples/ and perfbench/harness/.  Tests do
not count as callers: an export only a test names is test-only.

A value `v` of module `M` counts as named in a file when, outside
comments and string literals, the file contains
  - `M.v`, also through a path (`Lib.M.v`) or a module alias
    (`module A = Lib.M` ... `A.v`); or
  - a bare `v` inside the scope of an open of `M`: a local open
    `M.( ... )` / `M.[ ... ]` / `M.{ ... }` covers its brackets,
    `let open M in` and a top-level `open M` / `include M` cover the
    rest of the file.
An operator counts as named wherever its symbol appears.

tools/exports_allowlist.txt names the test-only exports that stay, one
per line, `lib/<lib>/<mod>.mli: val <name> — <reason>`; blank lines and
lines starting with `#` are ignored.  The check fails on
  - an export with no caller that the list does not name;
  - a listed export that has a caller again, or is gone, so the list
    only shrinks and never names what no longer needs it;
  - a line without a reason, or in any other form.

Run from the repository root: python3 tools/check_exports.py
Prints each problem, the unlisted exports as `lib/<lib>/<mod>.mli: val
<name>`, and exits 1 if there is any.
"""

import os
import re
import sys

SEARCH_DIRS = ["lib", "bin", "bench", "examples", "perfbench/harness"]
IDENT = r"[a-z_][A-Za-z0-9_']*"
ALLOWLIST = "tools/exports_allowlist.txt"
LISTED_RE = re.compile(
    r"^(lib/\w+/\w+\.mli): val (" + IDENT + r"|[!$%&*+\-./:<=>?@^|~#]+)(?: — (.*))?$")
VAL_RE = re.compile(r"^val\s+(" + IDENT + r"|\([^)]*\))\s*:", re.M)
MPATH = r"[A-Z][A-Za-z0-9_']*(?:\.[A-Z][A-Za-z0-9_']*)*"
OPEN_RE = re.compile(r"\b(?:open!?|include)\s+(" + MPATH + r")")
LOCAL_OPEN_RE = re.compile(r"\b(" + MPATH + r")\.([(\[{])")
ALIAS_RE = re.compile(r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*=\s*(" + MPATH + r")\b")
CLOSE = {"(": ")", "[": "]", "{": "}"}


def strip(src):
    """Blank out comments, string and char literals, keeping offsets."""
    out = list(src)
    i, n = 0, len(src)

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    def skip_string(j):
        j += 1
        while j < n and src[j] != '"':
            j += 2 if src[j] == "\\" else 1
        return min(j + 1, n)

    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if src.startswith("(*", j):
                    depth, j = depth + 1, j + 2
                elif src.startswith("*)", j):
                    depth, j = depth - 1, j + 2
                elif src[j] == '"':
                    j = skip_string(j)
                else:
                    j += 1
            blank(i, j)
            i = j
        elif c == '"':
            j = skip_string(i)
            blank(i, j)
            i = j
        elif c == "{" and re.match(r"\{[a-z_]*\|", src[i:]):
            tag = re.match(r"\{([a-z_]*)\|", src[i:]).group(1)
            end = src.find("|" + tag + "}", i)
            j = n if end < 0 else end + len(tag) + 2
            blank(i, j)
            i = j
        elif c == "'":
            m = re.match(r"'(\\[^']*|[^\\'])'", src[i:])
            if m:
                blank(i, i + m.end())
                i += m.end()
            else:
                i += 1
        else:
            i += 1
    return "".join(out)


def matching(text, start, opener):
    """Offset just past the bracket closing the one at `start`."""
    closer, depth = CLOSE[opener], 0
    for j in range(start, len(text)):
        if text[j] == opener:
            depth += 1
        elif text[j] == closer:
            depth -= 1
            if depth == 0:
                return j + 1
    return len(text)


QUALIFIED_RE = re.compile(r"(?<![A-Za-z0-9_'])([A-Z][A-Za-z0-9_']*)\.(" + IDENT + ")")
BARE_RE = re.compile(r"(?<![A-Za-z0-9_'.])" + IDENT)


class Source:
    def __init__(self, path):
        self.path = path
        with open(path, encoding="utf-8") as f:
            self.text = text = strip(f.read())
        self.qualified = {(m.group(1), m.group(2)) for m in QUALIFIED_RE.finditer(text)}
        aliases = {}
        for m in ALIAS_RE.finditer(text):
            aliases.setdefault(m.group(2).split(".")[-1], set()).add(m.group(1))
        self.aliases = aliases
        regions = []
        for m in OPEN_RE.finditer(text):
            regions.append((m.group(1), m.start(), len(text)))
        for m in LOCAL_OPEN_RE.finditer(text):
            regions.append((m.group(1), m.end(), matching(text, m.end(2) - 1, m.group(2))))
        # module name -> the identifiers written bare where it is open
        self.opened = {}
        for mpath, start, end in regions:
            self.opened.setdefault(mpath.split(".")[-1], set()).update(
                m.group(0) for m in BARE_RE.finditer(text, start, end))

    def names(self, module, value):
        if not re.fullmatch(IDENT, value):  # an operator: any use of its symbol
            return value in self.text
        mods = {module} | self.aliases.get(module, set())
        return any((m, value) in self.qualified for m in mods) or (
            value in self.opened.get(module, set()))


def sources(root):
    for d in SEARCH_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, d)):
            for f in sorted(files):
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


def exports(root):
    """(mli path, module name, value name) for every top-level val."""
    libdir = os.path.join(root, "lib")
    for lib in sorted(os.listdir(libdir)):
        d = os.path.join(libdir, lib)
        if not os.path.isdir(d):
            continue
        for f in sorted(os.listdir(d)):
            if f.endswith(".mli"):
                path = os.path.join(d, f)
                with open(path, encoding="utf-8") as h:
                    text = strip(h.read())
                for m in VAL_RE.finditer(text):
                    name = m.group(1)
                    if name.startswith("("):
                        name = name[1:-1].strip()
                    yield path, f[:-4].capitalize(), name


def orphans(root):
    srcs = [Source(p) for p in sources(root)]
    for mli, module, value in exports(root):
        own = {mli, mli[:-1]}
        if not any(s.names(module, value) for s in srcs if s.path not in own):
            yield mli, value


def read_allowlist(root):
    """{(mli, value): line number} of the listed exports, and the
    problems of the lines that do not say what they should."""
    listed, problems = {}, []
    path = os.path.join(root, ALLOWLIST)
    if not os.path.exists(path):
        return listed, problems
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            m = LISTED_RE.match(line)
            if not m:
                problems.append(f"{ALLOWLIST}:{n}: not `lib/<lib>/<mod>.mli: "
                                f"val <name> — <reason>`: {line}")
                continue
            listed[(m.group(1), m.group(2))] = n
            if not (m.group(3) or "").strip():
                problems.append(f"{ALLOWLIST}:{n}: {m.group(1)}: val {m.group(2)} "
                                "has no reason")
    return listed, problems


def problems(root):
    listed, found = read_allowlist(root)
    test_only = {(os.path.relpath(m, root).replace(os.sep, "/"), v)
                 for m, v in orphans(root)}
    for mli, value in sorted(test_only - listed.keys()):
        found.append(f"{mli}: val {value}")
    for (mli, value), n in sorted(listed.items(), key=lambda kv: kv[1]):
        if (mli, value) not in test_only:
            found.append(f"{ALLOWLIST}:{n}: {mli}: val {value} has a caller "
                         "or is gone: delete the line")
    return found


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    found = problems(root)
    for line in found:
        print(line)
    if found:
        print(f"{len(found)} problem(s): an export only tests name must get a "
              f"caller, go, or be listed with a reason in {ALLOWLIST}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
