#!/usr/bin/env python3
"""Fail on a library export, or an optional parameter of one, that only
tests use.

The files searched are the OCaml sources under lib/, bin/, bench/,
examples/ and perfbench/harness/.  Tests do not count as callers.

Exports.  Every `val` in lib/*/*.mli must be named in some searched
file other than its own .ml/.mli.  A `val v` inside a `module M : sig
... end` block of the interface is read as `M.v`, and a use of `M.v`
in the rest of its own .ml counts too.  A value `v` of
module `M` counts as named in a file when, outside comments and string
literals, the file contains
  - `M.v`, also through a path (`Lib.M.v`) or a module alias
    (`module A = Lib.M` ... `A.v`); or
  - a bare `v` inside the scope of an open of `M`: a local open
    `M.( ... )` / `M.[ ... ]` / `M.{ ... }` covers its brackets,
    `let open M in` and a top-level `open M` / `include M` cover the
    rest of the file.
An operator counts as named wherever its symbol appears.

Optional parameters.  Every `?label:` in the type of an export that
has a caller must be passed by some call in a searched .ml file, the
module's own implementation included (where the name may be written
bare): `~label`, `~label:e`, `?label` or `?label:e` among the call's
arguments.  A call's arguments are what follows the name up to the
first operator, `;`, `,`, keyword or unmatched closing bracket; a
label inside a nested bracket belongs to another call.  An export with
no caller is judged as a whole, so its options are not checked apart.

tools/exports_allowlist.txt names the test-only exports and options
that stay, one per line, `lib/<lib>/<mod>.mli: val <name> — <reason>`
or `lib/<lib>/<mod>.mli: val <name> ?<label> — <reason>`; blank lines
and lines starting with `#` are ignored.  The check fails on
  - a test-only export or option that the list does not name;
  - a listed one that has a caller again, or is gone, so the list
    only shrinks and never names what no longer needs it;
  - a line without a reason, or in any other form.

Run from the repository root: python3 tools/check_exports.py
Prints each problem, the unlisted ones as `lib/<lib>/<mod>.mli: val
<name>` or `... val <name> ?<label>`, and exits 1 if there is any.
"""

import os
import re
import sys

SEARCH_DIRS = ["lib", "bin", "bench", "examples", "perfbench/harness"]
IDENT = r"[a-z_][A-Za-z0-9_']*"
UIDENT = r"[A-Z][A-Za-z0-9_']*"
OPERATOR = r"[!$%&*+\-./:<=>?@^|~#]+"
ALLOWLIST = "tools/exports_allowlist.txt"
LISTED_RE = re.compile(
    r"^(lib/\w+/\w+\.mli): val ((?:" + UIDENT + r"\.)*(?:" + IDENT + "|" + OPERATOR
    + r"))(?: \?(" + IDENT + r"))?(?: — (.*))?$")
# a signature item starts a line; a val's type runs to the next one
ITEM_RE = re.compile(
    r"^[ \t]*(val|type|module|exception|external|include|open|class|end)\b", re.M)
VAL_RE = re.compile(r"val\s+(" + IDENT + r"|\([^)]*\))\s*:")
SUBSIG_RE = re.compile(r"module\s+(" + UIDENT + r")\s*:\s*sig\b")
OPTION_RE = re.compile(r"\?(" + IDENT + r")\s*:")
MPATH = UIDENT + r"(?:\." + UIDENT + r")*"
OPEN_RE = re.compile(r"\b(?:open!?|include)\s+(" + MPATH + r")")
LOCAL_OPEN_RE = re.compile(r"\b(" + MPATH + r")\.([(\[{])")
ALIAS_RE = re.compile(r"\bmodule\s+(" + UIDENT + r")\s*=\s*(" + MPATH + r")\b")
DEFINITION_RE = re.compile(r"\b(?:let|rec|and|val|external|method)\s+$")
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


QUALIFIED_RE = re.compile(r"(?<![A-Za-z0-9_'])(" + UIDENT + r")\.(" + IDENT + ")")
BARE_RE = re.compile(r"(?<![A-Za-z0-9_'.])" + IDENT)
ARG_RE = re.compile(
    r"\s*(?:(?P<label>[~?]" + IDENT + r"):?|(?P<open>[(\[{])|(?P<close>[)\]}])"
    r"|(?P<word>[A-Za-z0-9_][A-Za-z0-9_']*)|(?P<op>[!$%&*+\-./:;<=>?@^|~#,]+|\S))")
# words that end an application; `begin`/`end` are brackets
STOP_WORDS = {
    "in", "then", "else", "do", "done", "with", "let", "and", "or", "match",
    "if", "when", "of", "to", "downto", "function", "fun", "try", "val",
    "type", "module", "open", "include", "exception", "external", "mod",
    "land", "lor", "lxor", "lsl", "lsr", "asr"}


def labels_passed(text, pos):
    """The labels of the arguments applied at `pos`, just past a name."""
    labels, depth = set(), 0
    while True:
        m = ARG_RE.match(text, pos)
        if not m:
            return labels
        pos, kind, tok = m.end(), m.lastgroup, m.group(m.lastgroup)
        if kind == "label":
            if depth == 0:
                labels.add(tok[1:])
        elif kind == "open" or tok == "begin":
            depth += 1
        elif kind == "close" or tok == "end":
            depth -= 1
            if depth < 0:
                return labels
        elif depth == 0 and (tok in STOP_WORDS if kind == "word"
                             else tok not in (".", "!", ":")):
            return labels


class Source:
    def __init__(self, path):
        self.path = path
        with open(path, encoding="utf-8") as f:
            self.text = text = strip(f.read())
        # (module, value) -> the offsets just past each `M.v`
        self.qualified = {}
        for m in QUALIFIED_RE.finditer(text):
            self.qualified.setdefault((m.group(1), m.group(2)), []).append(m.end())
        # value -> the offsets just past each bare use, definitions left out
        self.bare = {}
        for m in BARE_RE.finditer(text):
            if not DEFINITION_RE.search(text, max(0, m.start() - 12), m.start()):
                self.bare.setdefault(m.group(0), []).append(m.end())
        aliases = {}
        for m in ALIAS_RE.finditer(text):
            aliases.setdefault(m.group(2).split(".")[-1], set()).add(m.group(1))
        self.aliases = aliases
        # module name -> the (start, end) spans where it is open
        self.opened = {}
        for m in OPEN_RE.finditer(text):
            self.opened.setdefault(m.group(1).split(".")[-1], []).append(
                (m.start(), len(text)))
        for m in LOCAL_OPEN_RE.finditer(text):
            self.opened.setdefault(m.group(1).split(".")[-1], []).append(
                (m.end(), matching(text, m.end(2) - 1, m.group(2))))

    def uses(self, module, value, own=False):
        """The offsets just past each use of `module`'s `value`; in the
        module's `own` implementation a bare use counts anywhere."""
        found = [e for m in {module} | self.aliases.get(module, set())
                 for e in self.qualified.get((m, value), [])]
        spans = self.opened.get(module, [])
        found += [e for e in self.bare.get(value, [])
                  if own or any(a <= e <= b for a, b in spans)]
        return found

    def names(self, module, value):
        if not re.fullmatch(IDENT, value):  # an operator: any use of its symbol
            return value in self.text
        return bool(self.uses(module, value))

    def passes(self, module, value, own):
        """The labels some use of `module`'s `value` passes."""
        return set().union(*(labels_passed(self.text, e)
                             for e in self.uses(module, value, own)))


def sources(root):
    for d in SEARCH_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, d)):
            for f in sorted(files):
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


def vals(text):
    """(module path, value, options) for each val of an interface, the
    module path naming the `module M : sig ... end` blocks around it."""
    items = list(ITEM_RE.finditer(text)) + [None]
    path = []  # a block that is not a named signature reads as None
    for item, after in zip(items, items[1:]):
        body = text[item.start():after.start() if after else len(text)]
        kw = item.group(1)
        if kw == "end":
            if path:
                path.pop()
        elif kw == "module" and re.search(r"\bsig\b", body):
            m = SUBSIG_RE.match(body.lstrip())
            path.append(m.group(1) if m else None)
        elif kw == "val" and None not in path:
            m = VAL_RE.match(body.lstrip())
            if m:
                name = m.group(1)
                if name.startswith("("):
                    name = name[1:-1].strip()
                yield path[:], name, OPTION_RE.findall(body[m.end():])


def exports(root):
    """(mli path, module name, listed name, value, options) for every val."""
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
                for sub, value, options in vals(text):
                    module = sub[-1] if sub else f[:-4].capitalize()
                    yield path, module, ".".join(sub + [value]), value, options


def test_only(root):
    """The exports no caller names, as (mli, name, None), and the
    options no call passes, as (mli, name, label)."""
    srcs = [Source(p) for p in sources(root)]
    for mli, module, name, value, options in exports(root):
        # the rest of its own implementation calls a nested module's val
        own = {mli} if "." in name else {mli, mli[:-1]}
        if not any(s.names(module, value) for s in srcs if s.path not in own):
            yield mli, name, None
            continue
        passed = set().union(*(s.passes(module, value, s.path == mli[:-1])
                               for s in srcs if s.path.endswith(".ml")))
        for label in options:
            if label not in passed:
                yield mli, name, label


def show(name, label):
    return f"val {name}" + (f" ?{label}" if label else "")


def read_allowlist(root):
    """{(mli, name, label or None): line number} of the listed exports
    and options, and the problems of the lines that do not say what
    they should."""
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
                                f"val <name> [?<label>] — <reason>`: {line}")
                continue
            listed[m.group(1, 2, 3)] = n
            if not (m.group(4) or "").strip():
                problems.append(f"{ALLOWLIST}:{n}: {m.group(1)}: "
                                f"{show(*m.group(2, 3))} has no reason")
    return listed, problems


def problems(root):
    listed, found = read_allowlist(root)
    unused = {(os.path.relpath(m, root).replace(os.sep, "/"), v, o)
              for m, v, o in test_only(root)}
    for mli, name, label in sorted(unused - listed.keys(),
                                   key=lambda k: (k[0], k[1], k[2] or "")):
        found.append(f"{mli}: {show(name, label)}")
    for (mli, name, label), n in sorted(listed.items(), key=lambda kv: kv[1]):
        if (mli, name, label) not in unused:
            found.append(f"{ALLOWLIST}:{n}: {mli}: {show(name, label)} has a "
                         "caller or is gone: delete the line")
    return found


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    found = problems(root)
    for line in found:
        print(line)
    if found:
        print(f"{len(found)} problem(s): an export or option only tests use "
              f"must get a caller, go, or be listed with a reason in {ALLOWLIST}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
