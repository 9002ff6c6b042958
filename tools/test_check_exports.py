#!/usr/bin/env python3
"""Self-test of tools/check_exports.py over small temporary trees.

Run from anywhere: python3 tools/test_check_exports.py
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_exports  # noqa: E402

LIST = check_exports.ALLOWLIST


class Guard(unittest.TestCase):
    def tree(self, files):
        """A repository holding `files` ({path: text}); the problems the
        guard finds in it."""
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        root = tmp.name
        for path, text in files.items():
            full = os.path.join(root, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as f:
                f.write(text)
        return check_exports.problems(root)

    # lib/a/m.mli exports f; only a test names it
    TEST_ONLY = {
        "lib/a/m.mli": "val f : int\n",
        "lib/a/m.ml": "let f = 1\n",
        "test/t.ml": "let () = assert (M.f = 1)\n",
    }

    def test_test_only_export_reported(self):
        self.assertEqual(self.tree(self.TEST_ONLY), ["lib/a/m.mli: val f"])

    def test_listed_export_passes(self):
        files = dict(self.TEST_ONLY)
        files[LIST] = "# kept\n\nlib/a/m.mli: val f — test hook\n"
        self.assertEqual(self.tree(files), [])

    def test_stale_line_fails(self):
        files = dict(self.TEST_ONLY)
        files["bin/main.ml"] = "let () = print_int M.f\n"
        files[LIST] = "lib/a/m.mli: val f — test hook\n"
        found = self.tree(files)
        self.assertEqual(len(found), 1)
        self.assertIn(f"{LIST}:1: lib/a/m.mli: val f has a caller", found[0])

    def test_line_for_a_deleted_export_fails(self):
        files = dict(self.TEST_ONLY)
        files[LIST] = ("lib/a/m.mli: val f — test hook\n"
                       "lib/a/m.mli: val gone — deleted since\n")
        self.assertEqual(len(self.tree(files)), 1)

    def test_line_without_reason_fails(self):
        for line in ["lib/a/m.mli: val f\n", "lib/a/m.mli: val f — \n"]:
            files = dict(self.TEST_ONLY)
            files[LIST] = line
            found = self.tree(files)
            self.assertEqual(len(found), 1, line)
            self.assertIn("has no reason", found[0])

    def test_malformed_line_fails(self):
        files = dict(self.TEST_ONLY)
        files[LIST] = "lib/a/*.mli: val f — wildcard\nlib/a/m.mli: val f — hook\n"
        found = self.tree(files)
        self.assertEqual(len(found), 1)
        self.assertIn("not `lib/<lib>/<mod>.mli", found[0])

    def callers(self, caller):
        """The problems when bin/main.ml is `caller` and lib/a/m.mli
        exports f and ( +! )."""
        return self.tree({
            "lib/a/m.mli": "val f : int\nval ( +! ) : int -> int -> int\n",
            "lib/a/m.ml": "let f = 1\nlet ( +! ) = ( + )\n",
            "bin/main.ml": caller,
        })

    def test_alias_counts_as_caller(self):
        self.assertEqual(
            self.callers("module A = M\nlet () = print_int (A.f +! 1)\n"), [])

    def test_local_open_counts_as_caller(self):
        self.assertEqual(self.callers("let () = print_int M.(f +! 1)\n"), [])

    def test_operator_counts_as_caller(self):
        self.assertEqual(self.callers("let () = print_int (M.f +! 1)\n"), [])
        self.assertEqual(self.callers("let () = print_int M.f\n"),
                         ["lib/a/m.mli: val +!"])


if __name__ == "__main__":
    unittest.main()
