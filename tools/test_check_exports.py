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

    # lib/a/m.mli exports g, which bin/ calls without its ?k
    OPTION = {
        "lib/a/m.mli": "val g : ?k:int -> unit -> int\n",
        "lib/a/m.ml": "let g ?(k = 1) () = k\n",
        "bin/main.ml": "let () = print_int (M.g ())\n",
        "test/t.ml": "let () = assert (M.g ~k:2 () = 2)\n",
    }

    def option_caller(self, caller):
        """OPTION with `caller` as bin/main.ml."""
        files = dict(self.OPTION)
        files["bin/main.ml"] = caller
        return files

    def test_unpassed_option_reported(self):
        self.assertEqual(self.tree(self.OPTION), ["lib/a/m.mli: val g ?k"])

    def test_listed_option_passes(self):
        files = dict(self.OPTION)
        files[LIST] = "lib/a/m.mli: val g ?k — test hook\n"
        self.assertEqual(self.tree(files), [])

    def test_stale_option_line_fails(self):
        files = self.option_caller("let () = print_int (M.g ~k:3 ())\n")
        files[LIST] = "lib/a/m.mli: val g ?k — test hook\n"
        found = self.tree(files)
        self.assertEqual(len(found), 1)
        self.assertIn(f"{LIST}:1: lib/a/m.mli: val g ?k has a caller", found[0])

    def test_option_line_without_reason_fails(self):
        files = dict(self.OPTION)
        files[LIST] = "lib/a/m.mli: val g ?k\n"
        found = self.tree(files)
        self.assertEqual(len(found), 1)
        self.assertIn("val g ?k has no reason", found[0])

    def test_passing_forms_count(self):
        for caller in [
            "let () = print_int (M.g ~k:3 ())\n",  # labelled
            "let h ~k = M.g ~k ()\n",  # punned
            "let h ?k () = M.g ?k ()\n",  # forwarded
            "let h k = M.g ?k:(Some k) ()\n",  # an option passed as is
            "let () = print_int M.(g ~k:3 ())\n",  # under a local open
        ]:
            self.assertEqual(self.tree(self.option_caller(caller)), [], caller)

    def test_label_of_another_call_does_not_count(self):
        for caller in [
            "let () = print_int (M.g (f ~k:3) ())\n",  # inside a bracket
            "let () = print_int (M.g ()) ; f ~k:3\n",  # after a `;`
            "let x = M.g () in f ~k:3\n",  # after an `in`
            "let () = M.g () |> f ~k:3\n",  # after an operator
        ]:
            self.assertEqual(self.tree(self.option_caller(caller)),
                             ["lib/a/m.mli: val g ?k"], caller)

    def test_own_implementation_passes_bare(self):
        files = dict(self.OPTION)
        files["lib/a/m.ml"] = "let g ?(k = 1) () = k\nlet h () = g ~k:2 ()\n"
        self.assertEqual(self.tree(files), [])
        # the definition itself passes nothing
        files["lib/a/m.ml"] = "let rec g ?k () = match k with None -> 1 | Some k -> k\n"
        self.assertEqual(self.tree(files), ["lib/a/m.mli: val g ?k"])

    def test_options_of_a_test_only_export_are_not_checked(self):
        files = dict(self.OPTION)
        del files["bin/main.ml"]
        self.assertEqual(self.tree(files), ["lib/a/m.mli: val g"])

    # lib/a/m.mli exports P.f, P.g, and P.h ?k from a nested signature
    NESTED = {
        "lib/a/m.mli": ("module P : sig\n  type t\n  val f : int\n"
                        "  val g : int\n  val h : ?k:int -> unit -> int\nend\n"
                        "val top : int\n"),
        "lib/a/m.ml": ("module P = struct type t = int let f = 1 let g = f\n"
                       "  let h ?(k = 0) () = k end\nlet top = P.f + P.h ()\n"),
        "bin/main.ml": "let () = print_int (M.top + M.P.h ())\n",
        "test/t.ml": "let () = assert (M.P.g = 1)\n",
    }

    def test_nested_val_read_as_module_path(self):
        # g is named only bare inside P, and by a test; h's ?k is never
        # passed; f counts because the rest of m.ml calls P.f
        self.assertEqual(self.tree(self.NESTED),
                         ["lib/a/m.mli: val P.g", "lib/a/m.mli: val P.h ?k"])

    def test_nested_val_listed(self):
        files = dict(self.NESTED)
        files[LIST] = ("lib/a/m.mli: val P.g — test hook\n"
                       "lib/a/m.mli: val P.h ?k — test hook\n")
        self.assertEqual(self.tree(files), [])

    def test_module_type_vals_are_not_exports(self):
        files = {
            "lib/a/m.mli": "module type S = sig\n  val f : int\nend\nval top : int\n",
            "lib/a/m.ml": "module type S = sig val f : int end\nlet top = 1\n",
            "bin/main.ml": "let () = print_int M.top\n",
        }
        self.assertEqual(self.tree(files), [])


if __name__ == "__main__":
    unittest.main()
