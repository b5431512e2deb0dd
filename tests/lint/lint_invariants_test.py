#!/usr/bin/env python3
"""Tests for scripts/lint_invariants.py.

Each fixture under tests/lint/fixtures/ violates exactly one rule; the
tests assert the linter fires on it (exit 1, rule id in the output, the
expected finding count) and that the real tree passes clean. Run directly
or via ctest (registered in tests/lint/CMakeLists.txt)."""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.environ.get(
    "SDTW_REPO_ROOT",
    os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
LINTER = os.path.join(REPO_ROOT, "scripts", "lint_invariants.py")
FIXTURES = os.path.join(REPO_ROOT, "tests", "lint", "fixtures")


def run_linter(*argv):
    return subprocess.run(
        [sys.executable, LINTER, *argv],
        capture_output=True, text=True, check=False)


class FixtureTest(unittest.TestCase):
    def assert_fires(self, fixture, rule, expect_findings):
        r = run_linter("--root", os.path.join(FIXTURES, fixture),
                       "--only", rule)
        self.assertEqual(
            r.returncode, 1,
            f"{fixture} should fail rule {rule}; stdout:\n{r.stdout}\n"
            f"stderr:\n{r.stderr}")
        findings = [line for line in r.stdout.splitlines()
                    if f"[{rule}]" in line]
        self.assertEqual(
            len(findings), expect_findings,
            f"unexpected finding set for {fixture}:\n{r.stdout}")
        return r.stdout

    def test_kernel_internal_linkage_fires(self):
        out = self.assert_fires("bad_linkage", "kernel-internal-linkage", 1)
        # The leaked helper is named; the allowlisted ops table is not.
        self.assertIn("LeakyHelper", out)
        self.assertNotIn("kFixtureRowKernelOps", out)

    def test_match_kernel_internal_linkage_fires(self):
        out = self.assert_fires("bad_match_linkage",
                                "kernel-internal-linkage", 1)
        self.assertIn("LeakyMatchHelper", out)
        self.assertNotIn("kFixtureMatchKernelOps", out)

    def test_inline_call_leak_fires_without_inlining(self):
        # Clean at -O1, where the call is inlined; the -O0 probe (what a
        # Debug build compiles) sees the weak copy.
        out = self.assert_fires("bad_inline_linkage",
                                "kernel-internal-linkage", 1)
        self.assertIn("FixtureBlock::data", out)
        self.assertNotIn("kFixtureMatchKernelOps", out)

    def test_fp_contract_fires(self):
        out = self.assert_fires("bad_fp_contract", "fp-contract", 3)
        self.assertIn("CMakeLists.txt:6", out)   # -ffast-math
        self.assertIn("CMakeLists.txt:8", out)   # -ffp-contract=fast
        self.assertIn("pragma_smuggle.cc:5", out)
        # -ffp-contract=off and comment mentions stay legal.
        self.assertNotIn("CMakeLists.txt:12", out)

    def test_naked_new_fires(self):
        out = self.assert_fires("bad_naked_new", "naked-new", 2)
        self.assertIn("leaky_buffer.cc:10", out)  # new int[3]
        self.assertIn("leaky_buffer.cc:14", out)  # std::malloc
        # lint:allow(naked-new) suppresses line 19.
        self.assertNotIn("leaky_buffer.cc:19", out)


class BuiltObjectsTest(unittest.TestCase):
    """--objects over a sanitizer build: objects compiled here with
    -fsanitize=address into a CMake-like layout, under the fixture root
    objects_asan, whose src/CMakeLists.txt lists one kernel source."""

    ROOT = os.path.join(FIXTURES, "objects_asan")
    LISTED = os.path.join("dtw", "kernels", "row_kernel_avx2_fixture.cc")
    LEAKY = ("namespace sdtw { namespace dtw { namespace internal {\n"
             "double LeakyHelper(double x) { return x + 1.0; }\n"
             "} } }\n")

    def setUp(self):
        self.cxx = (os.environ.get("CXX") or shutil.which("c++")
                    or shutil.which("g++"))
        if self.cxx is None:
            self.skipTest("no C++ compiler")
        self.tmp = tempfile.TemporaryDirectory(prefix="sdtw_lint_objects_")
        self.build = self.tmp.name
        self.objdir = os.path.join(self.build, "src", "CMakeFiles",
                                   "fixture.dir")

    def tearDown(self):
        self.tmp.cleanup()

    def compile(self, source, rel_source):
        obj = os.path.join(self.objdir, rel_source + ".o")
        os.makedirs(os.path.dirname(obj), exist_ok=True)
        r = subprocess.run(
            [self.cxx, "-std=c++20", "-O0", "-fsanitize=address", "-c",
             source, "-o", obj], capture_output=True, text=True,
            check=False)
        if r.returncode != 0:
            self.skipTest(f"cannot compile with -fsanitize=address: "
                          f"{r.stderr.strip()}")
        return obj

    def compile_text(self, text, rel_source):
        source = os.path.join(self.build, os.path.basename(rel_source))
        with open(source, "w", encoding="utf-8") as f:
            f.write(text)
        return self.compile(source, rel_source)

    def lint(self):
        return run_linter("--root", self.ROOT, "--only",
                          "kernel-internal-linkage", "--objects", self.build)

    def test_odr_indicator_allowed_and_stale_object_skipped(self):
        obj = self.compile(os.path.join(self.ROOT, "src", self.LISTED),
                           self.LISTED)
        nm = subprocess.run(["nm", obj], capture_output=True, text=True,
                            check=False)
        self.assertIn("__odr_asan._ZN4sdtw3dtw8internal"
                      "20kFixtureRowKernelOpsE", nm.stdout)
        # The object of a kernel source no longer listed: it would leak.
        self.compile_text(self.LEAKY, os.path.join(
            "dtw", "kernels", "row_kernel_avx2_removed.cc"))
        r = self.lint()
        self.assertEqual(r.returncode, 0,
                         f"stdout:\n{r.stdout}\nstderr:\n{r.stderr}")

    def test_listed_leaky_object_still_fires(self):
        self.compile_text(self.LEAKY, self.LISTED)
        r = self.lint()
        self.assertEqual(r.returncode, 1,
                         f"stdout:\n{r.stdout}\nstderr:\n{r.stderr}")
        self.assertIn("LeakyHelper", r.stdout)


class DemangleTest(unittest.TestCase):
    def test_odr_indicator_of_an_allowed_table_only(self):
        sys.path.insert(0, os.path.join(REPO_ROOT, "scripts"))
        try:
            import lint_invariants as lint
        finally:
            sys.path.pop(0)
        self.assertTrue(lint.allowed_export(
            "__odr_asan._ZN4sdtw3dtw8internal19kAvx512RowKernelOpsE"))
        self.assertTrue(lint.allowed_export(
            "__odr_asan._ZN4sdtw5align8internal23kPortableMatchKernelOpsE"))
        # A wrong length prefix, another name, another namespace.
        self.assertFalse(lint.allowed_export(
            "__odr_asan._ZN4sdtw3dtw8internal18kAvx512RowKernelOpsE"))
        self.assertFalse(lint.allowed_export(
            "__odr_asan._ZN4sdtw3dtw8internal11LeakyHelperE"))
        self.assertFalse(lint.allowed_export(
            "__odr_asan._ZN4sdtw3dtw19kAvx512RowKernelOpsE"))


class CleanTreeTest(unittest.TestCase):
    def test_real_tree_is_clean(self):
        r = run_linter("--root", REPO_ROOT)
        self.assertEqual(
            r.returncode, 0,
            f"real tree should lint clean; stdout:\n{r.stdout}\n"
            f"stderr:\n{r.stderr}")
        self.assertIn("clean", r.stdout)

    def test_jobs_output_matches_serial(self):
        serial = run_linter("--root", REPO_ROOT)
        parallel = run_linter("--root", REPO_ROOT, "--jobs", "4")
        self.assertEqual(parallel.returncode, serial.returncode)
        self.assertEqual(
            parallel.stdout, serial.stdout,
            "--jobs must not change the findings or their order")

    def test_jobs_zero_is_usage_error(self):
        r = run_linter("--jobs", "0")
        self.assertEqual(r.returncode, 2)

    def test_missing_compiler_is_unavailable(self):
        # EX_UNAVAILABLE (69): the probe tool is absent, every rule that
        # could run was clean — callers skip instead of failing.
        r = run_linter("--root", REPO_ROOT,
                       "--only", "kernel-internal-linkage",
                       "--compiler", "/nonexistent/sdtw-cxx")
        self.assertEqual(
            r.returncode, 69,
            f"stdout:\n{r.stdout}\nstderr:\n{r.stderr}")
        self.assertIn("skipping", r.stderr)

    def test_findings_beat_unavailable(self):
        # A tree with real findings exits 1 even when the linkage probe
        # tool is missing: a verdict in hand outranks a skipped probe.
        r = run_linter("--root", os.path.join(FIXTURES, "bad_naked_new"),
                       "--compiler", "/nonexistent/sdtw-cxx")
        self.assertEqual(
            r.returncode, 1,
            f"stdout:\n{r.stdout}\nstderr:\n{r.stderr}")

    def test_list_rules(self):
        r = run_linter("--list-rules")
        self.assertEqual(r.returncode, 0)
        rules = r.stdout.split()
        self.assertEqual(
            rules, ["kernel-internal-linkage", "fp-contract", "naked-new"])

    def test_bad_root_is_usage_error(self):
        r = run_linter("--root", os.path.join(FIXTURES, "does_not_exist"))
        self.assertEqual(r.returncode, 2)


if __name__ == "__main__":
    unittest.main()
