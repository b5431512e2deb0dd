#!/usr/bin/env python3
"""Tests for scripts/lint_invariants.py.

Each fixture under tests/lint/fixtures/ violates exactly one rule; the
tests assert the linter fires on it (exit 1, rule id in the output, the
expected finding count) and that the real tree passes clean. Run directly
or via ctest (registered in tests/lint/CMakeLists.txt)."""

import os
import subprocess
import sys
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
