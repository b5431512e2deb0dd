"""Unit tests of run_benchmark.py's comparison, result and trace logic on
synthetic inputs. Run: python3 -m unittest test_run_benchmark (from this
directory)."""

import statistics
import tempfile
import unittest
from pathlib import Path

import run_benchmark as rb

SPEC = {
    "end_to_end": [
        {"name": "throughput", "unit": "1/s", "better": "higher",
         "bound": 0.1},
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "batch.dp_evaluations", "unit": "count", "better": "lower"},
        {"name": "eval.dp_ms", "unit": "ms", "better": "lower"},
    ],
}
THROUGHPUT = SPEC["end_to_end"][0]
LATENCY = SPEC["end_to_end"][1]
TIGHT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def report(seed, **metrics):
    return {"seed": seed, "correct": True, "attempted": 10, "failed": 0,
            "metrics": metrics}


class QuartilesTest(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        q1, q2, q3 = statistics.quantiles(TIGHT, n=4)
        self.assertEqual(rb.quartiles(TIGHT), (q1, q2, q3))

    def test_single_value(self):
        self.assertEqual(rb.quartiles([3.0]), (3.0, 3.0, 3.0))


class CompareMetricTest(unittest.TestCase):
    def test_same_distribution_is_within_bound(self):
        row = rb.compare_metric(THROUGHPUT, TIGHT, list(reversed(TIGHT)))
        self.assertEqual(row["verdict"], "within bound")

    def test_slower_throughput_is_regression(self):
        row = rb.compare_metric(THROUGHPUT, TIGHT, [0.8 * x for x in TIGHT])
        self.assertEqual(row["verdict"], "regression")
        self.assertLess(row["change"], -0.1)

    def test_higher_latency_is_regression(self):
        row = rb.compare_metric(LATENCY, TIGHT, [1.2 * x for x in TIGHT])
        self.assertEqual(row["verdict"], "regression")

    def test_lower_latency_winning_every_pair_is_improved(self):
        row = rb.compare_metric(LATENCY, TIGHT, [0.9 * x for x in TIGHT])
        self.assertEqual(row["verdict"], "improved")
        self.assertEqual(row["win_fraction"], 1.0)

    def test_small_gain_inside_spread_is_not_improved(self):
        wide = [80.0, 120.0, 90.0, 110.0, 95.0, 105.0, 85.0, 115.0, 100.0,
                100.0]
        row = rb.compare_metric(THROUGHPUT, wide, [x + 1 for x in wide])
        self.assertNotEqual(row["verdict"], "improved")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0,
                 100.0]
        row = rb.compare_metric(THROUGHPUT, noisy, list(reversed(noisy)))
        self.assertEqual(row["verdict"], "unresolved")

    def test_every_run_better_resolves_a_wide_spread(self):
        noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0,
                 100.0]
        better = [x + 81.0 for x in noisy]  # min(better) > max(noisy)
        row = rb.compare_metric(THROUGHPUT, noisy, better)
        self.assertEqual(row["verdict"], "improved")

    def test_worse_on_wide_spread_is_unresolved_not_regression(self):
        noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0,
                 100.0]
        row = rb.compare_metric(THROUGHPUT, noisy, [0.8 * x for x in noisy])
        self.assertEqual(row["verdict"], "unresolved")


class CompareTest(unittest.TestCase):
    def test_rows_and_moved_counts(self):
        a = {"knn": [report(s, throughput=100.0 + s, p50_ms=10.0,
                            overlap_at5=0.8) for s in range(10)]}
        b = {"knn": [report(s, throughput=100.0 + s, p50_ms=10.0,
                            overlap_at5=0.8 if s else 0.75)
                     for s in range(10)]}
        traced_a = {"knn": report(17, **{"batch.dp_evaluations": 779.0})}
        traced_b = {"knn": report(17, **{"batch.dp_evaluations": 700.0})}
        result = rb.compare(SPEC, a, b, traced_a, traced_b)["knn"]
        self.assertEqual([r["verdict"] for r in result["rows"]],
                         ["within bound", "within bound"])
        self.assertEqual(result["counts_moved"],
                         [(0, "overlap_at5", 0.8, 0.75),
                          (17, "batch.dp_evaluations", 779.0, 700.0)])
        self.assertTrue(result["correct"])

    def test_identical_counts_do_not_move(self):
        m = {"batch.dp_evaluations": 779.0, "eval.dp_ms": 1.0}
        n = {"batch.dp_evaluations": 779.0, "eval.dp_ms": 2.0}
        self.assertEqual(rb.moved_counts(m, n), [])


class ContractResultTest(unittest.TestCase):
    def test_end_to_end_metrics_with_units(self):
        out = rb.contract_result(SPEC, "knn_sdtw",
                                 report(1, throughput=5.0, p50_ms=2.0),
                                 traced=False)
        self.assertEqual(out["metrics"], {
            "throughput": {"value": 5.0, "unit": "1/s"},
            "p50_ms": {"value": 2.0, "unit": "ms"}})
        self.assertEqual((out["attempted"], out["failed"]), (10, 0))

    def test_bypassed_layer_reads_zero(self):
        out = rb.contract_result(
            SPEC, "knn_sdtw", report(1, **{"batch.dp_evaluations": 7.0}),
            traced=True)
        self.assertEqual(out["metrics"]["eval.dp_ms"]["value"], 0.0)

    def test_missing_metric_of_an_exercised_layer_is_an_error(self):
        with self.assertRaises(rb.BenchError):
            rb.contract_result(SPEC, "pairwise_sdtw",
                               report(1, **{"batch.dp_evaluations": 7.0}),
                               traced=True)


class ConfigureTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.base = Path(self.tmp.name).resolve()
        self.tree_a = self.base / "a"
        self.tree_b = self.base / "b"

    def configured(self, build_dir, tree):
        build_dir.mkdir(parents=True)
        (build_dir / "CMakeCache.txt").write_text(
            "CMAKE_BUILD_TYPE:STRING=Release\n"
            f"SDTW_ROOT:PATH={tree}/sub/..\n", encoding="utf-8")

    def test_fresh_directory_configures_with_the_tree(self):
        cmd = rb.configure_command(self.base / "build", self.tree_a)
        self.assertIn(f"-DSDTW_ROOT={self.tree_a}", cmd)
        self.assertEqual(cmd[:2], ["cmake", "-S"])

    def test_directory_configured_for_the_tree_is_reused(self):
        self.configured(self.base / "build", self.tree_a)
        self.assertIsNone(rb.configure_command(self.base / "build",
                                               self.tree_a))

    def test_directory_configured_for_another_tree_is_refused(self):
        self.configured(self.base / "build", self.tree_a)
        with self.assertRaises(rb.BenchError):
            rb.configure_command(self.base / "build", self.tree_b)

    def test_each_tree_gets_its_own_build_directory(self):
        a = rb.tree_build_dir(self.base, self.tree_a)
        self.assertNotEqual(a, rb.tree_build_dir(self.base, self.tree_b))
        self.assertEqual(a, rb.tree_build_dir(self.base,
                                              self.tree_a / "x" / ".."))


class TraceSummaryTest(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        def span(span_id, parent, layer, ts, dur):
            return {"cat": layer, "ts": ts, "dur": dur,
                    "args": {"id": span_id, "parent": parent, "request": 0}}
        trace = {"traceEvents": [
            span(1, 0, "bench", 0.0, 1000.0),
            span(2, 1, "retrieval.batch", 100.0, 300.0),
            span(3, 1, "retrieval.batch", 300.0, 500.0),  # overlaps span 2
        ]}
        summary = rb.summarize_trace(trace)
        # Children cover 100..800 us of the parent's 1000 us.
        self.assertAlmostEqual(summary["bench"]["self_ms"], 0.3)
        self.assertAlmostEqual(summary["retrieval.batch"]["self_ms"], 0.8)
        self.assertEqual(summary["retrieval.batch"]["spans"], 2)


if __name__ == "__main__":
    unittest.main()
