// Bitwise-equivalence properties of the strip-wavefront DP kernel
// (dtw/row_kernel.h) against the retained scalar row reference:
//  * one dispatched strip fill must reproduce FillBandRowScalar, row by
//    row, bit for bit — cell values, row minima, and cell counts — across
//    random strips and an edge-case catalogue: strips of 1–7 real rows
//    (n mod 8), an empty row at each lane, windows that jump more than a
//    strip's height, widths 1–3, m = 1, and predecessor rows containing
//    +infinity runs (infeasible-band prefixes);
//  * the library kernels built on it (DtwDistance, DtwBandedDistance,
//    DtwBanded, with and without an abandon threshold) must reproduce an
//    independent full-matrix DP — including the exact abandon decision and
//    cell count when the abandoning row sits at each lane of a strip, and
//    the count when a squared cost overflows to +infinity;
//  * under a finite threshold the fill prunes (dtw/row_kernel.h): a pruned
//    strip must stop at exactly the step the rule gives, match the
//    reference bit for bit before it and count the cells the reference
//    counts at that threshold, and every library kernel must keep the
//    full-matrix distance, path and abandon decision, with thresholds at
//    exact ties (the distance, each row minimum, and the double below
//    each);
//  * both cost kinds, every trial.
// The strip checks run the variant the runtime dispatch selected (or
// SDTW_KERNEL forces — see the property_forced_portable_kernel ctest
// registration). Per-variant pins across every runnable ISA live in
// kernel_dispatch_property_test.cc.

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <string>
#include <vector>

#include "dtw/band_matrix.h"
#include "dtw/dtw.h"
#include "dtw/kernel_dispatch.h"
#include "dtw/row_kernel.h"
#include "strip_harness.h"
#include "ts/random.h"

namespace sdtw {
namespace dtw {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ts::TimeSeries RandomWalk(std::size_t n, std::uint64_t seed) {
  ts::Rng rng(seed);
  std::vector<double> v(n);
  double x = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x += rng.Gaussian(0.0, 0.5);
    v[i] = x;
  }
  return ts::TimeSeries(std::move(v));
}

TEST(RowKernelProperty, StripMatchesScalarReferenceOnRandomWindows) {
  const RowKernelOps& ops = ActiveRowKernelOps();
  ts::Rng rng(20260730);
  for (int trial = 0; trial < 3000; ++trial) {
    // Short and long y, so windows hit both grid edges often.
    const ts::TimeSeries y =
        RandomWalk(trial % 4 == 0 ? 1 + trial % 13 : 160, 7 + trial % 5);
    const StripCase c = RandomStrip(rng, y.size());
    CheckStrip(ops, trial % 2 == 0 ? CostKind::kAbsolute : CostKind::kSquared,
               c, y);
    if (HasFatalFailure()) {
      ADD_FAILURE() << "trial " << trial;
      return;
    }
  }
}

// A band-like strip of `rows` rows: row r's window [lo + r * drift,
// lo + r * drift + width - 1], clamped to [1, m].
StripCase BandStrip(std::size_t rows, std::size_t lo, std::size_t width,
                    std::size_t drift, std::size_t m, ts::Rng& rng) {
  StripCase c;
  c.rows = rows;
  for (std::size_t r = 0; r < rows; ++r) {
    c.x[r] = rng.Gaussian(0.0, 1.0);
    c.lo[r] = std::min(m, lo + r * drift);
    c.hi[r] = std::min(m, c.lo[r] + width - 1);
  }
  c.plo = lo > 1 ? lo - 1 : 0;
  c.phi = std::min(m, c.plo + width);
  c.prev.resize(c.phi - c.plo + 1);
  for (double& v : c.prev) v = std::abs(rng.Gaussian(1.0, 1.0));
  return c;
}

// The edge-case catalogue: strips of 1..8 real rows (the final strip of
// an n-row DP holds n mod 8 of them) on band windows and on the full grid,
// an empty row at each lane (every later row of the strip is +inf),
// windows that jump more than a strip's height between rows, both ways,
// rows narrower than the lanes, and m = 1 (every row is the single column
// 1). Each entry runs against y, or against y1 when `m1` is set.
struct EdgeStrip {
  StripCase c;
  bool m1 = false;
  std::string name;
};

std::vector<EdgeStrip> EdgeCaseStrips(std::size_t m, ts::Rng& rng) {
  std::vector<EdgeStrip> out;
  for (std::size_t rows = 1; rows <= kStripRows; ++rows) {
    const std::string tag = "rows " + std::to_string(rows);
    out.push_back({BandStrip(rows, 5, 9, 1, m, rng), false, tag});
    out.push_back({BandStrip(rows, 1, m, 0, m, rng), false, tag + " full"});
  }
  for (std::size_t lane = 0; lane < kStripRows; ++lane) {
    StripCase c = BandStrip(kStripRows, 10, 12, 1, m, rng);
    c.hi[lane] = c.lo[lane] - 1;
    out.push_back({c, false, "empty lane " + std::to_string(lane)});
  }
  for (const std::size_t drift : {9, 17, 30}) {
    const std::string tag = "drift " + std::to_string(drift);
    out.push_back({BandStrip(kStripRows, 1, 3, drift, m, rng), false, tag});
    StripCase c = BandStrip(kStripRows, 2, 6, 0, m, rng);
    for (std::size_t r = 1; r < kStripRows; r += 2) {
      c.lo[r] = std::min(m, c.lo[r] + drift);
      c.hi[r] = std::min(m, c.hi[r] + drift);
    }
    out.push_back({c, false, tag + " alternating"});
  }
  for (std::size_t width = 1; width <= 3; ++width) {
    for (std::size_t drift = 0; drift <= 2; ++drift) {
      out.push_back({BandStrip(kStripRows, 3, width, drift, m, rng), false,
                     "width " + std::to_string(width)});
    }
  }
  for (std::size_t rows = 1; rows <= kStripRows; ++rows) {
    out.push_back({BandStrip(rows, 1, 1, 0, 1, rng), true,
                   "m = 1, rows " + std::to_string(rows)});
  }
  return out;
}

TEST(RowKernelProperty, StripEdgeCasesMatchScalarReference) {
  const RowKernelOps& ops = ActiveRowKernelOps();
  ts::Rng rng(4242);
  const ts::TimeSeries y = RandomWalk(64, 11);
  const ts::TimeSeries y1 = RandomWalk(1, 12);
  for (const CostKind cost : {CostKind::kAbsolute, CostKind::kSquared}) {
    for (const EdgeStrip& e : EdgeCaseStrips(y.size(), rng)) {
      CheckStrip(ops, cost, e.c, e.m1 ? y1 : y);
      ASSERT_FALSE(HasFatalFailure()) << e.name;
    }
  }
}

// Thresholds for a pruned strip: every exact tie of its reference values,
// plus a few that fall anywhere (below everything, inside the predecessor
// row's range, far above).
std::vector<double> StripThresholds(CostKind cost, const StripCase& c,
                                    const ts::TimeSeries& y, ts::Rng& rng) {
  std::vector<double> out = StripTieThresholds(cost, c, y);
  out.push_back(-1.0);
  out.push_back(0.0);
  out.push_back(std::abs(rng.Gaussian(2.0, 2.0)));
  out.push_back(1e300);
  return out;
}

TEST(RowKernelProperty, PrunedStripMatchesScalarReferenceOnRandomWindows) {
  const RowKernelOps& ops = ActiveRowKernelOps();
  ts::Rng rng(20261019);
  // Where the fills stopped: the one lane still live in the last step's
  // vectors, and the stop's offset within its strip modulo the height.
  bool stop_lane[kStripRows] = {};
  bool stop_offset[kStripRows] = {};
  for (int trial = 0; trial < 1500; ++trial) {
    const ts::TimeSeries y =
        RandomWalk(trial % 4 == 0 ? 1 + trial % 13 : 160, 7 + trial % 5);
    const StripCase c = RandomStrip(rng, y.size());
    const CostKind cost =
        trial % 2 == 0 ? CostKind::kAbsolute : CostKind::kSquared;
    for (const double threshold : StripThresholds(cost, c, y, rng)) {
      StripStop stop;
      CheckStrip(ops, cost, c, y, threshold, &stop);
      if (HasFatalFailure()) {
        ADD_FAILURE() << "trial " << trial << " threshold " << threshold;
        return;
      }
      if (stop.ran < stop.steps) {
        stop_offset[stop.ran % kStripRows] = true;
        if (stop.lane < kStripRows) stop_lane[stop.lane] = true;
      }
    }
  }
  for (std::size_t l = 0; l < kStripRows; ++l) {
    EXPECT_TRUE(stop_lane[l]) << "no stop with only lane " << l << " live";
    EXPECT_TRUE(stop_offset[l]) << "no stop at strip offset " << l;
  }
}

TEST(RowKernelProperty, PrunedStripEdgeCasesMatchScalarReference) {
  const RowKernelOps& ops = ActiveRowKernelOps();
  ts::Rng rng(4243);
  const ts::TimeSeries y = RandomWalk(64, 11);
  const ts::TimeSeries y1 = RandomWalk(1, 12);
  for (const CostKind cost : {CostKind::kAbsolute, CostKind::kSquared}) {
    for (const EdgeStrip& e : EdgeCaseStrips(y.size(), rng)) {
      const ts::TimeSeries& ys = e.m1 ? y1 : y;
      for (const double threshold : StripThresholds(cost, e.c, ys, rng)) {
        CheckStrip(ops, cost, e.c, ys, threshold);
        ASSERT_FALSE(HasFatalFailure()) << e.name << " threshold "
                                        << threshold;
      }
    }
  }
}

// Independent full-matrix banded DP: the pre-rewrite semantics, never
// touching the rolling kernels.
double ReferenceBandedDistance(const ts::TimeSeries& x,
                               const ts::TimeSeries& y, const Band& band,
                               CostKind cost, std::size_t* cells_out) {
  const std::size_t n = x.size();
  const std::size_t m = y.size();
  const std::size_t stride = m + 1;
  std::vector<double> d((n + 1) * stride, kInf);
  d[0] = 0.0;
  std::size_t cells = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    const BandRow& r = band.row(i - 1);
    if (r.lo > r.hi || r.lo >= m) continue;
    const double xi = x[i - 1];
    double* row = d.data() + i * stride;
    const double* prev = d.data() + (i - 1) * stride;
    for (std::size_t j = r.lo + 1; j <= r.hi + 1 && j <= m; ++j) {
      const double best = std::min({prev[j], row[j - 1], prev[j - 1]});
      if (!std::isfinite(best)) continue;
      row[j] = best + EvalCost(cost, xi, y[j - 1]);
      ++cells;
    }
  }
  if (cells_out != nullptr) *cells_out = cells;
  return d[n * stride + m];
}

Band RandomBand(std::size_t n, std::size_t m, ts::Rng& rng,
                bool make_feasible) {
  std::vector<BandRow> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t a = static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * m);
    const std::size_t b = static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * m);
    rows[i].lo = std::min(a, b);
    rows[i].hi = rng.Uniform(0.0, 1.0) < 0.1 ? std::min(a, b) : std::max(a, b);
    if (rng.Uniform(0.0, 1.0) < 0.08) std::swap(rows[i].lo, rows[i].hi);  // inverted
  }
  Band band = Band::FromRows(std::move(rows), m);
  if (make_feasible) band.MakeFeasible();
  return band;
}

TEST(RowKernelProperty, LibraryKernelsMatchFullMatrixReference) {
  ts::Rng rng(99);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * 40);
    const std::size_t m = 1 + static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * 40);
    const ts::TimeSeries x = RandomWalk(n, 1000 + trial);
    const ts::TimeSeries y = RandomWalk(m, 2000 + trial);
    const CostKind cost =
        trial % 2 == 0 ? CostKind::kAbsolute : CostKind::kSquared;
    const Band band = RandomBand(n, m, rng, rng.Uniform(0.0, 1.0) < 0.7);

    std::size_t ref_cells = 0;
    const double ref =
        ReferenceBandedDistance(x, y, band, cost, &ref_cells);
    EXPECT_EQ(ref, DtwBandedDistance(x, y, band, cost)) << "trial " << trial;

    // Full-grid rolling kernel against the full-band reference.
    const Band full = Band::Full(n, m);
    const double ref_full =
        ReferenceBandedDistance(x, y, full, cost, nullptr);
    EXPECT_EQ(ref_full, DtwDistance(x, y, cost)) << "trial " << trial;

    // Path-preserving fill: distance and cells from the same kernel.
    DtwOptions options;
    options.cost = cost;
    options.want_path = false;
    const DtwResult banded = DtwBanded(x, y, band, options);
    if (std::isfinite(ref)) {
      EXPECT_EQ(ref, banded.distance) << "trial " << trial;
    } else {
      EXPECT_TRUE(std::isinf(banded.distance)) << "trial " << trial;
    }
    EXPECT_EQ(ref_cells, banded.cells_filled) << "trial " << trial;
  }
}

TEST(RowKernelProperty, EarlyAbandonDecisionMatchesReferenceExactly) {
  ts::Rng rng(1234);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * 30);
    const std::size_t m = 2 + static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * 30);
    const ts::TimeSeries x = RandomWalk(n, 5000 + trial);
    const ts::TimeSeries y = RandomWalk(m, 6000 + trial);
    const CostKind cost =
        trial % 2 == 0 ? CostKind::kAbsolute : CostKind::kSquared;
    Band band = RandomBand(n, m, rng, true);

    const double ref = ReferenceBandedDistance(x, y, band, cost, nullptr);
    ASSERT_TRUE(std::isfinite(ref));
    // The abandoning kernel's contract: the exact distance iff the
    // threshold is non-finite or >= it, +infinity otherwise — bit-identical
    // distance when it survives, for thresholds straddling the true value.
    const double nudge = ref * 1e-12;
    const double thresholds[] = {ref,
                                 ref - nudge,
                                 ref + nudge,
                                 ref * 0.5,
                                 ref * 2.0 + 1.0,
                                 0.0,
                                 kNoAbandon,
                                 std::numeric_limits<double>::quiet_NaN()};
    DtwScratch scratch;
    for (const double threshold : thresholds) {
      const double got =
          DtwBandedDistance(x, y, band, cost, scratch, threshold);
      if (!std::isfinite(threshold) || ref <= threshold) {
        EXPECT_EQ(ref, got) << "trial " << trial << " thr " << threshold;
      } else {
        EXPECT_TRUE(std::isinf(got))
            << "trial " << trial << " thr " << threshold;
      }
      const double ref_full =
          ReferenceBandedDistance(x, y, Band::Full(n, m), cost, nullptr);
      const double got_full = DtwDistance(x, y, cost, scratch, threshold);
      if (!std::isfinite(threshold) || ref_full <= threshold) {
        EXPECT_EQ(ref_full, got_full) << "trial " << trial;
      } else {
        EXPECT_TRUE(std::isinf(got_full)) << "trial " << trial;
      }
    }
  }
}

// The row-at-a-time loop over FillBandRowScalar: each DP row's minimum
// and the cells through it that a DP pruned at `threshold` evaluates (all
// finite ones by default), the semantics the strip driver must reproduce
// exactly.
struct RowTrace {
  std::vector<double> row_min;
  std::vector<std::size_t> cells_through;
};

RowTrace ReferenceRows(const ts::TimeSeries& x, const ts::TimeSeries& y,
                       const Band& band, CostKind cost,
                       double threshold = kInf) {
  RowTrace trace;
  std::vector<double> prev = {0.0};
  std::size_t plo = 0;
  std::size_t phi = 0;
  std::size_t cells = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto [lo, hi] = DpWindow(band.row(i), y.size());
    std::vector<double> cur(lo <= hi ? hi - lo + 1 : 0);
    const double row_min =
        cost == CostKind::kAbsolute
            ? internal::FillBandRowScalar(prev.data(), plo, phi, cur.data(),
                                          lo, hi, x[i], y.values().data(),
                                          AbsCost{}, &cells, threshold)
            : internal::FillBandRowScalar(prev.data(), plo, phi, cur.data(),
                                          lo, hi, x[i], y.values().data(),
                                          SquaredCost{}, &cells, threshold);
    trace.row_min.push_back(row_min);
    trace.cells_through.push_back(cells);
    prev = std::move(cur);
    plo = lo;
    phi = hi;
  }
  return trace;
}

TEST(RowKernelProperty, AbandonAtEveryLaneMatchesRowAtATime) {
  ts::Rng rng(8080);
  for (const std::size_t n : {1, 7, 8, 9, 13, 16, 21, 24, 31}) {
    const std::size_t m =
        5 + static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * 30);
    const ts::TimeSeries x = RandomWalk(n, 400 + n);
    const ts::TimeSeries y = RandomWalk(m, 500 + n);
    for (const CostKind cost : {CostKind::kAbsolute, CostKind::kSquared}) {
      for (const Band& band :
           {Band::Full(n, m), SakoeChibaBand(n, m, 0.3)}) {
        const RowTrace trace = ReferenceRows(x, y, band, cost);
        for (std::size_t i = 0; i < n; ++i) {
          // Row minima never decrease (costs are non-negative), so a
          // threshold in [min of row i-1, min of row i) abandons at row i
          // — at lane i mod 8 of its strip.
          const double threshold = i == 0 ? -1.0 : trace.row_min[i - 1];
          if (!(trace.row_min[i] > threshold)) continue;
          // The cells a DP pruned at this threshold evaluates through row i.
          const std::size_t want_cells =
              ReferenceRows(x, y, band, cost, threshold).cells_through[i];
          for (const RowKernelOps* ops : SupportedRowKernels()) {
            DtwOptions options;
            options.cost = cost;
            options.kernel = ops;
            for (const bool want_path : {false, true}) {
              options.want_path = want_path;
              const DtwResult got = DtwBanded(x, y, band, options, threshold);
              EXPECT_TRUE(std::isinf(got.distance))
                  << ops->name << " n " << n << " row " << i;
              EXPECT_EQ(want_cells, got.cells_filled)
                  << ops->name << " n " << n << " row " << i
                  << (want_path ? " path" : "");
            }
            DtwScratch scratch;
            scratch.set_kernel(ops);
            EXPECT_TRUE(std::isinf(
                DtwBandedDistance(x, y, band, cost, scratch, threshold)));
          }
        }
      }
    }
  }
}

TEST(RowKernelProperty, CellCountExactWhenSquaredCostOverflows) {
  // Δ(1e200, 0) = 1e400 overflows to +inf: DP row 6's cells all have a
  // finite predecessor, so they are counted although their values are
  // +inf, and no later cell has one. 5 rows of 16, plus 16.
  std::vector<double> xv(16, 0.0);
  xv[5] = 1e200;
  const ts::TimeSeries x(std::move(xv));
  const ts::TimeSeries y(std::vector<double>(16, 0.0));
  const Band full = Band::Full(16, 16);
  std::size_t ref_cells = 0;
  EXPECT_TRUE(std::isinf(
      ReferenceBandedDistance(x, y, full, CostKind::kSquared, &ref_cells)));
  EXPECT_EQ(96u, ref_cells);
  for (const RowKernelOps* ops : SupportedRowKernels()) {
    DtwOptions options;
    options.cost = CostKind::kSquared;
    options.want_path = false;
    options.kernel = ops;
    const DtwResult got = DtwBanded(x, y, full, options);
    EXPECT_TRUE(std::isinf(got.distance)) << ops->name;
    EXPECT_EQ(ref_cells, got.cells_filled) << ops->name;
  }
}

// The result a DP pruned at `threshold` must return, from the unpruned
// reference: the distance when it is at or below the threshold, and the
// cells through the first row whose minimum exceeds it (every row when
// none does) at that threshold.
struct PrunedExpectation {
  double distance;
  std::size_t cells;
};

PrunedExpectation ExpectPruned(const ts::TimeSeries& x,
                               const ts::TimeSeries& y, const Band& band,
                               CostKind cost, double distance,
                               double threshold) {
  const RowTrace trace = ReferenceRows(x, y, band, cost, threshold);
  std::size_t last = x.size() - 1;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (trace.row_min[i] > threshold) {
      last = i;
      break;
    }
  }
  return {distance <= threshold ? distance : kInf, trace.cells_through[last]};
}

TEST(RowKernelProperty, PrunedDpMatchesFullMatrixReference) {
  ts::Rng rng(5150);
  for (int trial = 0; trial < 160; ++trial) {
    const std::size_t n =
        1 + static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * 40);
    const std::size_t m =
        1 + static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * 40);
    const ts::TimeSeries x = RandomWalk(n, 8000 + trial);
    const ts::TimeSeries y = RandomWalk(m, 8500 + trial);
    const CostKind cost =
        trial % 2 == 0 ? CostKind::kAbsolute : CostKind::kSquared;
    const Band band = trial % 3 == 0
                          ? Band::Full(n, m)
                          : RandomBand(n, m, rng, rng.Uniform(0.0, 1.0) < 0.7);
    DtwOptions plain;
    plain.cost = cost;
    const DtwResult full = DtwBanded(x, y, band, plain);
    const double ref = ReferenceBandedDistance(x, y, band, cost, nullptr);
    ASSERT_TRUE(std::isfinite(ref) ? full.distance == ref
                                   : std::isinf(full.distance));

    // Exact ties: the distance, every row minimum, and the double below
    // each.
    std::vector<double> thresholds = {-1.0, 0.0, 1e300};
    for (const double t : ReferenceRows(x, y, band, cost).row_min) {
      if (std::isfinite(t)) thresholds.push_back(t);
    }
    if (std::isfinite(ref)) thresholds.push_back(ref);
    for (std::size_t i = 0, e = thresholds.size(); i < e; ++i) {
      thresholds.push_back(std::nextafter(thresholds[i], -1.0));
    }
    for (const double threshold : thresholds) {
      const PrunedExpectation want =
          ExpectPruned(x, y, band, cost, full.distance, threshold);
      std::size_t dp_cells = 0;
      for (const RowKernelOps* ops : SupportedRowKernels()) {
        const std::string where = std::string(ops->name) + " trial " +
                                  std::to_string(trial) + " threshold " +
                                  std::to_string(threshold);
        DtwOptions options = plain;
        options.kernel = ops;
        for (const bool want_path : {false, true}) {
          options.want_path = want_path;
          const DtwResult got = DtwBanded(x, y, band, options, threshold);
          EXPECT_EQ(want.distance, got.distance) << where;
          EXPECT_EQ(want.cells, got.cells_filled) << where;
          EXPECT_EQ(want_path && std::isfinite(want.distance)
                        ? full.path
                        : std::vector<PathPoint>{},
                    got.path)
              << where;
        }
        DtwScratch scratch;
        scratch.set_kernel(ops);
        EXPECT_EQ(want.distance,
                  DtwBandedDistance(x, y, band, cost, scratch, threshold))
            << where;
        // The evaluated cells are the same on every variant.
        if (ops == SupportedRowKernels().front()) dp_cells = scratch.dp_cells();
        EXPECT_EQ(dp_cells, scratch.dp_cells()) << where;
        if (band == Band::Full(n, m)) {
          EXPECT_EQ(want.distance, DtwDistance(x, y, cost, scratch, threshold))
              << where;
          EXPECT_EQ(dp_cells, scratch.dp_cells()) << where;
        }
      }
    }
  }
}

TEST(RowKernelProperty, PrunedCellCountExactWhenSquaredCostOverflows) {
  // The overflow case of CellCountExactWhenSquaredCostOverflows under a
  // finite threshold: DP row 6's cells have live predecessors, so they
  // are counted although their values are +inf; the row's minimum then
  // exceeds the threshold and the DP abandons there.
  std::vector<double> xv(16, 0.0);
  xv[5] = 1e200;
  const ts::TimeSeries x(std::move(xv));
  const ts::TimeSeries y(std::vector<double>(16, 0.0));
  const Band full = Band::Full(16, 16);
  for (const double threshold : {0.0, 1e300}) {
    const std::size_t want =
        ReferenceRows(x, y, full, CostKind::kSquared, threshold)
            .cells_through[5];
    EXPECT_EQ(96u, want);
    for (const RowKernelOps* ops : SupportedRowKernels()) {
      DtwOptions options;
      options.cost = CostKind::kSquared;
      options.kernel = ops;
      for (const bool want_path : {false, true}) {
        options.want_path = want_path;
        const DtwResult got = DtwBanded(x, y, full, options, threshold);
        EXPECT_TRUE(std::isinf(got.distance)) << ops->name;
        EXPECT_EQ(want, got.cells_filled) << ops->name;
      }
    }
  }
}

}  // namespace
}  // namespace dtw
}  // namespace sdtw
