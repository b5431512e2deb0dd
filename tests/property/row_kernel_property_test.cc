// Bitwise-equivalence properties of the two-pass banded row kernel
// (dtw/row_kernel.h) against the retained scalar reference:
//  * FillBandRowTwoPass must reproduce FillBandRowScalar bit for bit —
//    cell values, row minimum, and cell count — across random window
//    shapes: overlapping, disjoint, shifted past the guard pads (the
//    scalar fallback), empty predecessor windows, rows narrower than one
//    SIMD vector, widths straddling the 4-lane groups and the 8-byte
//    flag-scan words, and predecessor rows containing +infinity runs
//    (infeasible-band prefixes);
//  * the rolling kernels built on it (DtwDistance, DtwBandedDistance, and
//    their early-abandon variants) must reproduce an independent
//    full-matrix DP — including the exact abandon decision for
//    thresholds straddling the true distance;
//  * both cost kinds, every trial.
// The in-TU kernel checks pin the portable two-pass kernel (this test's
// own instantiation); the library-level checks run whatever variant the
// runtime dispatch selected (or SDTW_KERNEL forces — see the
// property_forced_portable_kernel ctest registration). Per-variant pins
// across every runnable ISA live in kernel_dispatch_property_test.cc.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <vector>

#include "dtw/dtw.h"
#include "dtw/row_kernel.h"
#include "ts/random.h"

namespace sdtw {
namespace dtw {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
using internal::kRowPad;

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

// Runs one row through both kernels and pins every observable bit.
template <typename Cost>
void CheckRow(const std::vector<double>& prev_window, std::size_t plo,
              std::size_t phi, std::size_t clo, std::size_t chi, double xi,
              const ts::TimeSeries& y, Cost cost) {
  const std::size_t w = chi - clo + 1;
  const std::size_t pw = prev_window.size();

  // Scalar reference on plain buffers.
  std::vector<double> ref_cur(w, -1.0);
  std::size_t ref_cells = 0;
  const double ref_min = internal::FillBandRowScalar(
      prev_window.data(), plo, phi, ref_cur.data(), clo, chi, xi,
      y.values().data(), cost, &ref_cells);

  // Two-pass kernel on padded buffers with the pad invariant established.
  const std::size_t cap = std::max(w, pw) + 2 * kRowPad + 8;
  std::vector<double> prev_buf(cap, kInf);
  std::vector<double> cur_buf(cap, -7.0);  // poison: pads must be rewritten
  std::vector<double> cost_row(cap, -7.0);
  std::vector<unsigned char> flag_row(cap, 0xee);
  double* prev = prev_buf.data() + kRowPad;
  double* cur = cur_buf.data() + kRowPad;
  std::copy(prev_window.begin(), prev_window.end(), prev);
  std::size_t cells = 0;
  const double row_min = internal::FillBandRowTwoPass(
      prev, plo, phi, cur, clo, chi, xi, y.values().data(), cost,
      cost_row.data(), flag_row.data(), &cells);

  ASSERT_EQ(ref_cells, cells);
  // Bitwise: +inf == +inf and finite == finite both via EXPECT_EQ on
  // doubles (no tolerance anywhere).
  EXPECT_EQ(ref_min, row_min);
  for (std::size_t k = 0; k < w; ++k) {
    ASSERT_EQ(ref_cur[k], cur[k]) << "cell " << k << " of width " << w;
  }
  // The guard pads around the filled row must have been restored.
  for (std::size_t k = 1; k <= kRowPad; ++k) {
    ASSERT_EQ(cur[-static_cast<std::ptrdiff_t>(k)], kInf);
    ASSERT_EQ(cur[w + k - 1], kInf);
  }
}

TEST(RowKernelProperty, TwoPassMatchesScalarReferenceOnRandomWindows) {
  ts::Rng rng(20260730);
  const ts::TimeSeries y = RandomWalk(160, 7);
  for (int trial = 0; trial < 4000; ++trial) {
    // Window widths biased toward the vector-width edge cases.
    const std::size_t w =
        1 + static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * (trial % 3 == 0 ? 70 : 11));
    const std::size_t clo =
        1 + static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * (y.size() - w));
    const std::size_t chi = clo + w - 1;
    const double xi = rng.Gaussian(0.0, 1.0);

    std::size_t plo, phi;
    std::vector<double> prev_window;
    const double shape = rng.Uniform(0.0, 1.0);
    if (shape < 0.1) {
      // Empty predecessor window.
      plo = 1;
      phi = 0;
    } else {
      // Random predecessor window: mostly near the current one (fast
      // path), sometimes shifted beyond the pads (scalar fallback),
      // sometimes disjoint.
      const std::size_t pwidth = 1 + static_cast<std::size_t>(
                                         rng.Uniform(0.0, 1.0) * (w + 8));
      std::ptrdiff_t offset;
      if (shape < 0.7) {
        offset = static_cast<std::ptrdiff_t>(rng.Uniform(0.0, 1.0) * 7) - 3;
      } else {
        offset = static_cast<std::ptrdiff_t>(rng.Uniform(0.0, 1.0) * 60) - 30;
      }
      const std::ptrdiff_t plo_s =
          std::max<std::ptrdiff_t>(0, static_cast<std::ptrdiff_t>(clo) + offset);
      plo = static_cast<std::size_t>(plo_s);
      phi = plo + pwidth - 1;
      prev_window.resize(pwidth);
      for (double& v : prev_window) {
        v = rng.Uniform(0.0, 1.0) < 0.15 ? kInf : std::abs(rng.Gaussian(2.0, 1.5));
      }
      if (rng.Uniform(0.0, 1.0) < 0.2) {
        // Infinite prefix, as left by an infeasible band row.
        const std::size_t run =
            static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * pwidth);
        std::fill(prev_window.begin(),
                  prev_window.begin() + static_cast<std::ptrdiff_t>(run),
                  kInf);
      }
    }
    if (trial % 2 == 0) {
      CheckRow(prev_window, plo, phi, clo, chi, xi, y, AbsCost{});
    } else {
      CheckRow(prev_window, plo, phi, clo, chi, xi, y, SquaredCost{});
    }
    if (HasFatalFailure()) {
      ADD_FAILURE() << "trial " << trial;
      return;
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

}  // namespace
}  // namespace dtw
}  // namespace sdtw
