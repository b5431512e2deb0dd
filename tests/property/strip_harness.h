#ifndef SDTW_TESTS_PROPERTY_STRIP_HARNESS_H_
#define SDTW_TESTS_PROPERTY_STRIP_HARNESS_H_

/// \file strip_harness.h
/// \brief Per-strip test harness of the dispatched DP kernels: stages one
/// strip exactly as the DpStrip contract (dtw/kernel_dispatch.h) states,
/// runs a variant's strip fill, and pins every observable bit — each row's
/// cell values, its minimum and its cell count, the +infinity of every
/// dead lane, the contiguous copy of the last lane, and under a threshold
/// the step the fill stopped at — against FillBandRowScalar run row by
/// row.
///
/// The staging here is written from the contract, independently of the
/// library's driver (dtw.cc), so the two check each other: this harness
/// pins the kernels, the library-level properties pin the driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "dtw/cost.h"
#include "dtw/kernel_dispatch.h"
#include "dtw/row_kernel.h"
#include "ts/random.h"
#include "ts/time_series.h"

namespace sdtw {
namespace dtw {

/// One strip of DP rows i0+1 .. i0+rows against y.
struct StripCase {
  /// Predecessor row (DP row i0): window [plo, phi], empty when plo > phi.
  std::vector<double> prev;
  std::size_t plo = 1;
  std::size_t phi = 0;
  std::size_t rows = kStripRows;  ///< Real rows, 1..kStripRows.
  /// DP column window of each row (lo >= 1); empty when lo > hi.
  std::size_t lo[kStripRows] = {};
  std::size_t hi[kStripRows] = {};
  double x[kStripRows] = {};
};

/// Where a pruned fill stopped (CheckStrip): the steps it ran out of the
/// strip's, and the one lane still live in the vectors of its last step
/// (kStripRows when several were, or the fill ran to the end).
struct StripStop {
  std::size_t ran = 0;
  std::size_t steps = 0;
  std::size_t lane = kStripRows;
};

/// Runs `c` through FillBandRowScalar row by row and through `ops`'s strip
/// fill (with and without counting), asserting bitwise agreement. The
/// strip must hold at least one non-empty row (the driver never
/// dispatches an all-empty strip).
///
/// A finite `threshold` stages the strip for pruning (row_kernel.h): the
/// fill must stop at exactly the step the rule gives on the reference
/// values, match them bit for bit at every step before it, leave only
/// dead cells after it, and count the cells FillBandRowScalar counts at
/// that threshold. Without one the fill runs every step. `stop`, when
/// non-null, receives where the fill stopped.
inline void CheckStrip(const RowKernelOps& ops, CostKind cost,
                       const StripCase& c, const ts::TimeSeries& y,
                       double threshold =
                           std::numeric_limits<double>::infinity(),
                       StripStop* stop = nullptr) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const bool prune = std::isfinite(threshold);
  const std::size_t m = y.size();
  const double* yv = y.values().data();

  // Reference: one row at a time, exact values, cells counted at the
  // threshold.
  std::vector<std::vector<double>> ref_rows(c.rows);
  double ref_min[kStripRows];
  std::size_t ref_cells[kStripRows];
  std::vector<double> prev = c.prev;
  std::size_t plo = c.plo;
  std::size_t phi = c.phi;
  for (std::size_t r = 0; r < c.rows; ++r) {
    const bool live = c.lo[r] <= c.hi[r];
    std::vector<double>& row = ref_rows[r];
    row.assign(live ? c.hi[r] - c.lo[r] + 1 : 0, -1.0);
    ref_cells[r] = 0;
    ref_min[r] =
        cost == CostKind::kAbsolute
            ? internal::FillBandRowScalar(prev.data(), plo, phi, row.data(),
                                          c.lo[r], c.hi[r], c.x[r], yv,
                                          AbsCost{}, &ref_cells[r], threshold)
            : internal::FillBandRowScalar(prev.data(), plo, phi, row.data(),
                                          c.lo[r], c.hi[r], c.x[r], yv,
                                          SquaredCost{}, &ref_cells[r],
                                          threshold);
    prev = row;
    plo = c.lo[r];
    phi = c.hi[r];
  }

  // Staging, from the DpStrip contract.
  DpStrip strip;
  std::size_t t0 = std::numeric_limits<std::size_t>::max();
  std::size_t t1 = 0;
  for (std::size_t r = 0; r < c.rows; ++r) {
    if (c.lo[r] > c.hi[r]) continue;
    t0 = std::min(t0, c.lo[r] + r);
    t1 = std::max(t1, c.hi[r] + r);
  }
  ASSERT_LE(t0, t1) << "all-empty strip";
  const std::size_t steps = t1 - t0 + 1;
  std::vector<double> pred(steps + 1);
  for (std::size_t k = 0; k <= steps; ++k) {
    const std::size_t j = t0 - 1 + k;
    pred[k] = c.plo <= c.phi && j >= c.plo && j <= c.phi ? c.prev[j - c.plo]
                                                          : kInf;
  }
  std::vector<double> ys(steps + kStripRows - 1);
  for (std::size_t q = 0; q < ys.size(); ++q) {
    // y index t0 - 8 + q; lane l at step k reads q = k + l.
    const std::ptrdiff_t j = static_cast<std::ptrdiff_t>(t0 + q) -
                             static_cast<std::ptrdiff_t>(kStripRows);
    // Out-of-range y reads a finite sentinel that only dead lanes see.
    ys[q] = j >= 0 && j < static_cast<std::ptrdiff_t>(m) ? yv[j] : 12345.0;
  }
  // Lane l holds strip row kStripRows - 1 - l.
  for (std::size_t r = 0; r < kStripRows; ++r) {
    const std::size_t l = kStripRows - 1 - r;
    const bool live = r < c.rows && c.lo[r] <= c.hi[r];
    strip.x[l] = r < c.rows ? c.x[r] : 0.0;
    strip.begin[l] = live ? c.lo[r] + r - t0 : 0;
    strip.width[l] = live ? c.hi[r] - c.lo[r] + 1 : 0;
  }
  strip.steps = steps;
  strip.pred = pred.data();
  strip.y = ys.data();
  // The fill may stop past the last live predecessor cell.
  strip.min_steps = steps;
  if (prune) {
    strip.threshold = threshold;
    strip.min_steps = 0;
    for (std::size_t q = 0; q <= steps; ++q) {
      if (pred[q] <= threshold) strip.min_steps = q;
    }
  }

  // The reference value of lane l at step k (+infinity where the lane is
  // dead, and before step 0), and the step the rule stops before: the
  // first k >= min_steps where min(diag, v) is dead in every lane.
  const auto ref_at = [&](std::size_t k, std::size_t l) {
    const std::size_t r = kStripRows - 1 - l;
    if (k >= steps || k - strip.begin[l] >= strip.width[l]) return kInf;
    return ref_rows[r][k - strip.begin[l]];
  };
  const auto feed = [&](std::size_t k, std::size_t l) {
    // min(diag, v) of step k: diag is the up vector of step k - 1.
    const double v = k > 0 ? ref_at(k - 1, l) : kInf;
    const double diag = l + 1 < kStripRows
                            ? (k > 1 ? ref_at(k - 2, l + 1) : kInf)
                            : pred[k];
    return std::min(v, diag);
  };
  std::size_t want_ran = steps;
  for (std::size_t k = strip.min_steps; k < steps; ++k) {
    bool live = false;
    for (std::size_t l = 0; l < kStripRows; ++l) {
      live |= feed(k, l) <= threshold;
    }
    if (!live) {
      want_ran = k;
      break;
    }
  }
  if (stop != nullptr) {
    stop->ran = want_ran;
    stop->steps = steps;
    stop->lane = kStripRows;
    if (want_ran > 0 && want_ran < steps) {
      std::size_t live_lanes = 0;
      for (std::size_t l = 0; l < kStripRows; ++l) {
        if (feed(want_ran - 1, l) <= threshold) {
          ++live_lanes;
          stop->lane = l;
        }
      }
      if (live_lanes != 1) stop->lane = kStripRows;
    }
  }
  // Pruning is sound: every cell past the stop is dead.
  for (std::size_t k = want_ran; k < steps; ++k) {
    for (std::size_t l = 0; l < kStripRows; ++l) {
      ASSERT_GT(ref_at(k, l), threshold)
          << "live cell past the stop, lane " << l << " step " << k;
    }
  }

  for (const bool count : {true, false}) {
    std::vector<double> wave(kStripRows * steps, -7.0);  // poison
    std::vector<double> last(steps, -7.0);
    strip.wave = wave.data();
    strip.last = last.data();
    strip.count = count;
    strip.ran = 777;
    for (std::size_t r = 0; r < kStripRows; ++r) {
      strip.row_min[r] = -7.0;
      strip.cells[r] = 777;
    }
    ops.fill(cost)(strip);
    ASSERT_EQ(want_ran, strip.ran) << ops.name << " stopped elsewhere";
    for (std::size_t r = 0; r < kStripRows; ++r) {
      const std::size_t l = kStripRows - 1 - r;
      // The minimum over the steps run; lanes past the last row are empty
      // rows: minimum +inf, no cells.
      double want_min = kInf;
      for (std::size_t k = 0; k < want_ran; ++k) {
        want_min = std::min(want_min, ref_at(k, l));
      }
      ASSERT_EQ(want_min, strip.row_min[l]) << ops.name << " row " << r;
      if (r < c.rows && ref_min[r] <= threshold) {
        ASSERT_EQ(ref_min[r], strip.row_min[l]) << ops.name << " row " << r;
      }
      ASSERT_EQ(count ? (r < c.rows ? ref_cells[r] : 0) : 777u,
                strip.cells[l])
          << ops.name << " row " << r << (count ? "" : " counted anyway");
      for (std::size_t k = 0; k < want_ran; ++k) {
        const double got = wave[kStripRows * k + l];
        if (l == 0) {
          ASSERT_EQ(got, last[k]) << ops.name << " last row, step " << k;
        }
        ASSERT_EQ(ref_at(k, l), got)
            << ops.name << " row " << r << " step " << k;
      }
    }
  }
}

/// Thresholds that tie the reference values of `c` exactly: each row's
/// minimum, and the largest double below it.
inline std::vector<double> StripTieThresholds(CostKind cost,
                                              const StripCase& c,
                                              const ts::TimeSeries& y) {
  std::vector<double> out;
  std::vector<double> prev = c.prev;
  std::size_t plo = c.plo;
  std::size_t phi = c.phi;
  for (std::size_t r = 0; r < c.rows; ++r) {
    std::vector<double> row(c.lo[r] <= c.hi[r] ? c.hi[r] - c.lo[r] + 1 : 0);
    const double row_min =
        cost == CostKind::kAbsolute
            ? internal::FillBandRowScalar(prev.data(), plo, phi, row.data(),
                                          c.lo[r], c.hi[r], c.x[r],
                                          y.values().data(), AbsCost{},
                                          nullptr)
            : internal::FillBandRowScalar(prev.data(), plo, phi, row.data(),
                                          c.lo[r], c.hi[r], c.x[r],
                                          y.values().data(), SquaredCost{},
                                          nullptr);
    if (std::isfinite(row_min)) {
      out.push_back(row_min);
      out.push_back(std::nextafter(row_min, -1.0));
    }
    prev = std::move(row);
    plo = c.lo[r];
    phi = c.hi[r];
  }
  return out;
}

/// A random strip over y: random row count, windows mostly near each
/// other (a band), sometimes jumping far, sometimes empty or 1–3 wide, and
/// a random predecessor row with +infinity runs (infeasible-band
/// prefixes). At least one row is non-empty.
inline StripCase RandomStrip(ts::Rng& rng, std::size_t m) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto uniform = [&rng](std::size_t n) {
    return std::min(n - 1,
                    static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * n));
  };
  StripCase c;
  c.rows = rng.Uniform(0.0, 1.0) < 0.3 ? 1 + uniform(kStripRows)
                                       : kStripRows;
  const std::size_t max_width =
      rng.Uniform(0.0, 1.0) < 0.3 ? 4 : std::max<std::size_t>(1, m);
  std::size_t centre = 1 + uniform(m);
  bool any = false;
  for (std::size_t r = 0; r < c.rows; ++r) {
    c.x[r] = rng.Gaussian(0.0, 1.0);
    const double shape = rng.Uniform(0.0, 1.0);
    if (shape < 0.08) {
      c.lo[r] = 1 + uniform(m);  // empty row
      c.hi[r] = c.lo[r] - 1;
      continue;
    }
    if (shape < 0.25) {
      centre = 1 + uniform(m);  // jump anywhere
    } else {
      const std::size_t step = uniform(5);  // drift 0..4 columns
      centre = std::min(m, centre + step);
    }
    const std::size_t width = 1 + uniform(std::min(max_width, m));
    c.lo[r] = std::max<std::size_t>(1, centre > width / 2 ? centre - width / 2
                                                          : 1);
    c.hi[r] = std::min(m, c.lo[r] + width - 1);
    any = true;
  }
  if (!any) {
    c.lo[0] = 1;
    c.hi[0] = m;
  }
  if (rng.Uniform(0.0, 1.0) < 0.1) {
    c.plo = 1;  // empty predecessor window
    c.phi = 0;
    return c;
  }
  // The origin row {0} or a random window anywhere in [0, m].
  c.plo = rng.Uniform(0.0, 1.0) < 0.1 ? 0 : uniform(m + 1);
  c.phi = std::min(m, c.plo + uniform(m + 1));
  c.prev.resize(c.phi - c.plo + 1);
  for (double& v : c.prev) {
    v = rng.Uniform(0.0, 1.0) < 0.15 ? kInf : std::abs(rng.Gaussian(2.0, 1.5));
  }
  if (rng.Uniform(0.0, 1.0) < 0.2) {
    const std::size_t run = uniform(c.prev.size() + 1);
    std::fill(c.prev.begin(),
              c.prev.begin() + static_cast<std::ptrdiff_t>(run), kInf);
  }
  return c;
}

}  // namespace dtw
}  // namespace sdtw

#endif  // SDTW_TESTS_PROPERTY_STRIP_HARNESS_H_
