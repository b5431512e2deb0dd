#include "core/constraints.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace sdtw {
namespace core {

const char* ConstraintTypeName(ConstraintType type) {
  switch (type) {
    case ConstraintType::kFixedCoreFixedWidth:
      return "fc,fw";
    case ConstraintType::kFixedCoreAdaptiveWidth:
      return "fc,aw";
    case ConstraintType::kAdaptiveCoreFixedWidth:
      return "ac,fw";
    case ConstraintType::kAdaptiveCoreAdaptiveWidth:
      return "ac,aw";
  }
  return "?";
}

namespace {

using align::IntervalPair;

// Slope (M-1)/(N-1) of the diagonal core.
double DiagonalSlope(std::size_t n, std::size_t m) {
  return n > 1 ? static_cast<double>(m - 1) / static_cast<double>(n - 1)
               : 0.0;
}

// Calls fn(i, core column of row i) with the adaptive core of §3.3.2, in
// the order AdaptiveCore writes it: interval by interval, then the two
// anchored corners. A row may be visited several times; the last visit
// holds. Rows no interval covers are not visited. Requires n, m > 0.
template <typename Fn>
void ForEachAdaptiveCore(std::size_t n, std::size_t m,
                         const std::vector<IntervalPair>& intervals, Fn&& fn) {
  for (const IntervalPair& ip : intervals) {
    const std::size_t bx = std::min(ip.begin_x, n - 1);
    const std::size_t ex = std::min(ip.end_x, n - 1);
    const std::size_t by = std::min(ip.begin_y, m - 1);
    const std::size_t ey = std::min(ip.end_y, m - 1);
    if (ex == bx) {
      // Empty/degenerate X-interval: a single X point stands for the whole
      // Y-interval; map it onto the interval midpoint so the band (after
      // widening) covers the stretch. The vertical gap is bridged by
      // MakeFeasible.
      fn(ex, (static_cast<double>(by) + static_cast<double>(ey)) / 2.0);
      continue;
    }
    const double span_x = static_cast<double>(ex - bx);
    const double span_y = static_cast<double>(ey) - static_cast<double>(by);
    for (std::size_t i = bx; i <= ex; ++i) {
      // §3.3.2: (j - st_Y) / (end_Y - st_Y) = (i - st_X) / (end_X - st_X).
      // When end_Y == st_Y the whole X-interval maps onto st_Y.
      const double frac = static_cast<double>(i - bx) / span_x;
      fn(i, static_cast<double>(by) + frac * span_y);
    }
  }
  // Anchor endpoints onto the corners.
  fn(0, 0.0);
  fn(n - 1, static_cast<double>(m - 1));
}

// The adaptive width of §3.3.1 at core column `col`: the width of the
// Y-interval containing it (the first such interval; the closest one when
// none does), averaged over ±radius neighbouring intervals and clamped to
// the min/max fractions of M. A band's rows ask for mostly increasing
// columns, so a lookup resumes from the previous answer whenever every
// interval before it ends left of the column (none of them can contain
// it), and the last interval's width is reused.
class AdaptiveWidth {
 public:
  AdaptiveWidth(std::size_t m, const std::vector<IntervalPair>& intervals,
                std::size_t radius, double min_fraction, double max_fraction)
      : intervals_(intervals), radius_(radius), m_(static_cast<double>(m)) {
    const double min_w = min_fraction > 0.0 ? min_fraction * m_ : 0.0;
    const double max_w = max_fraction > 0.0 ? max_fraction * m_ : m_;
    floor_ = std::max(min_w, 1.0);
    ceiling_ = std::max(max_w, 1.0);
  }

  double At(double col) {
    if (intervals_.empty()) return std::clamp(m_, floor_, ceiling_);
    const std::size_t k = Containing(col);
    if (k != width_of_) {
      width_of_ = k;
      // Average widths over the r-neighbourhood of interval k (§3.3.1's
      // second refinement; r = 1 gives the paper's ac2 variant).
      const std::size_t lo = k >= radius_ ? k - radius_ : 0;
      const std::size_t hi = std::min(intervals_.size() - 1, k + radius_);
      double sum = 0.0;
      for (std::size_t t = lo; t <= hi; ++t) {
        sum += static_cast<double>(intervals_[t].width_y());
      }
      width_ = std::clamp(sum / static_cast<double>(hi - lo + 1), floor_,
                          ceiling_);
    }
    return width_;
  }

 private:
  static constexpr double kNone = -std::numeric_limits<double>::infinity();

  std::size_t Containing(double col) {
    if (!(ends_before_ < col)) {
      start_ = 0;
      ends_before_ = kNone;
    }
    double ends = ends_before_;
    for (std::size_t k = start_; k < intervals_.size(); ++k) {
      const double lo = static_cast<double>(intervals_[k].begin_y);
      const double hi = static_cast<double>(intervals_[k].end_y);
      if (col >= lo && col <= hi) {
        start_ = k;
        ends_before_ = ends;
        return k;
      }
      ends = std::max(ends, hi);
    }
    // No interval contains col: the first one at the smallest distance.
    std::size_t best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < intervals_.size(); ++k) {
      const double lo = static_cast<double>(intervals_[k].begin_y);
      const double hi = static_cast<double>(intervals_[k].end_y);
      const double d = col < lo ? lo - col : col - hi;
      if (d < best_dist) {
        best_dist = d;
        best = k;
      }
    }
    return best;
  }

  const std::vector<IntervalPair>& intervals_;
  std::size_t radius_;
  double m_;
  double floor_ = 1.0;
  double ceiling_ = 1.0;
  // Lookup resume point: intervals before start_ all end at or before
  // ends_before_.
  std::size_t start_ = 0;
  double ends_before_ = kNone;
  // The clamped width of interval width_of_.
  std::size_t width_of_ = static_cast<std::size_t>(-1);
  double width_ = 0.0;
};

// The band row around `core` with total width `width`: ±ceil(width/2)
// around the core (§3.3.1), clamped to the grid's columns.
dtw::BandRow RowAround(double core, double width, double last_col) {
  const double half = std::ceil(width / 2.0);
  const double lo = std::clamp(core - half, 0.0, last_col);
  const double hi = std::clamp(core + half, 0.0, last_col);
  // floor/ceil of values in [0, last_col]: truncation, then a step up
  // where ceil needs one.
  const auto lo_col = static_cast<std::int64_t>(lo);
  auto hi_col = static_cast<std::int64_t>(hi);
  if (static_cast<double>(hi_col) < hi) ++hi_col;
  return {static_cast<std::size_t>(lo_col), static_cast<std::size_t>(hi_col)};
}

// Transposes the interval partition (swap the roles of X and Y).
std::vector<IntervalPair> TransposeIntervals(
    const std::vector<IntervalPair>& intervals) {
  std::vector<IntervalPair> out;
  out.reserve(intervals.size());
  for (const IntervalPair& ip : intervals) {
    IntervalPair t;
    t.begin_x = ip.begin_y;
    t.end_x = ip.end_y;
    t.begin_y = ip.begin_x;
    t.end_y = ip.end_x;
    out.push_back(t);
  }
  return out;
}

}  // namespace

std::vector<double> DiagonalCore(std::size_t n, std::size_t m) {
  std::vector<double> core(n, 0.0);
  if (n == 0 || m == 0) return core;
  const double slope = DiagonalSlope(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    core[i] = static_cast<double>(i) * slope;
  }
  return core;
}

std::vector<double> AdaptiveCore(std::size_t n, std::size_t m,
                                 const std::vector<IntervalPair>& intervals) {
  if (n == 0 || m == 0) return std::vector<double>(n, 0.0);
  if (intervals.empty()) return DiagonalCore(n, m);
  std::vector<double> core(n, 0.0);
  ForEachAdaptiveCore(n, m, intervals,
                      [&](std::size_t i, double c) { core[i] = c; });
  return core;
}

std::vector<double> AdaptiveWidths(std::size_t n, std::size_t m,
                                   const std::vector<IntervalPair>& intervals,
                                   const std::vector<double>& core,
                                   std::size_t radius, double min_fraction,
                                   double max_fraction) {
  std::vector<double> widths(n, static_cast<double>(m));
  if (n == 0 || m == 0) return widths;
  AdaptiveWidth width(m, intervals, radius, min_fraction, max_fraction);
  for (std::size_t i = 0; i < n; ++i) widths[i] = width.At(core[i]);
  return widths;
}

void BuildDirectedBand(std::size_t n, std::size_t m,
                       const std::vector<IntervalPair>& intervals,
                       const ConstraintOptions& options, dtw::Band* band) {
  if (n == 0 || m == 0) {
    band->Assign(0, 0, dtw::BandRow{});
    return;
  }
  if (options.type == ConstraintType::kFixedCoreFixedWidth) {
    dtw::SakoeChibaBand(n, m, options.fixed_width_fraction, band);
    return;
  }
  const bool adaptive_core =
      options.type == ConstraintType::kAdaptiveCoreFixedWidth ||
      options.type == ConstraintType::kAdaptiveCoreAdaptiveWidth;
  const bool adaptive_width =
      options.type == ConstraintType::kFixedCoreAdaptiveWidth ||
      options.type == ConstraintType::kAdaptiveCoreAdaptiveWidth;
  AdaptiveWidth width(m, intervals, options.width_average_radius,
                      options.adaptive_width_min_fraction,
                      options.adaptive_width_max_fraction);
  const double fixed_width =
      std::max(1.0, options.fixed_width_fraction * static_cast<double>(m));
  const double last_col = static_cast<double>(m - 1);
  // One pass per row: core column → width → row, written in place.
  const auto row_at = [&](double core) {
    return RowAround(core, adaptive_width ? width.At(core) : fixed_width,
                     last_col);
  };
  if (adaptive_core && !intervals.empty()) {
    // Rows no interval covers keep AdaptiveCore's default column 0.
    band->Assign(n, m, row_at(0.0));
    ForEachAdaptiveCore(n, m, intervals, [&](std::size_t i, double c) {
      band->mutable_row(i) = row_at(c);
    });
  } else {
    band->Assign(n, m, dtw::BandRow{});
    const double slope = DiagonalSlope(n, m);
    for (std::size_t i = 0; i < n; ++i) {
      band->mutable_row(i) = row_at(static_cast<double>(i) * slope);
    }
  }
  // The rows lie inside [0, m-1]; MakeFeasible() clamps as FromRows() would.
  band->MakeFeasible();
}

void UnionWithTransposed(const dtw::Band& yx_band, dtw::Band* transposed,
                         dtw::Band* band) {
  yx_band.TransposeInto(transposed);
  transposed->MakeFeasible();
  band->UnionWith(*transposed);
  band->MakeFeasible();
}

dtw::Band BuildConstraintBand(std::size_t n, std::size_t m,
                              const std::vector<IntervalPair>& intervals,
                              const ConstraintOptions& options) {
  dtw::Band band;
  BuildDirectedBand(n, m, intervals, options, &band);
  if (n > 0 && m > 0 && options.symmetric &&
      options.type != ConstraintType::kFixedCoreFixedWidth) {
    // Y-driven band on the M×N grid, transposed back and unioned (§3.3.3).
    dtw::Band yband;
    BuildDirectedBand(m, n, TransposeIntervals(intervals), options, &yband);
    dtw::Band transposed;
    UnionWithTransposed(yband, &transposed, &band);
  }
  return band;
}

}  // namespace core
}  // namespace sdtw
