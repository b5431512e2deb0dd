#include "dtw/dtw.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>

#include "dtw/band_matrix.h"

namespace sdtw {
namespace dtw {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Backtracks the optimal path from (n, m) through an accumulation matrix
// exposed as at(i, j) in DP coordinates (+inf border at row/col 0 and
// outside any band).
template <typename MatrixAt>
std::vector<PathPoint> BacktrackImpl(const MatrixAt& at, std::size_t n,
                                     std::size_t m) {
  std::vector<PathPoint> path;
  if (n == 0 || m == 0) return path;
  std::size_t i = n;
  std::size_t j = m;
  if (!std::isfinite(at(i, j))) return path;
  path.emplace_back(i - 1, j - 1);
  while (i > 1 || j > 1) {
    double best = kInf;
    int move = 0;  // 0 = diag, 1 = up (i-1), 2 = left (j-1)
    if (i > 1 && j > 1 && at(i - 1, j - 1) < best) {
      best = at(i - 1, j - 1);
      move = 0;
    }
    if (i > 1 && at(i - 1, j) < best) {
      best = at(i - 1, j);
      move = 1;
    }
    if (j > 1 && at(i, j - 1) < best) {
      best = at(i, j - 1);
      move = 2;
    }
    if (!std::isfinite(best)) {
      path.clear();
      return path;
    }
    if (move == 0) {
      --i;
      --j;
    } else if (move == 1) {
      --i;
    } else {
      --j;
    }
    path.emplace_back(i - 1, j - 1);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

// A DP row as the next strip's predecessor: window [lo, hi] (empty when
// lo > hi), column j at cells[j - lo].
struct DpRowView {
  const double* cells;
  std::size_t lo;
  std::size_t hi;
};

// The live span of `row`: its first through its last cell at or below
// `threshold`, empty when it has none. Cells outside the span are dead,
// so staging them as +infinity changes no live cell.
DpRowView LiveSpan(DpRowView row, double threshold) {
  if (row.lo > row.hi) return row;
  std::size_t a = 0;
  std::size_t b = row.hi - row.lo;
  while (a <= b && !(row.cells[a] <= threshold)) ++a;
  if (a > b) return DpRowView{nullptr, 1, 0};
  while (!(row.cells[b] <= threshold)) --b;
  return DpRowView{row.cells + a, row.lo + a, row.lo + b};
}

// Stages strip.pred: the predecessor row at columns t0 - 1 .. t0 - 1 +
// steps, +infinity outside its window.
void StagePredecessor(const DpRowView& prev, std::size_t t0,
                      std::size_t steps, double* pred) {
  const std::size_t first = t0 - 1;
  const std::size_t last = first + steps;
  double* out = pred;
  if (prev.lo <= prev.hi && prev.lo <= last && prev.hi >= first) {
    const std::size_t lo = std::max(prev.lo, first);
    const std::size_t hi = std::min(prev.hi, last);
    out = std::fill_n(out, lo - first, kInf);
    out = std::copy_n(prev.cells + (lo - prev.lo), hi - lo + 1, out);
  }
  std::fill(out, pred + steps + 1, kInf);
}

// The lane of strip row r (DpStrip: lane 0 holds the strip's last row).
constexpr std::size_t LaneOf(std::size_t r) { return kStripRows - 1 - r; }

// Row destination of the distance-only kernels: rows do not outlive their
// strip.
struct NoRows {
  double* operator()(std::size_t) const { return nullptr; }
};

// The one DP driver: runs x against y as strips of kStripRows rows, each
// filled by one call of `fill`, a strip fill of a dispatched kernel variant
// (dtw/kernel_dispatch.h) with the cost baked in. `window(r)` is the
// inclusive DP column window of DP row r + 1 (empty when lo > hi); `prev`
// is DP row 0. When `dest(i)` returns non-null, the cells of DP row i the
// strip computed are copied into its window there (the path-preserving
// kernels keep every row this way; their storage starts all +infinity).
//
// After each strip the driver visits its rows in order, exactly like the
// row-at-a-time loop: it adds each row's cells (live best predecessor
// only, see row_kernel.h; counting is skipped entirely when `cells_filled`
// is null), and a finite `abandon_above` returns +inf at the first row
// whose minimum exceeds it — or when the final distance does. A
// non-finite one never abandons. This is the one abandon path of every
// kernel.
//
// A finite `abandon_above` also prunes (row_kernel.h): each strip starts at
// the predecessor row's first live column, is staged with only that row's
// live span, and may stop once nothing it could still compute is live.
// Cells a fill did not reach are read as +infinity: the final distance,
// the next strip's predecessor and the copies into `dest` take only the
// steps it ran. scratch.dp_cells() receives the window cells the fills
// stepped through.
template <typename WindowFn, typename RowDest>
double StripWavefront(const ts::TimeSeries& x, const ts::TimeSeries& y,
                      WindowFn window, DpRowView prev, double abandon_above,
                      StripFillFn fill, DtwScratch& scratch,
                      std::size_t* cells_filled, RowDest dest) {
  const bool abandon = std::isfinite(abandon_above);
  const std::size_t n = x.size();
  const std::size_t m = y.size();
  std::size_t cells = 0;
  std::size_t evaluated = 0;
  const auto finish = [&](double d) {
    if (cells_filled != nullptr) *cells_filled = cells;
    scratch.set_dp_cells(evaluated);
    return d;
  };
  const double* padded_y = scratch.StagePaddedY(y);
  DpStrip strip;
  strip.count = cells_filled != nullptr;
  if (abandon) {
    strip.threshold = abandon_above;
    prev = LiveSpan(prev, abandon_above);
  }
  // The cells of lane l's row that the fill stepped through.
  const auto ran_cells = [&strip](std::size_t l) {
    return strip.ran > strip.begin[l]
               ? std::min(strip.width[l], strip.ran - strip.begin[l])
               : 0;
  };
  // After the first strip, prev is a window of the scratch's last row.
  bool prev_in_last = false;
  std::size_t prev_offset = 0;
  for (std::size_t i0 = 0; i0 < n; i0 += kStripRows) {
    // No live predecessor: the next row's minimum exceeds the threshold.
    if (abandon && prev.lo > prev.hi) return finish(kInf);
    const std::size_t rows = std::min(kStripRows, n - i0);
    std::size_t lo[kStripRows];
    std::size_t hi[kStripRows];
    std::size_t skip[kStripRows];  // window columns left of the live edge
    std::size_t t0 = std::numeric_limits<std::size_t>::max();
    std::size_t t1 = 0;
    for (std::size_t r = 0; r < kStripRows; ++r) {
      lo[r] = 1;
      hi[r] = 0;
      if (r < rows) std::tie(lo[r], hi[r]) = window(i0 + r);
      // First live columns never decrease down the grid.
      skip[r] = abandon && prev.lo > lo[r] ? prev.lo - lo[r] : 0;
      lo[r] += skip[r];
      if (lo[r] <= hi[r]) {
        t0 = std::min(t0, lo[r] + r);
        t1 = std::max(t1, hi[r] + r);
      }
    }
    // Every row of the strip is empty, so no later cell is finite; the
    // first of them (row minimum +inf) abandons any finite threshold.
    if (t0 > t1) return finish(kInf);

    const std::size_t steps = t1 - t0 + 1;
    // Growth moves the buffers; it keeps the last row, so rebind prev.
    scratch.EnsureSteps(steps);
    if (prev_in_last) prev.cells = scratch.strip_last() + prev_offset;
    StagePredecessor(prev, t0, steps, scratch.strip_pred());
    for (std::size_t r = 0; r < kStripRows; ++r) {
      const std::size_t l = LaneOf(r);
      const bool live = lo[r] <= hi[r];
      strip.x[l] = r < rows ? x[i0 + r] : 0.0;
      strip.begin[l] = live ? lo[r] + r - t0 : 0;
      strip.width[l] = live ? hi[r] - lo[r] + 1 : 0;
    }
    strip.steps = steps;
    // pred[q] is column t0 - 1 + q: every one past prev.hi is dead.
    strip.min_steps = !abandon         ? steps
                      : prev.hi < t0 ? 0
                                     : std::min(steps, prev.hi + 1 - t0);
    strip.pred = scratch.strip_pred();
    strip.y = padded_y + t0;  // y index t0 - kStripRows on
    strip.wave = scratch.strip_wave();
    strip.last = scratch.strip_last();
    fill(strip);

    for (std::size_t r = 0; r < rows; ++r) evaluated += ran_cells(LaneOf(r));
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t l = LaneOf(r);
      cells += strip.cells[l];
      double* out = dest(i0 + r + 1);
      if (out != nullptr && lo[r] <= hi[r]) {
        const double* src = strip.wave + strip.begin[l] * kStripRows + l;
        out += skip[r];
        for (std::size_t j = 0, e = ran_cells(l); j < e; ++j) {
          out[j] = src[j * kStripRows];
        }
      }
      if (abandon && strip.row_min[l] > abandon_above) return finish(kInf);
    }
    if (i0 + rows == n) {
      // The final strip: DP row n is row rows - 1.
      const std::size_t r = rows - 1;
      const double d = lo[r] <= m && m <= hi[r] && m + r - t0 < strip.ran
                           ? strip.wave[(m + r - t0) * kStripRows + LaneOf(r)]
                           : kInf;
      if (abandon) return finish(d <= abandon_above ? d : kInf);
      return finish(d);
    }
    // The next strip's predecessor is this strip's last row, lane 0, over
    // the columns the fill reached.
    constexpr std::size_t kLast = kStripRows - 1;
    const std::size_t reached = ran_cells(0);
    prev = reached > 0 ? DpRowView{strip.last + strip.begin[0], lo[kLast],
                                   lo[kLast] + reached - 1}
                       : DpRowView{nullptr, 1, 0};
    if (abandon) prev = LiveSpan(prev, abandon_above);
    prev_in_last = prev.lo <= prev.hi;
    prev_offset =
        prev_in_last ? static_cast<std::size_t>(prev.cells - strip.last) : 0;
  }
  return finish(kInf);  // n == 0
}

// The full-grid window [1, m] of every DP row.
struct FullWindow {
  std::size_t m;
  std::pair<std::size_t, std::size_t> operator()(std::size_t) const {
    return {1, m};
  }
};

// Band-compressed distance-only kernel: the strip buffers follow the
// band's column span, never the grid, and per-row work is O(row width).
// The fill variant comes from the scratch (pinned by retrieval workers,
// process-wide active otherwise).
double BandedRollingKernel(const ts::TimeSeries& x, const ts::TimeSeries& y,
                           const Band& band, double abandon_above,
                           CostKind cost, DtwScratch& scratch,
                           std::size_t* cells_filled,
                           std::size_t* cells_allocated) {
  const std::size_t m = y.size();
  if (cells_allocated != nullptr) {
    *cells_allocated = 2 * MaxDpRowWidth(band);
  }
  const double origin = 0.0;
  return StripWavefront(
      x, y,
      [&band, m](std::size_t r) { return DpWindow(band.row(r), m); },
      DpRowView{&origin, 0, 0}, abandon_above, scratch.kernel().fill(cost),
      scratch, cells_filled, NoRows{});
}

// Full-grid distance-only kernel as the degenerate window [1, m] — the
// same code path (and bit-identical results) as the banded kernel.
double FullRollingKernel(const ts::TimeSeries& x, const ts::TimeSeries& y,
                         double abandon_above, CostKind cost,
                         DtwScratch& scratch) {
  const double origin = 0.0;
  return StripWavefront(x, y, FullWindow{y.size()},
                        DpRowView{&origin, 0, 0}, abandon_above,
                        scratch.kernel().fill(cost), scratch, nullptr,
                        NoRows{});
}

}  // namespace

DtwResult Dtw(const ts::TimeSeries& x, const ts::TimeSeries& y,
              const DtwOptions& options) {
  DtwResult result;
  const std::size_t n = x.size();
  const std::size_t m = y.size();
  if (n == 0 || m == 0) return result;
  const std::size_t stride = m + 1;
  DtwScratch scratch;
  scratch.set_kernel(options.kernel);
  if (!options.want_path) {
    // Distance-only: the strip kernel needs no (n+1)x(m+1) matrix.
    result.distance =
        FullRollingKernel(x, y, kNoAbandon, options.cost, scratch);
    result.cells_filled = n * m;
    result.cells_allocated = 2 * stride;
    return result;
  }
  // Path-preserving: materialise the full matrix for the backtrack. The
  // strip kernel fills it row by row, as fast as the distance-only path.
  std::vector<double> d((n + 1) * stride, kInf);
  d[0] = 0.0;
  StripWavefront(x, y, FullWindow{m}, DpRowView{d.data(), 0, 0},
                 kNoAbandon, scratch.kernel().fill(options.cost), scratch,
                 nullptr, [&d, stride](std::size_t i) {
                   return d.data() + i * stride + 1;
                 });
  result.cells_filled = n * m;
  result.cells_allocated = (n + 1) * stride;
  result.distance = d[n * stride + m];
  if (std::isfinite(result.distance)) {
    result.path = BacktrackImpl(
        [&](std::size_t i, std::size_t j) { return d[i * stride + j]; }, n,
        m);
  }
  return result;
}

DtwResult DtwBanded(const ts::TimeSeries& x, const ts::TimeSeries& y,
                    const Band& band, const DtwOptions& options,
                    double abandon_above) {
  DtwResult result;
  const std::size_t n = x.size();
  const std::size_t m = y.size();
  if (n == 0 || m == 0 || band.n() != n || band.m() != m) return result;
  DtwScratch scratch;
  scratch.set_kernel(options.kernel);
  if (!options.want_path) {
    // Distance-only: no cell needs to outlive its strip, so the strip
    // buffers suffice.
    result.distance =
        BandedRollingKernel(x, y, band, abandon_above, options.cost, scratch,
                            &result.cells_filled, &result.cells_allocated);
    return result;
  }
  // Path-preserving: keep every in-band cell (and nothing else) so the
  // backtrack can walk the matrix.
  BandMatrix d(band);
  std::size_t cells = 0;
  const double distance = internal::FillBandMatrix(
      x, y, options.cost, abandon_above, scratch, d, &cells);
  result.cells_filled = cells;
  result.cells_allocated = d.cells_allocated();
  if (!std::isfinite(distance)) {
    // Abandoned (every continuation already exceeds abandon_above) or no
    // feasible path: distance stays +infinity, no backtrack.
    return result;
  }
  result.distance = distance;
  result.path = BacktrackImpl(
      [&](std::size_t i, std::size_t j) { return d.at(i, j); }, n, m);
  return result;
}

void DtwScratch::EnsureWidth(std::size_t width) {
  width_ = std::max(width_, width);
  // A strip over an m-column grid spans at most m + kStripRows - 1 steps.
  EnsureSteps(width + kStripRows - 1);
  padded_y_.resize(std::max(padded_y_.size(), width + 2 * kStripRows));
}

const double* DtwScratch::StagePaddedY(const ts::TimeSeries& y) {
  const std::size_t m = y.size();
  padded_y_.resize(std::max(padded_y_.size(), m + 2 * kStripRows));
  // Strips read y indices 1 - kStripRows through m + kStripRows - 3
  // (t0 >= 1, t1 <= m + kStripRows - 1); the zeros outside y only ever
  // reach dead lanes.
  std::fill_n(padded_y_.begin(), kStripRows, 0.0);
  const auto end = std::copy(y.values().begin(), y.values().end(),
                             padded_y_.begin() + kStripRows);
  std::fill_n(end, kStripRows, 0.0);
  return padded_y_.data();
}

void DtwScratch::GrowSteps(std::size_t steps) {
  const std::vector<double> old = std::move(cells_);
  const std::size_t old_last = last_off_;
  const std::size_t old_steps = steps_;
  // Geometric growth: a DP whose strips widen one by one reallocates
  // O(log) times, and a warm scratch never again.
  steps_ = std::max(steps, 2 * steps_);
  // Each buffer starts on a 64-byte boundary (8 doubles).
  const auto round8 = [](std::size_t cells) {
    return (cells + 7) & ~std::size_t{7};
  };
  const std::size_t pred_cells = round8(steps_ + 1);
  const std::size_t last_cells = round8(steps_);
  cells_.assign(pred_cells + last_cells + kStripRows * steps_ + 8, kInf);
  // Alignment probe: std::bit_cast is the defined-behaviour C++20 way to
  // read a pointer's address representation; uintptr_t is pointer-sized
  // on every supported target.
  const std::size_t misalign =
      std::bit_cast<std::uintptr_t>(cells_.data()) % 64;
  pred_off_ = misalign != 0 ? (64 - misalign) / sizeof(double) : 0;
  last_off_ = pred_off_ + pred_cells;
  wave_off_ = last_off_ + last_cells;
  // The last row is the next strip's predecessor: keep it.
  if (!old.empty()) {
    std::copy_n(old.begin() + static_cast<std::ptrdiff_t>(old_last),
                old_steps, cells_.begin() + static_cast<std::ptrdiff_t>(
                                                last_off_));
  }
}

namespace internal {

double FillBandMatrix(const ts::TimeSeries& x, const ts::TimeSeries& y,
                      CostKind cost, double abandon_above,
                      DtwScratch& scratch, BandMatrix& d,
                      std::size_t* cells_filled) {
  return StripWavefront(
      x, y,
      [&d](std::size_t r) {
        return std::pair<std::size_t, std::size_t>{d.row_lo(r + 1),
                                                    d.row_hi(r + 1)};
      },
      DpRowView{d.row_data(0), d.row_lo(0), d.row_hi(0)}, abandon_above,
      scratch.kernel().fill(cost), scratch, cells_filled,
      [&d](std::size_t i) { return d.row_data(i); });
}

}  // namespace internal

double DtwDistance(const ts::TimeSeries& x, const ts::TimeSeries& y,
                   CostKind cost) {
  DtwScratch scratch;
  return DtwDistance(x, y, cost, scratch);
}

double DtwDistance(const ts::TimeSeries& x, const ts::TimeSeries& y,
                   CostKind cost, DtwScratch& scratch, double abandon_above) {
  if (x.empty() || y.empty()) return kInf;
  return FullRollingKernel(x, y, abandon_above, cost, scratch);
}

double DtwBandedDistance(const ts::TimeSeries& x, const ts::TimeSeries& y,
                         const Band& band, CostKind cost) {
  DtwScratch scratch;
  return DtwBandedDistance(x, y, band, cost, scratch);
}

double DtwBandedDistance(const ts::TimeSeries& x, const ts::TimeSeries& y,
                         const Band& band, CostKind cost, DtwScratch& scratch,
                         double abandon_above) {
  if (x.empty() || y.empty() || band.n() != x.size() ||
      band.m() != y.size()) {
    return kInf;
  }
  return BandedRollingKernel(x, y, band, abandon_above, cost, scratch,
                             nullptr, nullptr);
}

bool IsValidWarpPath(const std::vector<PathPoint>& path, std::size_t n,
                     std::size_t m) {
  if (n == 0 || m == 0) return path.empty();
  if (path.empty()) return false;
  if (path.front() != PathPoint(0, 0)) return false;
  if (path.back() != PathPoint(n - 1, m - 1)) return false;
  if (path.size() < std::max(n, m) || path.size() > n + m) return false;
  for (std::size_t k = 1; k < path.size(); ++k) {
    const std::size_t di = path[k].first - path[k - 1].first;
    const std::size_t dj = path[k].second - path[k - 1].second;
    if (path[k].first < path[k - 1].first ||
        path[k].second < path[k - 1].second) {
      return false;
    }
    if (di > 1 || dj > 1 || (di == 0 && dj == 0)) return false;
  }
  return true;
}

double PathCost(const ts::TimeSeries& x, const ts::TimeSeries& y,
                const std::vector<PathPoint>& path, CostKind cost) {
  double total = 0.0;
  for (const PathPoint& p : path) {
    if (p.first >= x.size() || p.second >= y.size()) return kInf;
    total += EvalCost(cost, x[p.first], y[p.second]);
  }
  return total;
}

}  // namespace dtw
}  // namespace sdtw
