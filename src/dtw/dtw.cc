#include "dtw/dtw.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "dtw/band_matrix.h"
#include "dtw/row_kernel.h"

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

// Shared rolling two-row DP driver over per-row DP windows, using the
// caller's scratch buffers (grown beforehand to the widest window). The
// window callable maps series row r (0-based) to the inclusive DP column
// window of DP row r + 1. Every row fill runs through `fill`, a row-fill
// entry point of a dispatched kernel variant (dtw/kernel_dispatch.h) with
// the cost baked in — resolved once per call by the kernels below, so the
// per-row cost is one predictable indirect call. The kernel re-initialises
// every cell and pad it reads, so a reused scratch needs no clearing.
// A finite `abandon_above` returns +inf as soon as every filled cell of a
// row (or the final distance) exceeds it; a non-finite one never abandons.
// This is the one abandon path of every kernel. Reports the number of
// cells filled (finite predecessors only, the paper's work measure) when
// `cells_filled` is non-null; counting is skipped entirely otherwise. When `sink` is
// non-null it is called as sink(i, row, w) after each non-empty DP row i
// is filled (the path-preserving kernels copy rows into their band
// matrices through it).
template <typename WindowFn, typename RowSink>
double RollingWindowKernel(const ts::TimeSeries& x, const ts::TimeSeries& y,
                           WindowFn window, double abandon_above,
                           RowFillFn fill, DtwScratch& scratch,
                           std::size_t* cells_filled, RowSink sink) {
  const bool abandon = std::isfinite(abandon_above);
  const std::size_t n = x.size();
  const std::size_t m = y.size();
  double* prev = scratch.prev_row();
  double* cur = scratch.cur_row();
  double* cost_row = scratch.cost_row();
  unsigned char* flag_row = scratch.flag_row();
  // DP window held by prev; starts as the origin row {0}.
  internal::ArmOriginRow(prev);
  std::size_t plo = 0;
  std::size_t phi = 0;
  std::size_t cells = 0;
  std::size_t* cells_ptr = cells_filled != nullptr ? &cells : nullptr;
  for (std::size_t i = 1; i <= n; ++i) {
    const auto [clo, chi] = window(i - 1);
    double row_min = kInf;
    if (clo <= chi) {
      row_min = fill(prev, plo, phi, cur, clo, chi, x[i - 1],
                     y.values().data(), cost_row, flag_row, cells_ptr);
      sink(i, cur, chi - clo + 1);
    }
    if (abandon && row_min > abandon_above) {
      if (cells_filled != nullptr) *cells_filled = cells;
      return kInf;
    }
    std::swap(prev, cur);
    plo = clo;
    phi = chi;
  }
  if (cells_filled != nullptr) *cells_filled = cells;
  const double d = m >= plo && m <= phi ? prev[m - plo] : kInf;
  if (abandon) return d <= abandon_above ? d : kInf;
  return d;
}

// Row sink for distance-only kernels: rows do not outlive the rolling
// buffers.
struct DiscardRows {
  void operator()(std::size_t, const double*, std::size_t) const {}
};

// Band-compressed distance-only kernel: two rolling buffers sized to the
// widest band row. Memory is O(max band-row width) regardless of n and m,
// and per-row work is O(row width) — no full-row infinity re-fill. The
// row-fill variant comes from the scratch (pinned by retrieval workers,
// process-wide active otherwise).
double BandedRollingKernel(const ts::TimeSeries& x, const ts::TimeSeries& y,
                           const Band& band, double abandon_above,
                           CostKind cost, DtwScratch& scratch,
                           std::size_t* cells_filled,
                           std::size_t* cells_allocated) {
  const std::size_t m = y.size();
  const std::size_t max_width = MaxDpRowWidth(band);
  scratch.EnsureWidth(max_width);
  if (cells_allocated != nullptr) *cells_allocated = 2 * max_width;
  return RollingWindowKernel(
      x, y,
      [&band, m](std::size_t r) { return DpWindow(band.row(r), m); },
      abandon_above, scratch.kernel().fill(cost), scratch, cells_filled,
      DiscardRows{});
}

// Full-grid distance-only kernel as the degenerate window [1, m] — the
// same code path (and bit-identical results) as the historical dedicated
// two-row implementation.
double FullRollingKernel(const ts::TimeSeries& x, const ts::TimeSeries& y,
                         double abandon_above, CostKind cost,
                         DtwScratch& scratch) {
  const std::size_t m = y.size();
  scratch.EnsureWidth(m + 1);
  return RollingWindowKernel(
      x, y,
      [m](std::size_t) { return std::pair<std::size_t, std::size_t>{1, m}; },
      abandon_above, scratch.kernel().fill(cost), scratch, nullptr,
      DiscardRows{});
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
    // Distance-only: the rolling kernel needs no (n+1)x(m+1) matrix.
    result.distance =
        FullRollingKernel(x, y, kNoAbandon, options.cost, scratch);
    result.cells_filled = n * m;
    result.cells_allocated = 2 * stride;
    return result;
  }
  // Path-preserving: materialise the full matrix for the backtrack. The
  // rows themselves are computed by the shared two-pass kernel in rolling
  // scratch buffers and copied out, so the fill is as fast as the
  // distance-only path.
  std::vector<double> d((n + 1) * stride, kInf);
  d[0] = 0.0;
  scratch.EnsureWidth(m + 1);
  RollingWindowKernel(
      x, y,
      [m](std::size_t) { return std::pair<std::size_t, std::size_t>{1, m}; },
      kNoAbandon, scratch.kernel().fill(options.cost), scratch, nullptr,
      [&d, stride](std::size_t i, const double* row, std::size_t w) {
        std::memcpy(d.data() + i * stride + 1, row, w * sizeof(double));
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
    // Distance-only: no cell needs to outlive its row, so the rolling
    // kernel's two band-width buffers suffice.
    result.distance =
        BandedRollingKernel(x, y, band, abandon_above, options.cost, scratch,
                            &result.cells_filled, &result.cells_allocated);
    return result;
  }
  // Path-preserving: keep every in-band cell (and nothing else) so the
  // backtrack can walk the matrix. Rows are computed in the rolling
  // scratch (the two-pass kernel needs its padded rows) and copied into
  // the band-compressed matrix as they complete.
  BandMatrix d(band);
  scratch.EnsureWidth(MaxDpRowWidth(band));
  std::size_t cells = 0;
  const double distance = RollingWindowKernel(
      x, y,
      [&band, m](std::size_t r) { return DpWindow(band.row(r), m); },
      abandon_above, scratch.kernel().fill(options.cost), scratch, &cells,
      [&d](std::size_t i, const double* row, std::size_t w) {
        std::memcpy(d.row_data(i), row, w * sizeof(double));
      });
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
  if (width <= width_ && !cells_.empty()) return;
  width_ = std::max(width_, width);
  // Three double rows (prev, cur, cost), each with kRowPad guard cells on
  // both sides, strides rounded to 64 bytes, base 64-byte aligned.
  const std::size_t stride =
      (2 * internal::kRowPad + width_ + 7) & ~std::size_t{7};
  cells_.assign(3 * stride + 8, internal::kRowInf);
  flag_store_.assign(stride, 0);
  // Alignment probe: std::bit_cast is the defined-behaviour C++20 way to
  // read a pointer's address representation (what the old
  // reinterpret_cast<uintptr_t> spelling did via implementation-defined
  // conversion); uintptr_t is pointer-sized on every supported target.
  const std::size_t misalign =
      std::bit_cast<std::uintptr_t>(cells_.data()) % 64;
  const std::size_t align_off =
      misalign != 0 ? (64 - misalign) / sizeof(double) : 0;
  prev_off_ = align_off + internal::kRowPad;
  cur_off_ = prev_off_ + stride;
  cost_off_ = cur_off_ + stride;
}

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
