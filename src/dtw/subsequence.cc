#include "dtw/subsequence.h"

#include <algorithm>
#include <cmath>

#include "dtw/band_matrix.h"

namespace sdtw {
namespace dtw {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Fills the open-begin accumulation matrix in BandMatrix (band-compressed)
// storage: d(0, j) = 0 for all j (free start), d(i, 0) = +inf for i >= 1.
// Today the matrix is full-width (Band::Full); routing it through
// BandMatrix shares the storage/backtrack machinery with the banded
// kernels and makes a band-constrained subsequence search a drop-in.
//
// The rows run through the same strip driver as the banded
// path-preserving kernel: the free-start row is just a different first
// predecessor row (window [0, m] of zeros), and rows i >= 1 fill [1, m]
// (out-of-window reads supply the d(i, 0) = +inf left border at j = 1).
// The historical per-cell loop had the same association order — min of
// the three predecessors, then one separately-rounded cost add — so
// values are bit-identical to it on every variant.
BandMatrix FillOpenBeginMatrix(const ts::TimeSeries& query,
                               const ts::TimeSeries& series, CostKind cost,
                               const RowKernelOps* kernel) {
  BandMatrix d =
      BandMatrix::OpenBegin(Band::Full(query.size(), series.size()));
  DtwScratch scratch;
  scratch.set_kernel(kernel);
  internal::FillBandMatrix(query, series, cost, kNoAbandon, scratch, d,
                           nullptr);
  return d;
}

// Backtracks from (n, end_col) to the free-start row, returning the path in
// (query index, series index) coordinates and the matched begin column.
std::vector<PathPoint> BacktrackOpenBegin(const BandMatrix& d, std::size_t n,
                                          std::size_t end_col,
                                          std::size_t* begin_col) {
  auto at = [&](std::size_t i, std::size_t j) { return d.at(i, j); };
  std::vector<PathPoint> path;
  std::size_t i = n;
  std::size_t j = end_col;
  path.emplace_back(i - 1, j - 1);
  while (i > 1) {
    double best = kInf;
    int move = 0;
    if (j > 1 && at(i - 1, j - 1) < best) {
      best = at(i - 1, j - 1);
      move = 0;
    }
    if (at(i - 1, j) < best) {
      best = at(i - 1, j);
      move = 1;
    }
    if (j > 1 && at(i, j - 1) < best) {
      best = at(i, j - 1);
      move = 2;
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
  *begin_col = path.front().second;
  return path;
}

}  // namespace

SubsequenceMatch FindBestSubsequence(const ts::TimeSeries& query,
                                     const ts::TimeSeries& series,
                                     const SubsequenceOptions& options) {
  SubsequenceMatch match;
  const std::size_t n = query.size();
  const std::size_t m = series.size();
  if (n == 0 || m == 0) return match;
  const BandMatrix d =
      FillOpenBeginMatrix(query, series, options.cost, options.kernel);
  // Open end: the best distance is the minimum of the last row.
  std::size_t best_j = 1;
  for (std::size_t j = 2; j <= m; ++j) {
    if (d.at(n, j) < d.at(n, best_j)) best_j = j;
  }
  match.distance = d.at(n, best_j);
  match.end = best_j - 1;
  std::size_t begin_col = 0;
  std::vector<PathPoint> path = BacktrackOpenBegin(d, n, best_j, &begin_col);
  match.begin = begin_col;
  if (options.want_path) match.path = std::move(path);
  return match;
}

std::vector<SubsequenceMatch> FindTopKSubsequences(
    const ts::TimeSeries& query, const ts::TimeSeries& series, std::size_t k,
    const SubsequenceOptions& options) {
  std::vector<SubsequenceMatch> matches;
  if (query.empty() || series.empty() || k == 0) return matches;
  // Greedy exclusion: blank out matched windows (set to +inf cost by
  // removing them from candidate end columns) and re-run on the remaining
  // gaps. Implemented by masking columns of the series.
  std::vector<bool> blocked(series.size(), false);
  for (std::size_t round = 0; round < k; ++round) {
    // Extract maximal unblocked segments and search each.
    SubsequenceMatch best;
    std::size_t seg_begin = 0;
    bool in_segment = false;
    for (std::size_t i = 0; i <= series.size(); ++i) {
      const bool open = i < series.size() && !blocked[i];
      if (open && !in_segment) {
        seg_begin = i;
        in_segment = true;
      } else if (!open && in_segment) {
        in_segment = false;
        const std::size_t seg_len = i - seg_begin;
        if (seg_len == 0) continue;
        const ts::TimeSeries segment = series.Slice(seg_begin, seg_len);
        SubsequenceMatch m = FindBestSubsequence(query, segment, options);
        if (m.distance < best.distance) {
          m.begin += seg_begin;
          m.end += seg_begin;
          for (PathPoint& p : m.path) p.second += seg_begin;
          best = std::move(m);
        }
      }
    }
    if (!std::isfinite(best.distance)) break;
    for (std::size_t i = best.begin; i <= best.end && i < series.size();
         ++i) {
      blocked[i] = true;
    }
    matches.push_back(std::move(best));
  }
  return matches;
}

}  // namespace dtw
}  // namespace sdtw
