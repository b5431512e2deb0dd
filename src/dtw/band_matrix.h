#ifndef SDTW_DTW_BAND_MATRIX_H_
#define SDTW_DTW_BAND_MATRIX_H_

/// \file band_matrix.h
/// \brief Band-compressed storage for the DTW accumulation matrix.
///
/// The point of the paper's locally relevant constraints is that the DP only
/// ever visits the narrow band induced by salient-feature alignments — so
/// the accumulation matrix must not be materialised at (N+1)x(M+1) either.
/// BandMatrix stores only the Σ(hi−lo+1) in-band cells, one contiguous
/// window per row with a prefix-sum offset table, and answers reads outside
/// a row's window with +infinity (the same value those cells would hold in
/// the full matrix). Backtracking works unchanged on top of at().
///
/// Storage is laid out in *DP coordinates*: DP row i >= 1 corresponds to
/// band row i-1 shifted right by one column (the DP border), and DP row 0
/// holds the origin — column 0 alone for the closed-begin kernels, or the
/// whole zero-initialised border row for the open-begin (subsequence)
/// kernel.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "dtw/band.h"

namespace sdtw {
namespace dtw {

/// The DP-coordinate window of band row `r` over `m` columns: the row
/// shifted by the +1 DP border and clamped to [1, m]. Returns {1, 0}
/// (empty) for inverted or out-of-grid rows. The single source of truth
/// for band-to-DP clamping, shared by BandMatrix and the rolling kernels.
inline std::pair<std::size_t, std::size_t> DpWindow(const BandRow& r,
                                                    std::size_t m) {
  if (r.lo > r.hi || r.lo >= m) return {1, 0};
  return {r.lo + 1, std::min(r.hi + 1, m)};
}

/// The widest DP row window of `band` (in doubles), including the origin
/// row 0 (width 1): the row width of the distance-only kernels' logical
/// two-row footprint (DtwResult::cells_allocated).
inline std::size_t MaxDpRowWidth(const Band& band) {
  std::size_t max_width = 1;  // DP row 0 holds the origin cell
  for (std::size_t i = 0; i < band.n(); ++i) {
    const auto [lo, hi] = DpWindow(band.row(i), band.m());
    if (lo <= hi) max_width = std::max(max_width, hi - lo + 1);
  }
  return max_width;
}

/// \brief Row-compressed (N+1)x(M+1) DTW accumulation matrix.
///
/// Allocates offset_/lo_ index tables of size O(N) plus exactly
/// Σ row-window widths doubles; reads outside the stored windows return
/// +infinity without touching memory.
class BandMatrix {
 public:
  /// Closed-begin matrix over `band` (shape n x m): DP row 0 stores only
  /// the origin cell, initialised to 0; all other stored cells start at
  /// +infinity. Requires band.n() > 0 and band.m() > 0.
  explicit BandMatrix(const Band& band) : BandMatrix(band, false) {}

  /// Open-begin matrix (subsequence matching): DP row 0 stores the whole
  /// border row [0, m], initialised to 0 (free start anywhere in Y).
  static BandMatrix OpenBegin(const Band& band) {
    return BandMatrix(band, true);
  }

  /// Number of series rows (DP rows are [0, n()]).
  std::size_t n() const { return lo_.size() - 1; }
  /// Number of series columns (DP columns are [0, m()]).
  std::size_t m() const { return m_; }

  /// First stored DP column of DP row i; lo > hi means an empty row.
  std::size_t row_lo(std::size_t i) const { return lo_[i]; }
  /// Last stored DP column of DP row i (lo - 1 when the row is empty).
  std::size_t row_hi(std::size_t i) const {
    return lo_[i] + (offset_[i + 1] - offset_[i]) - 1;
  }

  /// Cell value at DP coordinates (i, j); +infinity outside the stored
  /// window of row i.
  double at(std::size_t i, std::size_t j) const {
    const std::size_t k = j - lo_[i];  // wraps (huge) when j < lo_[i]
    return k < offset_[i + 1] - offset_[i]
               ? cells_[offset_[i] + k]
               : std::numeric_limits<double>::infinity();
  }

  /// Mutable storage of DP row i: row_hi(i) - row_lo(i) + 1 doubles, the
  /// first of which is DP column row_lo(i).
  double* row_data(std::size_t i) { return cells_.data() + offset_[i]; }
  const double* row_data(std::size_t i) const {
    return cells_.data() + offset_[i];
  }

  /// Total doubles allocated for cell storage (the memory the band
  /// compression is meant to shrink; excludes the O(N) index tables).
  std::size_t cells_allocated() const { return cells_.size(); }

 private:
  BandMatrix(const Band& band, bool open_begin);

  std::vector<double> cells_;        ///< Concatenated row windows.
  std::vector<std::size_t> offset_;  ///< n+2 prefix offsets into cells_.
  std::vector<std::size_t> lo_;      ///< n+1 per-row first DP columns.
  std::size_t m_ = 0;
};

}  // namespace dtw
}  // namespace sdtw

#endif  // SDTW_DTW_BAND_MATRIX_H_
