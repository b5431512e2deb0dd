#ifndef SDTW_DTW_BAND_H_
#define SDTW_DTW_BAND_H_

/// \file band.h
/// \brief The band (search-region) abstraction constraining the DTW grid.
///
/// A Band over an N×M grid stores, for every row i (a position in the first
/// series X), the inclusive column range [lo(i), hi(i)] of positions in the
/// second series Y that the warp path may visit. All constraint strategies —
/// Sakoe-Chiba, Itakura, and the paper's locally relevant sDTW constraints —
/// produce a Band, and the banded DP kernel consumes one.
///
/// Bands constructed from salient-feature evidence can contain gaps (empty
/// intervals produce rows whose ranges do not connect, §3.3.2); since a gap
/// would prevent the dynamic program from completing, MakeFeasible() bridges
/// them, mirroring the paper's gap-filling rule.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sdtw {
namespace dtw {

/// \brief Inclusive column range of one band row.
struct BandRow {
  /// 0-based inclusive first column.
  std::size_t lo = 0;
  /// 0-based inclusive last column.
  std::size_t hi = 0;

  std::size_t width() const { return hi >= lo ? hi - lo + 1 : 0; }
  friend bool operator==(const BandRow&, const BandRow&) = default;
};

/// \brief A per-row column-interval constraint over an N×M DTW grid.
class Band {
 public:
  Band() = default;

  /// Creates a full (unconstrained) band over an n×m grid.
  static Band Full(std::size_t n, std::size_t m);

  /// Creates a band from explicit rows (rows.size() == n, columns < m).
  /// Rows are clamped to [0, m-1] but not otherwise repaired; call
  /// MakeFeasible() before running the DP.
  static Band FromRows(std::vector<BandRow> rows, std::size_t m);

  /// Reshapes the band in place to an n×m grid with every row set to
  /// `fill`, keeping the row storage: a band refilled for each new pair
  /// allocates only when n exceeds every row count it held before.
  /// Rows are not clamped; callers write in-range rows and call
  /// MakeFeasible() before running the DP.
  void Assign(std::size_t n, std::size_t m, BandRow fill);

  /// Number of rows (length of X).
  std::size_t n() const { return rows_.size(); }
  /// Number of columns (length of Y).
  std::size_t m() const { return m_; }

  bool empty() const { return rows_.empty() || m_ == 0; }

  const BandRow& row(std::size_t i) const { return rows_[i]; }
  BandRow& mutable_row(std::size_t i) { return rows_[i]; }
  const std::vector<BandRow>& rows() const { return rows_; }

  /// True when cell (i, j) lies inside the band.
  bool Contains(std::size_t i, std::size_t j) const {
    return i < rows_.size() && j >= rows_[i].lo && j <= rows_[i].hi;
  }

  /// Number of grid cells inside the band.
  std::size_t CellCount() const;

  /// Fraction of the N×M grid covered by the band, in [0, 1].
  double Coverage() const;

  /// Repairs the band so a monotone warp path from (0,0) to (N-1,M-1) is
  /// guaranteed to exist:
  ///  * clamps every row to [0, m-1] and fixes inverted rows,
  ///  * forces (0,0) and (N-1,M-1) into the band,
  ///  * bridges row-to-row gaps: consecutive rows must satisfy
  ///    lo(i) <= hi(i-1) + 1 and hi(i) >= lo(i-1) (otherwise no DTW step
  ///    (1,0)/(0,1)/(1,1) can connect them); violations are widened.
  /// Idempotent.
  void MakeFeasible();

  /// True when MakeFeasible's post-conditions hold.
  bool IsFeasible() const;

  /// Expands every row by `amount` columns on both sides (clamped).
  void Widen(std::size_t amount);

  /// Intersects with another band of identical shape; rows that become empty
  /// are left inverted (lo > hi) and must be repaired via MakeFeasible().
  /// Returns false on shape mismatch.
  bool IntersectWith(const Band& other);

  /// Unions with another band of identical shape (used for the symmetric
  /// combined band of §3.3.3). Returns false on shape mismatch.
  bool UnionWith(const Band& other);

  /// Returns the transpose band over the M×N grid: cell (j, i) of the result
  /// is in-band iff (i, j) is in-band here. Rows of the result that receive
  /// no cells are inverted and require MakeFeasible().
  Band Transpose() const;

  /// Transpose() into `*out`, reusing its row storage (see Assign).
  void TransposeInto(Band* out) const;

  /// Multi-line ASCII rendering ('#' in-band, '.' out), top row = last i.
  /// Intended for examples/debugging on small grids.
  std::string ToAscii() const;

  friend bool operator==(const Band&, const Band&) = default;

 private:
  std::vector<BandRow> rows_;
  std::size_t m_ = 0;
};

/// Builds a Sakoe-Chiba band: fixed diagonal core, fixed width (paper's
/// fc,fw baseline). `width_fraction` is the fraction of M each point of X is
/// compared against (the paper's w%: 0.06, 0.10, 0.20); the half-width is
/// ceil(width_fraction * M / 2) around the scaled diagonal.
Band SakoeChibaBand(std::size_t n, std::size_t m, double width_fraction);

/// SakoeChibaBand into `*band`, reusing its row storage (see Band::Assign).
void SakoeChibaBand(std::size_t n, std::size_t m, double width_fraction,
                    Band* band);

/// Builds an Itakura-parallelogram band with the given maximum local slope
/// (classically 2.0): the path must stay between lines of slope `max_slope`
/// and 1/`max_slope` through both corners.
Band ItakuraBand(std::size_t n, std::size_t m, double max_slope = 2.0);

}  // namespace dtw
}  // namespace sdtw

#endif  // SDTW_DTW_BAND_H_
