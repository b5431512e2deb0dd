#ifndef SDTW_DTW_DTW_H_
#define SDTW_DTW_DTW_H_

/// \file dtw.h
/// \brief Dynamic time warping kernels: full grid and band-constrained.
///
/// Implements the classic O(NM) dynamic program of §2.1.3 — D(i, j) =
/// min(D(i-1,j), D(i,j-1), D(i-1,j-1)) + Δ(x_i, y_j) — with warp-path
/// backtracking, plus banded variants that fill only the cells inside a
/// Band.
///
/// Every row of every kernel — full grid, banded, early-abandon, and the
/// path-preserving fills — runs through the two-pass row kernel of
/// dtw/row_kernel.h: a vectorisable pass over staged cost rows plus a
/// carry-resolving serial scan, bit-identical to the historical scalar
/// loop (see that header for the contract and the property suite that
/// pins it).
///
/// The banded kernels use band-compressed storage in two modes so that
/// memory follows the band, not the grid:
///  * distance-only: two rolling buffers sized to the widest band row
///    (O(max band-row width) doubles), used by DtwBandedDistance and by
///    DtwBanded when want_path is off;
///  * path-preserving: a BandMatrix holding only the Σ(hi−lo+1) in-band
///    cells with per-row offsets, walked by a band-aware backtrack.
/// Both produce distances, paths, and cells_filled identical to a fully
/// materialised (N+1)x(M+1) matrix.
///
/// Best-so-far early abandoning is one trailing argument, `abandon_above`,
/// of DtwBanded and the scratch-buffer distance kernels: a finite value
/// makes the DP return +infinity as soon as every filled cell of a row (or
/// the final distance) exceeds it; kNoAbandon — or any other non-finite
/// value — never abandons, so the result is bitwise the plain DP's.

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "dtw/band.h"
#include "dtw/cost.h"
#include "dtw/kernel_dispatch.h"
#include "ts/time_series.h"

namespace sdtw {
namespace dtw {

/// One warp-path element: (index into X, index into Y), 0-based.
using PathPoint = std::pair<std::size_t, std::size_t>;

/// \brief Result of a DTW computation.
struct DtwResult {
  /// The DTW distance; +infinity when no path exists (cannot happen for
  /// feasible bands).
  double distance = std::numeric_limits<double>::infinity();
  /// Optimal warp path from (0,0) to (N-1,M-1); empty when not requested or
  /// when no path exists.
  std::vector<PathPoint> path;
  /// Number of grid cells actually filled by the DP (the paper's measure of
  /// work saved by pruning).
  std::size_t cells_filled = 0;
  /// Number of *logical DP cells* allocated — (N+1)*(M+1) for the
  /// path-preserving full kernel, Σ band-row widths (+1 origin) for the
  /// path-preserving banded kernel, 2 * max band-row width (two rolling
  /// rows) for the distance-only kernels. This is the storage footprint
  /// band compression shrinks, and the measure that scales with the
  /// input; the constant-factor scratch overhead of the two-pass kernel
  /// (guard pads, staged cost row, flag bytes — see DtwScratch) is not
  /// included.
  std::size_t cells_allocated = 0;
};

/// \brief Knobs for the DTW kernels.
struct DtwOptions {
  CostKind cost = CostKind::kAbsolute;
  /// When false, skips backtracking and path storage.
  bool want_path = true;
  /// Row-kernel variant to run the DP rows with; nullptr selects the
  /// process-wide ActiveRowKernelOps(). Every variant is bit-identical,
  /// so this is a speed/test knob, never a semantic one.
  const RowKernelOps* kernel = nullptr;
};

/// \brief Reusable row storage for the rolling DP kernels.
///
/// The two-pass banded kernel (see dtw/row_kernel.h) works on four
/// same-stride rows: the two rolling DP rows (`prev`/`cur`), a staged cost
/// row, and a row of carry-entry flag bytes. Each DP row carries
/// `internal::kRowPad` guard cells of +infinity on both sides, maintained
/// by the kernels, so the vectorised pass 1 can read the up/diagonal
/// predecessors of any in-band cell as plain shifted loads — the band
/// window guards become reads of the +inf pads instead of per-cell
/// branches. Rows are 64-byte aligned.
///
/// Retrieval loops that compare one query against thousands of candidates
/// keep one DtwScratch per worker, sized once to the widest requirement
/// across the whole candidate set (dtw::MaxDpRowWidth for a band, m + 1
/// for a full grid), instead of allocating per call. The kernels
/// re-initialise every cell and pad they read, so a scratch can be reused
/// across calls without clearing.
class DtwScratch {
 public:
  /// Grows all rows to hold at least `width` usable doubles each (never
  /// shrinks).
  void EnsureWidth(std::size_t width);

  /// The usable row width (max `width` passed to EnsureWidth so far).
  std::size_t width() const { return width_; }

  /// Pins the row-kernel variant the scratch-buffer kernels below run
  /// with; nullptr (the default) restores the process-wide selection.
  /// Retrieval workers set this once from their batch options.
  void set_kernel(const RowKernelOps* ops) { kernel_ = ops; }

  /// The effective ops table: the pinned variant, or the process-wide
  /// active one.
  const RowKernelOps& kernel() const {
    return kernel_ != nullptr ? *kernel_ : ActiveRowKernelOps();
  }

  /// \name Kernel row accessors
  /// Pointers to cell 0 of each row; cells [-kRowPad, width + kRowPad)
  /// are addressable. Valid until the next EnsureWidth growth. Rows are
  /// addressed as offsets into the owned buffers, so copied or moved
  /// scratches stay self-contained (each alias its own storage).
  /// @{
  double* prev_row() { return cells_.data() + prev_off_; }
  double* cur_row() { return cells_.data() + cur_off_; }
  double* cost_row() { return cells_.data() + cost_off_; }
  unsigned char* flag_row() { return flag_store_.data(); }
  /// @}

 private:
  std::vector<double> cells_;        ///< Backing store of the three rows.
  std::vector<unsigned char> flag_store_;
  std::size_t prev_off_ = 0;
  std::size_t cur_off_ = 0;
  std::size_t cost_off_ = 0;
  std::size_t width_ = 0;
  const RowKernelOps* kernel_ = nullptr;  ///< Pinned variant; never owned.
};

/// The `abandon_above` value that never abandons: the DP runs to the end
/// and returns the exact distance.
inline constexpr double kNoAbandon = std::numeric_limits<double>::infinity();

/// Full O(NM) DTW between x and y (paper §2.1.3).
DtwResult Dtw(const ts::TimeSeries& x, const ts::TimeSeries& y,
              const DtwOptions& options = {});

/// Band-constrained DTW. The band must have shape n=x.size(), m=y.size();
/// it is used as-is (callers should MakeFeasible() it first — all builders
/// in this library already do). Cells outside the band are treated as
/// +infinity. If the band is infeasible the result distance is +infinity.
/// Storage is band-compressed: Σ band-row widths cells when a path is
/// requested, two rolling band-width rows otherwise.
///
/// With a finite `abandon_above` (a retrieval loop's best-so-far), the DP
/// stops as soon as every filled cell of a band row — or the final
/// distance — exceeds it, and returns distance = +infinity with an empty
/// path and the cells filled so far. Otherwise the result is identical to
/// the non-abandoning call, so loops that want alignments prune as
/// aggressively as distance-only ones.
DtwResult DtwBanded(const ts::TimeSeries& x, const ts::TimeSeries& y,
                    const Band& band, const DtwOptions& options = {},
                    double abandon_above = kNoAbandon);

/// Distance-only DTW using two rolling rows (O(min work) memory). Roughly
/// 2x faster than Dtw() with paths disabled on large inputs.
double DtwDistance(const ts::TimeSeries& x, const ts::TimeSeries& y,
                   CostKind cost = CostKind::kAbsolute);

/// Distance-only banded DTW with rolling rows sized to the widest band row
/// (O(max band-row width) memory; per-row work is O(row width)).
double DtwBandedDistance(const ts::TimeSeries& x, const ts::TimeSeries& y,
                         const Band& band,
                         CostKind cost = CostKind::kAbsolute);

/// \name Scratch-buffer variants
/// Identical results to the allocation-owning kernels above (bit for bit),
/// but the rolling rows live in the caller-provided DtwScratch, which is
/// grown on demand and reused across calls. These are the hot-loop entry
/// points of the batched retrieval engine. A finite `abandon_above` (the
/// caller's best-so-far) returns +infinity as soon as every cell of a DP
/// row — or the final distance — exceeds it; combined with a band, this
/// composes sDTW's band pruning with the best-so-far pruning of retrieval
/// loops.
/// @{
double DtwDistance(const ts::TimeSeries& x, const ts::TimeSeries& y,
                   CostKind cost, DtwScratch& scratch,
                   double abandon_above = kNoAbandon);
double DtwBandedDistance(const ts::TimeSeries& x, const ts::TimeSeries& y,
                         const Band& band, CostKind cost, DtwScratch& scratch,
                         double abandon_above = kNoAbandon);
/// @}

/// Validates warp-path structure per §2.1.1: starts at (0,0), ends at
/// (N-1,M-1), steps ∈ {(1,0),(0,1),(1,1)}, and max(N,M) <= K <= N+M.
bool IsValidWarpPath(const std::vector<PathPoint>& path, std::size_t n,
                     std::size_t m);

/// Recomputes the cost of a given warp path under the given cost function.
double PathCost(const ts::TimeSeries& x, const ts::TimeSeries& y,
                const std::vector<PathPoint>& path,
                CostKind cost = CostKind::kAbsolute);

}  // namespace dtw
}  // namespace sdtw

#endif  // SDTW_DTW_DTW_H_
