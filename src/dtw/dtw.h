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
/// path-preserving fills — runs through the strip-wavefront kernel of
/// dtw/row_kernel.h: one dispatched call fills 8 rows, bit-identical to
/// the historical scalar loop (see that header for the contract and the
/// property suite that pins it).
///
/// The banded kernels use band-compressed storage in two modes so that
/// memory follows the band, not the grid:
///  * distance-only: the strip buffers of DtwScratch, sized to a strip's
///    column span (O(max band-row width) doubles for bands that move a
///    bounded number of columns per row), used by DtwBandedDistance and by
///    DtwBanded when want_path is off;
///  * path-preserving: a BandMatrix holding only the Σ(hi−lo+1) in-band
///    cells with per-row offsets, walked by a band-aware backtrack.
/// Both produce distances, paths, and cells_filled identical to a fully
/// materialised (N+1)x(M+1) matrix.
///
/// Best-so-far early abandoning is one trailing argument, `abandon_above`,
/// of DtwBanded and the scratch-buffer distance kernels: a finite value
/// makes the DP return +infinity as soon as every cell of a row (or the
/// final distance) exceeds it, and prunes as it goes — no cell above it
/// is computed past what a strip needs (dtw/row_kernel.h). Distances,
/// paths and abandon decisions are bitwise the unpruned DP's. kNoAbandon
/// — or any other non-finite value — never abandons or prunes, so the
/// result is bitwise the plain DP's, cell counts included.

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
  /// Number of grid cells the DP had to evaluate (the paper's measure of
  /// work saved by pruning): the cells with a finite best predecessor,
  /// through the abandoning row when the DP abandons. Under a finite
  /// `abandon_above` t, only cells whose best predecessor is <= t count —
  /// the cells any exact DP pruned at t must evaluate, whatever its
  /// geometry (dtw/row_kernel.h).
  std::size_t cells_filled = 0;
  /// Number of *logical DP cells* allocated — (N+1)*(M+1) for the
  /// path-preserving full kernel, Σ band-row widths (+1 origin) for the
  /// path-preserving banded kernel, 2 * max band-row width (two rolling
  /// rows) for the distance-only kernels. This is the storage footprint
  /// band compression shrinks, and the measure that scales with the
  /// input; the strip kernel's staging buffers (see DtwScratch) are not
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

/// \brief Reusable storage for the strip DP kernels.
///
/// Every DP runs as strips of kStripRows rows (see dtw/row_kernel.h). Each
/// strip stages the predecessor row over the strip's column span and reads
/// y from a padded copy staged once per DP; the dispatched fill writes the
/// step-major wave (kStripRows cells per wavefront step) plus the strip's
/// last row, which the next strip stages as its predecessor. The storage
/// is O(strip span + m), never O(n·m). Reused scratches need no clearing:
/// every DP re-stages every cell it reads.
///
/// Retrieval loops that compare one query against thousands of candidates
/// keep one DtwScratch per worker, sized once to the widest requirement
/// across the whole candidate set (m + 1 for a full grid of m columns),
/// instead of allocating per call. Once warm, the kernels make no heap
/// allocation.
class DtwScratch {
 public:
  /// Grows the buffers to serve DP rows of up to `width` cells — any strip
  /// over an m-column grid, given width m + 1 — and never shrinks.
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

  /// Window cells the last DP run on this scratch evaluated: each row's
  /// window, clipped to the steps its strip ran (n·m for a threshold-free
  /// full grid). The same on every kernel variant. Written by the DP
  /// driver through set_dp_cells.
  std::size_t dp_cells() const { return dp_cells_; }
  void set_dp_cells(std::size_t cells) { dp_cells_ = cells; }

  /// Grows the strip buffers to hold a strip of `steps` wavefront steps
  /// (never shrinks). Growth keeps the last row's contents, which the next
  /// strip reads as its predecessor.
  void EnsureSteps(std::size_t steps) {
    if (steps > steps_) GrowSteps(steps);
  }

  /// \name Strip buffers
  /// Sized by EnsureSteps(steps): the predecessor row (steps + 1 cells),
  /// the last row (steps) and the wave (kStripRows * steps), each 64-byte
  /// aligned. Valid until the next growth. Addressed as offsets into the
  /// owned buffer, so copied or moved scratches stay self-contained.
  /// @{
  double* strip_pred() { return cells_.data() + pred_off_; }
  double* strip_last() { return cells_.data() + last_off_; }
  double* strip_wave() { return cells_.data() + wave_off_; }
  /// @}

  /// Stages y once per DP, with kStripRows zeros on each side, and returns
  /// the padded copy: every strip's y segment (DpStrip::y) is a view into
  /// it, at offset t0 for a strip that starts at column t0.
  const double* StagePaddedY(const ts::TimeSeries& y);

 private:
  void GrowSteps(std::size_t steps);

  std::vector<double> cells_;  ///< Backing store of the strip buffers.
  std::vector<double> padded_y_;  ///< StagePaddedY's copy of y.
  std::size_t pred_off_ = 0;
  std::size_t last_off_ = 0;
  std::size_t wave_off_ = 0;
  std::size_t steps_ = 0;  ///< Strip steps the buffers hold.
  std::size_t width_ = 0;
  std::size_t dp_cells_ = 0;
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
/// requested, the strip buffers otherwise.
///
/// With a finite `abandon_above` (a retrieval loop's best-so-far), the DP
/// prunes every cell above it and stops as soon as every cell of a band
/// row — or the final distance — exceeds it, returning distance =
/// +infinity with an empty path and the cells filled so far. Otherwise the
/// distance and path are identical to the non-abandoning call, so loops
/// that want alignments prune as aggressively as distance-only ones.
DtwResult DtwBanded(const ts::TimeSeries& x, const ts::TimeSeries& y,
                    const Band& band, const DtwOptions& options = {},
                    double abandon_above = kNoAbandon);

/// Distance-only DTW keeping one strip of rows (O(m) memory). Roughly 2x
/// faster than Dtw() with paths disabled on large inputs.
double DtwDistance(const ts::TimeSeries& x, const ts::TimeSeries& y,
                   CostKind cost = CostKind::kAbsolute);

/// Distance-only banded DTW keeping one strip of band rows (memory follows
/// the band's strip spans; per-row work is O(row width)).
double DtwBandedDistance(const ts::TimeSeries& x, const ts::TimeSeries& y,
                         const Band& band,
                         CostKind cost = CostKind::kAbsolute);

/// \name Scratch-buffer variants
/// Identical results to the allocation-owning kernels above (bit for bit),
/// but the strip buffers live in the caller-provided DtwScratch, which is
/// grown on demand and reused across calls. These are the hot-loop entry
/// points of the batched retrieval engine. A finite `abandon_above` (the
/// caller's best-so-far) prunes every cell above it and returns +infinity
/// as soon as every cell of a DP row — or the final distance — exceeds
/// it; combined with a band, this composes sDTW's band pruning with the
/// best-so-far pruning of retrieval loops. scratch.dp_cells() then holds
/// the window cells the DP stepped through.
/// @{
double DtwDistance(const ts::TimeSeries& x, const ts::TimeSeries& y,
                   CostKind cost, DtwScratch& scratch,
                   double abandon_above = kNoAbandon);
double DtwBandedDistance(const ts::TimeSeries& x, const ts::TimeSeries& y,
                         const Band& band, CostKind cost, DtwScratch& scratch,
                         double abandon_above = kNoAbandon);
/// @}

class BandMatrix;

namespace internal {
/// Fills every stored row of `d` with the DP of x against y (d's shape
/// must be x.size() x y.size()). DP row 0 is read as stored: the origin of
/// a closed-begin matrix, or the free-start row of an open-begin one.
/// Returns D(n, m), +infinity when no path reaches it or when a finite
/// `abandon_above` abandons the DP (as in DtwBanded). Sets *cells_filled
/// to the cells filled when non-null. Shared by DtwBanded and the
/// subsequence search.
double FillBandMatrix(const ts::TimeSeries& x, const ts::TimeSeries& y,
                      CostKind cost, double abandon_above,
                      DtwScratch& scratch, BandMatrix& d,
                      std::size_t* cells_filled);
}  // namespace internal

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
