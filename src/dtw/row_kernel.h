#ifndef SDTW_DTW_ROW_KERNEL_H_
#define SDTW_DTW_ROW_KERNEL_H_

/// \file row_kernel.h
/// \brief The DP recurrence: the scalar row reference, and the strip
/// wavefront every dispatched kernel variant implements.
///
/// Every DP cell is D(i, j) = min(D(i, j-1), D(i-1, j-1), D(i-1, j)) +
/// Δ(x_i, y_j): one min over the three predecessors, then one separately
/// rounded add of the cost. A cell with no finite predecessor stays
/// +infinity and is not counted; reads outside a row's window are
/// +infinity, exactly like the out-of-band cells of a full matrix.
///
/// FillBandRowScalar is the historical loop, one row at a time: a serial
/// pass whose every cell carries the `left` dependency. It is the oracle
/// the property suite pins every variant against, row by row.
///
/// The dispatched kernels (src/dtw/kernels/row_kernel_{portable,avx2,
/// avx512}.cc) fill a strip of kStripRows = 8 consecutive DP rows per call
/// instead (the DpStrip layout is in dtw/kernel_dispatch.h). At step k the
/// state vector V holds strip row r (DP row i0+1+r) at column t0+k-r, in
/// lane 7-r: each row lags the one above by a column, so the 8 cells of a
/// step do not depend on each other. The rows sit bottom-up so that the
/// lanes read y in ascending order and the last row, the next strip's
/// predecessor, is lane 0:
///
///   left = V_{k-1}: the lane's own previous cell, one column to the left;
///   up   = V_{k-1} shifted down one lane (lane l reads lane l+1, the row
///          above at the same column), with the predecessor row's cell in
///          the top lane;
///   diag = the previous step's `up` vector, so it needs no extra shuffle.
///
/// A lane is live while its column lies in its row's window, tested as one
/// unsigned compare (k - begin < width); dead lanes hold +infinity, which
/// is exactly the out-of-window value the row below reads. This handles
/// any window shape — empty rows, rows of any width, windows that jump any
/// distance between rows — with no fallback path.
///
/// Per-row semantics stay per row. The fill keeps a minimum per lane and,
/// on request, a count per lane of cells with a live best predecessor
/// (below). The driver (dtw.cc) then scans the strip's rows in order and
/// abandons at the first row whose minimum exceeds its threshold, counting
/// cells up to and including that row: exactly the row-at-a-time
/// semantics of FillBandRowScalar, so abandon decisions and cell counts
/// are identical, not just distances. The count stays exact when Δ
/// overflows to +infinity (a live predecessor plus an infinite cost is a
/// counted +infinity cell, in both kernels).
///
/// Pruning (EAPrunedDTW: Herrmann & Webb, DMKD 2021, after PrunedDTW:
/// Silva & Batista, SDM 2016). A DP given a finite abandon threshold t
/// skips every cell that cannot lie on a path at or below t:
///  * a cell is dead iff its value is > t — the abandon test's own
///    comparison, so a cell equal to t stays live;
///  * each strip starts at its predecessor row's first live column (first
///    live columns never decrease down the grid), and is staged with only
///    that row's live span, +infinity elsewhere;
///  * the fill stops before step k once both vectors that feed step k —
///    the previous values and the carried diag (the row above, two steps
///    back) — are dead in every lane and no staged predecessor cell from
///    column t0 + k on is live: one compare and one mask test per step,
///    off the min/min/add chain. Every cell it could still compute would
///    be dead;
///  * a row with no live cell reads a minimum above t (+infinity when the
///    fill never reached it), so the DP abandons at the same row as the
///    unpruned row-minimum test.
/// A non-finite threshold never prunes: threshold-free DPs compute exactly
/// the unpruned cells.
///
/// Why this stays bitwise exact with no rounding guard. A computed cell
/// never reads below its exact value: it takes a min over the same or
/// fewer predecessors. Suppose a cell's exact value v = fl(p + c) is <= t.
/// Its minimum predecessor p then satisfies p <= v <= t, because c >= 0
/// and rounding is monotone; so p is live and, by induction, exact. Every
/// cell <= t therefore keeps its exact value, and every other cell reads
/// > t: completed distances, abandoning rows and row minima at or below t
/// are the unpruned ones. A path's cells are all <= its distance <= t,
/// and a pruned predecessor reads > t, so it can neither win nor tie:
/// backtracked paths are the unpruned ones too.
///
/// Stale cells. Past the step where a fill stopped, the wave and the last
/// row still hold an earlier strip's values. The driver reads them as
/// +infinity: the final distance, the next strip's predecessor and the
/// path-mode copies take only the steps the fill ran (a BandMatrix starts
/// all +infinity, so copying the stepped-through cells is enough).
///
/// What cells_filled counts: the cells whose best predecessor is finite
/// and <= t — with no threshold, every cell with a finite predecessor.
/// These are exactly the cells any exact pruned DP must evaluate, so the
/// count does not depend on where a strip starts or stops; the unpruned
/// FillBandRowScalar computes it from its `threshold` argument. The work a
/// pruned DP actually did — each row's window clipped to the steps its
/// strip ran — is DtwScratch::dp_cells.
///
/// Every value the fill computes is bit-identical to the scalar loop: min
/// is exact on the kernel's NaN-free values whatever the order of its
/// operands, and the one add of the separately rounded cost is the same
/// add. This also
/// requires building without FMA contraction (-ffp-contract=off): fusing
/// the cost multiply into the accumulate add would change the rounding.
///
/// Each variant lives in its own translation unit, compiled with per-file
/// arch flags and selected at runtime through dtw::RowKernelOps (see
/// dtw/kernel_dispatch.h). To make that per-TU compilation safe, EVERY
/// function in this header has internal linkage (`static`): a TU built
/// with -mavx512f may compile these bodies with AVX-512 encodings, and if
/// they had external (vague/comdat) linkage the linker would keep ONE
/// arbitrary copy per binary — possibly the AVX-512 one — and hand it to
/// TUs meant to stay portable. Internal linkage gives every TU its own
/// copy compiled with its own flags. Do not remove the `static`s.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "dtw/cost.h"

namespace sdtw {
namespace dtw {
namespace internal {

inline constexpr double kRowInf = std::numeric_limits<double>::infinity();

/// Scalar reference row fill — the historical serial loop, retained as the
/// oracle the property suite pins every dispatched variant against. Fills
/// cur[0..chi-clo] with DP columns [clo, chi] of row i, reading DP row i-1
/// from prev, whose window is [plo, phi] (reads outside it are +infinity).
/// It never prunes: every value is exact. Returns the row minimum; `cells`
/// (when non-null) is incremented once per cell whose best predecessor is
/// finite and not above `threshold` — the cells any exact DP pruned at
/// that threshold must evaluate (every finite one by default).
template <typename Cost>
static double FillBandRowScalar(const double* prev, std::size_t plo,
                                std::size_t phi, double* cur, std::size_t clo,
                                std::size_t chi, double xi, const double* y,
                                Cost cost, std::size_t* cells,
                                double threshold = kRowInf) {
  double row_min = kRowInf;
  double left = kRowInf;  // value at (i, j-1); out-of-band at j == clo
  for (std::size_t j = clo; j <= chi; ++j) {
    const double up = j >= plo && j <= phi ? prev[j - plo] : kRowInf;
    const double diag =
        j - 1 >= plo && j - 1 <= phi ? prev[j - 1 - plo] : kRowInf;
    const double best = std::min({up, left, diag});
    double v = kRowInf;
    if (std::isfinite(best)) {
      v = best + cost(xi, y[j - 1]);
      row_min = std::min(row_min, v);
      if (cells != nullptr && !(best > threshold)) ++*cells;
    }
    cur[j - clo] = v;
    left = v;
  }
  return row_min;
}

}  // namespace internal
}  // namespace dtw
}  // namespace sdtw

#endif  // SDTW_DTW_ROW_KERNEL_H_
