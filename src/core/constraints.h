#ifndef SDTW_CORE_CONSTRAINTS_H_
#define SDTW_CORE_CONSTRAINTS_H_

/// \file constraints.h
/// \brief Locally relevant DTW band construction from aligned intervals
/// (paper §3.3).
///
/// Given the interval partition produced by consistent salient-feature
/// alignments, this module builds the four constraint types of Figure 10:
///
///  * fixed core & fixed width   — Sakoe-Chiba (baseline; no features used),
///  * fixed core & adaptive width — diagonal core, width = local interval
///    width of Y (with a lower bound, 20% in the paper's experiments),
///  * adaptive core & fixed width — core interpolated linearly inside each
///    matched interval pair (§3.3.2), fixed width,
///  * adaptive core & adaptive width — both adaptive; a second version
///    (ac2,aw) averages the widths of the r previous/next intervals to
///    stabilise noisy partitions.
///
/// Empty intervals produce degenerate cores (§3.3.2's exceptions); the
/// resulting gaps are bridged by Band::MakeFeasible so the DP always
/// completes.

#include <cstddef>
#include <vector>

#include "align/consistency.h"
#include "dtw/band.h"

namespace sdtw {
namespace core {

/// The constraint strategies evaluated in the paper (§4.3 naming).
enum class ConstraintType {
  kFixedCoreFixedWidth,       ///< fc,fw — Sakoe-Chiba.
  kFixedCoreAdaptiveWidth,    ///< fc,aw.
  kAdaptiveCoreFixedWidth,    ///< ac,fw.
  kAdaptiveCoreAdaptiveWidth, ///< ac,aw.
};

/// Short display name ("fc,fw", "ac,aw", ...).
const char* ConstraintTypeName(ConstraintType type);

/// \brief Parameters of band construction.
struct ConstraintOptions {
  ConstraintType type = ConstraintType::kAdaptiveCoreAdaptiveWidth;

  /// Fixed width as a fraction of M (the paper's w%: 0.06/0.10/0.20). Used
  /// by the *fixed width* strategies.
  double fixed_width_fraction = 0.10;

  /// Lower bound on the adaptive width, as a fraction of M (the paper uses
  /// 0.20 for fc,aw). 0 disables the bound.
  double adaptive_width_min_fraction = 0.0;

  /// Upper bound on the adaptive width, as a fraction of M. 0 disables.
  double adaptive_width_max_fraction = 0.0;

  /// Neighbourhood radius r for width averaging: the adaptive width at a
  /// point is the average of the widths of the r previous, current, and r
  /// next intervals. r = 0 reproduces ac,aw; r = 1 reproduces ac2,aw.
  std::size_t width_average_radius = 0;

  /// When true, the band is unioned with the transpose of the Y-driven band
  /// (paper §3.3.3's symmetric combined band).
  bool symmetric = false;
};

/// Computes, for every point i of X, the core column (candidate point y_j)
/// implied by the interval partition: linear interpolation between the
/// matched interval endpoints (§3.3.2). Intervals are applied in order, so
/// a later interval overwrites the rows it shares with an earlier one.
/// Empty Y-intervals map the whole X-interval onto the interval's start
/// point. A degenerate X-interval (one row) maps that row onto the
/// midpoint of its Y-interval; the vertical gap this leaves is bridged
/// later. The first and last rows are anchored to the grid corners. With
/// no intervals the core is DiagonalCore.
std::vector<double> AdaptiveCore(std::size_t n, std::size_t m,
                                 const std::vector<align::IntervalPair>& intervals);

/// The diagonal core j*_i = i (M-1)/(N-1).
std::vector<double> DiagonalCore(std::size_t n, std::size_t m);

/// Computes, for every point i of X, the local width (in samples of Y):
/// the width of the Y-interval containing the core point of i, averaged
/// over ±radius neighbouring intervals, clamped to the min/max fractions.
std::vector<double> AdaptiveWidths(
    std::size_t n, std::size_t m,
    const std::vector<align::IntervalPair>& intervals,
    const std::vector<double>& core, std::size_t radius,
    double min_fraction, double max_fraction);

/// Builds the constraint band for series lengths n (X) and m (Y) from the
/// aligned interval partition. The returned band is always feasible.
/// For kFixedCoreFixedWidth the intervals are ignored (Sakoe-Chiba).
dtw::Band BuildConstraintBand(std::size_t n, std::size_t m,
                              const std::vector<align::IntervalPair>& intervals,
                              const ConstraintOptions& options);

/// The X-driven band BuildConstraintBand builds with options.symmetric
/// off, written into `*band` in one pass over its rows and reusing its
/// row storage (see dtw::Band::Assign).
void BuildDirectedBand(std::size_t n, std::size_t m,
                       const std::vector<align::IntervalPair>& intervals,
                       const ConstraintOptions& options, dtw::Band* band);

/// Paper §3.3.3's symmetric combined band: unions `*band` with the
/// transpose of the Y-driven band `yx_band` (each made feasible), using
/// `*transposed` as storage for the transpose.
void UnionWithTransposed(const dtw::Band& yx_band, dtw::Band* transposed,
                         dtw::Band* band);

}  // namespace core
}  // namespace sdtw

#endif  // SDTW_CORE_CONSTRAINTS_H_
