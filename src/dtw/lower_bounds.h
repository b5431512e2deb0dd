#ifndef SDTW_DTW_LOWER_BOUNDS_H_
#define SDTW_DTW_LOWER_BOUNDS_H_

/// \file lower_bounds.h
/// \brief Cheap lower bounds on the DTW distance (LB_Kim, LB_Keogh).
///
/// These are the standard pruning primitives from the indexing literature
/// the paper builds on ([7] Keogh 2002, [16] Rakthanmanon et al. 2012). They
/// complement the band constraints: a retrieval loop can skip the DP
/// entirely when the lower bound already exceeds the best-so-far distance.
/// Both bounds are valid for the absolute cost and band-limited warping;
/// the full-span LB_Keogh from SeriesStats also for the squared cost.

#include <cstddef>
#include <vector>

#include "dtw/cost.h"
#include "ts/time_series.h"

namespace sdtw {
namespace dtw {

/// \brief Upper/lower envelope of a series under a warping window.
struct Envelope {
  std::vector<double> upper;
  std::vector<double> lower;
};

/// Builds the Keogh envelope of `s` for a symmetric warping radius `r`
/// (in samples): upper[i] = max(s[i-r..i+r]), lower[i] = min(s[i-r..i+r]).
/// Uses a monotonic-deque sliding window (O(n)); when the window spans the
/// whole series (r >= n-1) the envelope is two constant fills of the
/// global extrema instead.
Envelope MakeEnvelope(const ts::TimeSeries& s, std::size_t r);

/// \brief O(1)-combinable summary of a series for LB_Kim: the first/last
/// values and the global extrema. Indexes cache one per series so the
/// cascade's stage-1 test costs O(1) per candidate instead of rescanning
/// the candidate series on every query; the extrema are also the whole
/// full-span Keogh envelope (see LbKeoghAbandoning below).
struct SeriesStats {
  double first = 0.0;
  double last = 0.0;
  double min = 0.0;
  double max = 0.0;
  bool valid = false;  ///< false for an empty series.
};

/// One O(n) pass over `s` producing its LB_Kim summary.
SeriesStats MakeSeriesStats(const ts::TimeSeries& s);

/// LB_Kim (4-point variant): cost of the first/last points plus the
/// min/max points. A constant-time bound, valid for the absolute cost.
double LbKim(const ts::TimeSeries& x, const ts::TimeSeries& y);

/// LB_Kim from precomputed summaries — identical value to
/// LbKim(x, y) with MakeSeriesStats(x), MakeSeriesStats(y), in O(1).
double LbKim(const SeriesStats& x, const SeriesStats& y);

/// LB_Keogh: sum over i of the distance from x[i] to the envelope of y.
/// Requires equal lengths (standard formulation); returns 0 otherwise
/// (a trivially valid bound).
double LbKeogh(const ts::TimeSeries& x, const Envelope& y_envelope);

/// LB_Keogh of x against the full-span envelope of y (every element equal
/// to y's global [min, max]), read from y's cached summary instead of a
/// stored envelope, with cumulative-bound abandoning (the UCR-suite
/// refinement).
///
/// Soundness needs no window and no equal lengths: every warp path visits
/// every row i of x and aligns x_i to some y_j in [min(y), max(y)], so
/// Σ_i cost(x_i, [min(y), max(y)]) lower-bounds DTW(x, y) for either
/// CostKind — and every banded DTW, since a band only removes paths. The
/// terms are added left to right, the order the DP accumulates a path, so
/// the bound holds in floating point too.
///
/// The scan stops as soon as the running sum exceeds `abandon_above`. The
/// terms are non-negative, so the decision `result > abandon_above` is the
/// full pass's, which is what keeps cascade prunes (and hit lists)
/// unchanged. When the scan stops early, `*abandoned` (if non-null) is set
/// to true and the partial sum is returned; otherwise it is set to false
/// and the result is the full bound — for kAbsolute and equal lengths,
/// bitwise LbKeogh(x, MakeEnvelope(y, n - 1)). An empty y returns 0.
double LbKeoghAbandoning(const ts::TimeSeries& x, const SeriesStats& y,
                         double abandon_above, bool* abandoned = nullptr,
                         CostKind cost = CostKind::kAbsolute);

/// Convenience: builds the envelope of y with radius r and evaluates
/// LB_Keogh(x, env(y)).
double LbKeogh(const ts::TimeSeries& x, const ts::TimeSeries& y,
               std::size_t r);

}  // namespace dtw
}  // namespace sdtw

#endif  // SDTW_DTW_LOWER_BOUNDS_H_
