#ifndef SDTW_TESTS_CORE_REFERENCE_BAND_H_
#define SDTW_TESTS_CORE_REFERENCE_BAND_H_

/// \file reference_band.h
/// \brief Test-only reference copy of the band-building stages as they
/// were before the allocation-free rewrite: dominant-pair matching,
/// inconsistency pruning, interval extraction, constraint-band
/// construction and the symmetric union. The library's stages must keep
/// producing exactly what these produce (bands ==, doubles bitwise), so
/// the copy is frozen: it is an oracle, not code to maintain.

#include <cstddef>
#include <vector>

#include "align/consistency.h"
#include "align/matching.h"
#include "core/constraints.h"
#include "core/sdtw.h"
#include "dtw/band.h"
#include "sift/keypoint.h"
#include "ts/time_series.h"

namespace sdtw {
namespace reference {

std::vector<align::MatchPair> FindDominantPairs(
    const std::vector<sift::Keypoint>& keypoints_x,
    const std::vector<sift::Keypoint>& keypoints_y,
    const align::MatchingOptions& options, std::size_t len_x,
    std::size_t len_y);

std::vector<align::AlignedPair> PruneInconsistent(
    const ts::TimeSeries& x, const ts::TimeSeries& y,
    const std::vector<sift::Keypoint>& keypoints_x,
    const std::vector<sift::Keypoint>& keypoints_y,
    const std::vector<align::MatchPair>& pairs,
    const align::ConsistencyOptions& options);

std::vector<align::IntervalPair> BuildIntervals(
    std::size_t len_x, std::size_t len_y,
    const std::vector<align::AlignedPair>& pairs);

dtw::Band BuildConstraintBand(
    std::size_t n, std::size_t m,
    const std::vector<align::IntervalPair>& intervals,
    const core::ConstraintOptions& options);

/// The whole pre-DP pipeline of one comparison, composed exactly as
/// core::Sdtw composed it: the X-driven alignments and intervals, and the
/// (symmetrised when requested) band.
struct Alignment {
  std::vector<align::AlignedPair> alignments;
  std::vector<align::IntervalPair> intervals;
  dtw::Band band;
};
Alignment Align(const ts::TimeSeries& x,
                const std::vector<sift::Keypoint>& features_x,
                const ts::TimeSeries& y,
                const std::vector<sift::Keypoint>& features_y,
                const core::SdtwOptions& options);

}  // namespace reference
}  // namespace sdtw

#endif  // SDTW_TESTS_CORE_REFERENCE_BAND_H_
