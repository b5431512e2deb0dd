#ifndef SDTW_ALIGN_CONSISTENCY_H_
#define SDTW_ALIGN_CONSISTENCY_H_

/// \file consistency.h
/// \brief Inconsistency pruning of matched salient-feature pairs
/// (paper §3.2.2) and extraction of the aligned interval partition
/// (paper §3.3, Figure 9).
///
/// The paper assumes the transformation between the two series stretches
/// time but preserves the *order* of temporal features. Matched pairs whose
/// scope boundaries would be ordered differently in the two series are
/// therefore conflicts. Pairs are committed greedily in descending order of
/// a combined score µ_comb — the F-measure of a normalised alignment score
/// µ_align (prefer large features close in time) and a normalised
/// similarity score µ_sim (prefer similar descriptors and similar average
/// amplitudes) — and a candidate is dropped when inserting its scope
/// boundaries would break the rank consistency of the two ordered boundary
/// lists.

#include <cstddef>
#include <vector>

#include "align/matching.h"
#include "sift/feature_block.h"
#include "sift/keypoint.h"
#include "ts/time_series.h"

namespace sdtw {
namespace align {

/// \brief A matched pair that survived pruning, with its scope boundaries
/// (clamped to the series) and scores.
struct AlignedPair {
  std::size_t index_x = 0;
  std::size_t index_y = 0;
  double start_x = 0.0;
  double end_x = 0.0;
  double start_y = 0.0;
  double end_y = 0.0;
  double mu_align = 0.0;
  double mu_sim = 0.0;
  double mu_comb = 0.0;
};

/// \brief Options of the consistency-pruning step.
struct ConsistencyOptions {
  /// When true, a feature on either side may participate in at most one
  /// committed pair (the matching step can map several X features onto one
  /// Y feature; committing both would collapse an interval).
  bool unique_features = true;
};

/// \brief Scores of one candidate pair before normalisation.
struct PairScores {
  double mu_align = 0.0;
  double mu_desc = 0.0;   ///< Descriptor match score, higher = more similar.
  double delta_amp = 0.0; ///< Fractional amplitude difference in [0, 1].
};

/// Computes the raw µ_align / µ_desc / Δ_amp scores of the pair of
/// keypoint i of `x` and keypoint j of `y`.
/// µ_align = (scope(f_i) + scope(f_j)) / 2 / (1 + |center(f_i) − center(f_j)|);
/// µ_desc = 1 / (1 + descriptor distance); Δ_amp is the fractional difference
/// of mean absolute series values within the two scopes, read from the
/// blocks' cached scope amplitudes.
PairScores ScorePair(const sift::FeatureBlock& x, std::size_t i,
                     const sift::FeatureBlock& y, std::size_t j,
                     double descriptor_distance);

/// \brief A matched pair with its scores: the working set of
/// PruneInconsistent.
struct ScoredPair {
  MatchPair match;
  PairScores scores;
  double mu_sim = 0.0;
  double mu_comb = 0.0;
};

/// Runs scoring + greedy rank-consistency pruning over `pairs` of the
/// keypoints of two blocks, into `*kept` (replaced), with `*candidates`
/// as working storage; the surviving pairs come out sorted by position
/// in X. Scope boundaries and amplitudes are the blocks' cached ones, so
/// each block must have been built from its series. Both vectors keep
/// their capacity, so once they have held |pairs| entries the call is
/// allocation-free.
void PruneInconsistent(const sift::FeatureBlock& keypoints_x,
                       const sift::FeatureBlock& keypoints_y,
                       const std::vector<MatchPair>& pairs,
                       const ConsistencyOptions& options,
                       std::vector<ScoredPair>* candidates,
                       std::vector<AlignedPair>* kept);

/// PruneInconsistent on keypoint vectors of the series x and y: stages
/// both into blocks and runs the block form.
std::vector<AlignedPair> PruneInconsistent(
    const ts::TimeSeries& x, const ts::TimeSeries& y,
    const std::vector<sift::Keypoint>& keypoints_x,
    const std::vector<sift::Keypoint>& keypoints_y,
    const std::vector<MatchPair>& pairs,
    const ConsistencyOptions& options = {});

/// \brief One pair of corresponding intervals of the partition induced by
/// the committed scope boundaries (Figure 9: intervals A..K).
struct IntervalPair {
  /// Inclusive sample ranges on each series; begin <= end.
  std::size_t begin_x = 0;
  std::size_t end_x = 0;
  std::size_t begin_y = 0;
  std::size_t end_y = 0;

  std::size_t width_x() const { return end_x - begin_x + 1; }
  std::size_t width_y() const { return end_y - begin_y + 1; }
};

/// Converts committed aligned pairs into the consecutive-interval partition
/// of both series: the sorted scope boundaries cut each series into the same
/// number of intervals; corresponding intervals pair up by index. With no
/// committed pairs the result is the single full-range interval (which
/// degrades adaptive constraints to their fixed counterparts gracefully).
std::vector<IntervalPair> BuildIntervals(std::size_t len_x, std::size_t len_y,
                                         const std::vector<AlignedPair>& pairs);

/// BuildIntervals into `*intervals` (replaced), reusing its capacity.
void BuildIntervals(std::size_t len_x, std::size_t len_y,
                    const std::vector<AlignedPair>& pairs,
                    std::vector<IntervalPair>* intervals);

}  // namespace align
}  // namespace sdtw

#endif  // SDTW_ALIGN_CONSISTENCY_H_
