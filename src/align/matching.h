#ifndef SDTW_ALIGN_MATCHING_H_
#define SDTW_ALIGN_MATCHING_H_

/// \file matching.h
/// \brief Identification of dominant matching salient-feature pairs
/// (paper §3.2.1).
///
/// For a salient point s1 in X and s2 in Y, the pair ⟨s1, s2⟩ is returned as
/// a match when (a) the amplitude difference is below τ_a, (b) the scale
/// ratio is below τ_s, and (c) the match is *dominant*: no other candidate
/// s2' passing (a)+(b) has a descriptor distance within a factor τ_d (> 1)
/// of the best — Lowe's distinctiveness ratio test adapted to 1-D features.

#include <cstddef>
#include <vector>

#include "sift/keypoint.h"

namespace sdtw {
namespace align {

/// \brief A matched pair of salient features (indices into the two keypoint
/// vectors) with its descriptor distance.
struct MatchPair {
  std::size_t index_x = 0;
  std::size_t index_y = 0;
  double descriptor_distance = 0.0;
};

/// \brief Thresholds of the dominant-pair search.
struct MatchingOptions {
  /// Maximum absolute amplitude difference τ_a between matched features.
  /// Series are typically z-normalised, so this is in z-units. A large value
  /// effectively turns the amplitude constraint off.
  double tau_amplitude = 0.75;

  /// Maximum scale ratio τ_s (>= 1): max(σ1, σ2)/min(σ1, σ2) <= τ_s.
  double tau_scale = 2.5;

  /// Distinctiveness ratio τ_d (> 1): best descriptor distance × τ_d must
  /// not exceed the second-best candidate's distance.
  double tau_distinct = 1.25;

  /// When true, also requires the match to be mutual (s1 is s2's best
  /// candidate too) — a standard robustness refinement; off by default to
  /// follow the paper exactly.
  bool require_mutual = false;

  /// Maximum |center(s1) − center(s2)| as a fraction of the longer series,
  /// applied when series lengths are passed to FindDominantPairs. §3.2.2
  /// observes that unconstrained matching "identified some very distant
  /// pairs"; pairwise rank conflicts remove them when several pairs are
  /// committed, but a *single* surviving distant pair has nothing to
  /// conflict with and can skew the whole band (see DESIGN.md). <= 0
  /// disables the constraint.
  double tau_position = 0.35;
};

/// Finds dominant matching pairs from X's keypoints to Y's. O(|SX|·|SY|)
/// (paper §3.4). Pairs are returned sorted by index_x. When len_x/len_y are
/// non-zero, the tau_position displacement constraint is enforced.
std::vector<MatchPair> FindDominantPairs(
    const std::vector<sift::Keypoint>& keypoints_x,
    const std::vector<sift::Keypoint>& keypoints_y,
    const MatchingOptions& options = {}, std::size_t len_x = 0,
    std::size_t len_y = 0);

/// FindDominantPairs into `*pairs` (replaced), reusing its capacity: a
/// vector that once held |SX| pairs makes the call allocation-free.
void FindDominantPairs(const std::vector<sift::Keypoint>& keypoints_x,
                       const std::vector<sift::Keypoint>& keypoints_y,
                       const MatchingOptions& options, std::size_t len_x,
                       std::size_t len_y, std::vector<MatchPair>* pairs);

/// Euclidean distance between two descriptors (infinity on length
/// mismatch).
double DescriptorDistance(const std::vector<double>& a,
                          const std::vector<double>& b);

}  // namespace align
}  // namespace sdtw

#endif  // SDTW_ALIGN_MATCHING_H_
