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
#include <cstdint>
#include <vector>

#include "align/match_kernel.h"
#include "sift/feature_block.h"
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
  /// conflict with and can skew the whole band. <= 0 disables the
  /// constraint.
  double tau_position = 0.35;
};

/// \brief Working storage of the block form of FindDominantPairs: the
/// candidate pairs of the forward search and of the mutual back-check,
/// and the kernel variant to run. Buffers keep their capacity, so after
/// one call on the most keypoints a caller will use, the search is
/// allocation-free. Not thread-safe: give each thread its own.
struct MatchScratch {
  /// One dispatched scoring call's output (align/match_kernel.h).
  struct Candidates {
    std::vector<std::uint32_t> j;
    std::vector<double> sq;
    std::vector<std::size_t> row_end;
  };
  Candidates forward;
  Candidates back;
  /// Kernel variant; nullptr runs ActiveMatchKernelOps(). Variants give
  /// bitwise identical pairs.
  const MatchKernelOps* kernel = nullptr;
};

/// Finds dominant matching pairs from X's keypoints to Y's. O(|SX|·|SY|)
/// (paper §3.4). Pairs are returned sorted by index_x. When len_x/len_y are
/// non-zero, the tau_position displacement constraint is enforced.
///
/// The block form is the one implementation, into `*pairs` (replaced,
/// capacity reused). Per X keypoint, the dispatched kernel tests the
/// thresholds against every Y keypoint and sums the squared descriptor
/// distances of the passing ones (lane = pair, each lane in element
/// order, so every distance is bitwise the pair-at-a-time sum); the
/// best and second-best candidates and the distinctiveness and mutual
/// tests then run in scalar code, in Y index order. A NaN threshold
/// input passes the amplitude and position tests and fails the scale
/// test. A pair whose descriptors differ in length has an infinite
/// distance, as DescriptorDistance gives it.
void FindDominantPairs(const sift::FeatureBlock& keypoints_x,
                       const sift::FeatureBlock& keypoints_y,
                       const MatchingOptions& options, std::size_t len_x,
                       std::size_t len_y, MatchScratch& scratch,
                       std::vector<MatchPair>* pairs);

/// FindDominantPairs on keypoint vectors: stages both into blocks
/// (without scope data, which matching does not read) and runs the block
/// form.
std::vector<MatchPair> FindDominantPairs(
    const std::vector<sift::Keypoint>& keypoints_x,
    const std::vector<sift::Keypoint>& keypoints_y,
    const MatchingOptions& options = {}, std::size_t len_x = 0,
    std::size_t len_y = 0);

/// Euclidean distance between two descriptors (infinity on length
/// mismatch).
double DescriptorDistance(const std::vector<double>& a,
                          const std::vector<double>& b);

}  // namespace align
}  // namespace sdtw

#endif  // SDTW_ALIGN_MATCHING_H_
