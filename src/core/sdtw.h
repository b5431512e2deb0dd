#ifndef SDTW_CORE_SDTW_H_
#define SDTW_CORE_SDTW_H_

/// \file sdtw.h
/// \brief The top-level sDTW public API.
///
/// Ties the pipeline together (paper §3): salient feature extraction
/// (one-time per series, cacheable), dominant-pair matching, inconsistency
/// pruning, locally relevant band construction, and band-constrained DTW.
///
/// Typical use:
/// \code
///   sdtw::core::Sdtw engine;                       // default = ac,aw
///   // Store once per series: its keypoints as one block.
///   sdtw::sift::FeatureBlock fx(engine.ExtractFeatures(x), x);
///   sdtw::sift::FeatureBlock fy(engine.ExtractFeatures(y), y);
///   sdtw::core::SdtwResult r = engine.Compare(x, fx, y, fy);
///   // r.distance, r.path, r.band, r.timing ...
/// \endcode

#include <chrono>
#include <cstddef>
#include <vector>

#include "align/consistency.h"
#include "align/matching.h"
#include "core/constraints.h"
#include "dtw/dtw.h"
#include "sift/extractor.h"
#include "sift/feature_block.h"
#include "ts/time_series.h"

namespace sdtw {
namespace core {

/// \brief Per-stage wall-clock timings of one comparison, in seconds.
/// Mirrors the paper's cost decomposition (§3.4 / Figure 17): matching +
/// inconsistency removal vs. dynamic programming. Feature extraction is a
/// one-time per-series cost and is reported by ExtractFeatures callers.
struct StageTiming {
  double matching_seconds = 0.0;  ///< Pair search + inconsistency pruning +
                                  ///< band construction.
  double dp_seconds = 0.0;        ///< Banded DP + path backtracking.
  double total() const { return matching_seconds + dp_seconds; }
};

/// \brief Full result of one sDTW comparison.
struct SdtwResult {
  /// Band-constrained DTW distance (>= the optimal DTW distance).
  double distance = 0.0;
  /// Warp path, when requested.
  std::vector<dtw::PathPoint> path;
  /// The band that constrained the DP.
  dtw::Band band;
  /// Matched pairs surviving inconsistency pruning.
  std::vector<align::AlignedPair> alignments;
  /// The interval partition driving the band.
  std::vector<align::IntervalPair> intervals;
  /// Cells of the grid actually filled.
  std::size_t cells_filled = 0;
  /// Peak DP storage in doubles (band-compressed: Σ band-row widths when a
  /// path is requested, 2 × max band-row width otherwise — never the full
  /// (N+1)x(M+1) grid).
  std::size_t cells_allocated = 0;
  StageTiming timing;
};

/// \brief Configuration of the whole pipeline.
struct SdtwOptions {
  sift::ExtractorOptions extractor;
  align::MatchingOptions matching;
  align::ConsistencyOptions consistency;
  ConstraintOptions constraint;
  dtw::DtwOptions dtw;
};

/// \brief Caller-owned working storage of Sdtw::BuildBand: the matching
/// candidates, the matched, scored and kept pairs, the interval partition
/// and the bands of one band build, and the feature blocks the
/// keypoint-vector form stages its inputs into.
///
/// Every buffer keeps its capacity across builds. After one warm-up build
/// on the longest series and the most features a caller will use, a
/// BuildBand into the same scratch performs no heap allocation — this is
/// what keeps a retrieval worker's sDTW hot loop allocation-free. A
/// scratch is not thread-safe: give each thread its own.
struct BandScratch {
  /// \name Results of the last build
  /// `band` is the band BuildBand returned; `alignments` and `intervals`
  /// are those of its X-driven direction (what SdtwResult reports).
  /// @{
  dtw::Band band;
  std::vector<align::AlignedPair> alignments;
  std::vector<align::IntervalPair> intervals;
  /// @}

  /// \name Working storage
  /// @{
  align::MatchScratch match;
  std::vector<align::MatchPair> pairs;
  std::vector<align::ScoredPair> candidates;
  dtw::Band reverse;     ///< Symmetric mode: the Y-driven band.
  dtw::Band transposed;  ///< Symmetric mode: its transpose.
  /// The keypoint-vector BuildBand's staged features.
  sift::FeatureBlock staged_x;
  sift::FeatureBlock staged_y;
  /// @}
};

/// \brief The sDTW engine.
///
/// Thread-compatible: const methods are safe to call concurrently from
/// multiple threads on distinct inputs.
class Sdtw {
 public:
  explicit Sdtw(SdtwOptions options = {});

  const SdtwOptions& options() const { return options_; }

  /// One-time salient feature extraction for a series (paper §3.4 — store
  /// these alongside the series and reuse them across comparisons).
  std::vector<sift::Keypoint> ExtractFeatures(
      const ts::TimeSeries& series) const;

  /// Full pipeline with pre-extracted features, stored as one
  /// sift::FeatureBlock per series (built from ExtractFeatures' output
  /// and that series). A finite `abandon_above` (the caller's
  /// best-so-far) makes the banded DP give up as soon as every cell of a
  /// DP row — or the final distance — exceeds it, returning distance =
  /// +infinity with an empty path. This works in both path and
  /// distance-only modes, so retrieval loops that want alignments prune
  /// exactly like distance-only calls. The default dtw::kNoAbandon, or
  /// any other non-finite value, never abandons.
  SdtwResult Compare(const ts::TimeSeries& x,
                     const sift::FeatureBlock& features_x,
                     const ts::TimeSeries& y,
                     const sift::FeatureBlock& features_y,
                     double abandon_above = dtw::kNoAbandon) const;

  /// Compare on keypoint vectors: stages them into blocks first.
  SdtwResult Compare(const ts::TimeSeries& x,
                     const std::vector<sift::Keypoint>& features_x,
                     const ts::TimeSeries& y,
                     const std::vector<sift::Keypoint>& features_y,
                     double abandon_above = dtw::kNoAbandon) const;

  /// Convenience: extracts features on the fly and compares.
  SdtwResult Compare(const ts::TimeSeries& x, const ts::TimeSeries& y) const;

  /// Builds the constraint band only (no DP) into `scratch`, reusing its
  /// storage (allocation-free once warm, see BandScratch) — exposed for
  /// analysis, visualisation, and combination with other kernels (e.g.
  /// dtw::MultiscaleDtwConstrained). Returns scratch.band, valid until
  /// the scratch's next use. This is the one band pipeline; every other
  /// BuildBand and Compare runs it.
  const dtw::Band& BuildBand(const ts::TimeSeries& x,
                             const sift::FeatureBlock& features_x,
                             const ts::TimeSeries& y,
                             const sift::FeatureBlock& features_y,
                             BandScratch& scratch) const;

  /// BuildBand on keypoint vectors, staged into the scratch's blocks
  /// (allocation-free once warm as well).
  const dtw::Band& BuildBand(const ts::TimeSeries& x,
                             const std::vector<sift::Keypoint>& features_x,
                             const ts::TimeSeries& y,
                             const std::vector<sift::Keypoint>& features_y,
                             BandScratch& scratch) const;

  /// BuildBand on keypoint vectors into a fresh scratch.
  dtw::Band BuildBand(const ts::TimeSeries& x,
                      const std::vector<sift::Keypoint>& features_x,
                      const ts::TimeSeries& y,
                      const std::vector<sift::Keypoint>& features_y) const;

 private:
  SdtwOptions options_;
  /// Built once from options_.extractor; ExtractFeatures shares it across
  /// threads (Extract is const and keeps its working storage per call).
  sift::SalientExtractor extractor_;
};

/// Returns the standard algorithm roster evaluated in the paper's §4.3 —
/// dtw (full), fc,fw 6/10/20%, fc,aw (lb 20%), ac,fw 6/10/20%, ac,aw,
/// ac2,aw — as (label, options) pairs. `descriptor_length` applies to all
/// adaptive variants (the paper's default is 64).
struct NamedConfig {
  const char* label;
  /// True for the unconstrained full-DTW baseline (options unused).
  bool full_dtw = false;
  SdtwOptions options;
};
std::vector<NamedConfig> PaperAlgorithmRoster(
    std::size_t descriptor_length = 64);

}  // namespace core
}  // namespace sdtw

#endif  // SDTW_CORE_SDTW_H_
