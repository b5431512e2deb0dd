#ifndef SDTW_RETRIEVAL_KNN_H_
#define SDTW_RETRIEVAL_KNN_H_

/// \file knn.h
/// \brief k-nearest-neighbour retrieval and classification engines over
/// DTW-family distances.
///
/// This is the deployment surface the paper's cost model (§3.4) implies:
/// salient features are extracted once per indexed series and reused across
/// every query. The engine layers the standard lower-bound cascade of the
/// UCR-suite line of work ([7], [16]) in front of the DP:
///
///   LB_Kim (O(1)) -> LB_Keogh (O(n)) -> early-abandoning banded DTW
///
/// so that most candidates are discarded before any grid cell is filled.

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "core/sdtw.h"
#include "dtw/lower_bounds.h"
#include "sift/feature_block.h"
#include "ts/time_series.h"

namespace sdtw {
namespace retrieval {

/// \brief Which distance the engine ranks by.
enum class DistanceKind {
  kFullDtw,   ///< Exact O(NM) DTW.
  kSdtw,      ///< Salient-feature constrained DTW (the paper's sDTW).
  kEuclidean, ///< True Euclidean (sqrt of summed squared pointwise
              ///< differences) on equal lengths (baseline).
  kL1,        ///< Pointwise L1 (sum of absolute differences) on equal
              ///< lengths (baseline).
};

/// \brief Order in which the cascade visits the candidates of one work
/// chunk (the UCR-suite scheduling refinement, Rakthanmanon et al. 2012).
enum class VisitOrder {
  /// Ascending candidate index — the order a naive scan uses; kept as the
  /// oracle the LB-ordered schedule is checked against.
  kIndexOrder,
  /// Ascending (cached LB_Kim, index) within each index-range chunk:
  /// cheap likely-near candidates run first, so the best-so-far tightens
  /// early and the Keogh/early-abandon stages prune more of the expensive
  /// tail. A query is one chunk unless the batch has too few queries to
  /// keep every worker busy, so this is usually the query's whole-index
  /// cheapest-first order. Results are bitwise identical to kIndexOrder —
  /// hits are the k smallest (distance, index) pairs and every prune is
  /// conservative against the racing best-so-far — with typically far
  /// fewer DPs run (~3x fewer on bench_batch_retrieval's default
  /// workload; workload-dependent, not a per-dataset theorem).
  kLowerBound,
};

/// \brief Engine configuration.
struct KnnOptions {
  DistanceKind distance = DistanceKind::kSdtw;
  core::SdtwOptions sdtw;
  /// Candidate visit order inside each batch work chunk. LB_Kim is O(1)
  /// per candidate from cached summaries, so the ordering itself costs one
  /// sort per chunk; it is used purely as a schedule (never as a prune)
  /// whenever LB_Kim is not a sound bound for the configured distance.
  VisitOrder visit_order = VisitOrder::kLowerBound;
  /// Enable the LB_Kim constant-time prefilter.
  bool use_lb_kim = true;
  /// Enable the LB_Keogh prefilter in both DTW modes, for either cost and
  /// any mix of lengths. The envelope spans the whole series (global
  /// min/max, read from the cached SeriesStats): every warp path visits
  /// every row, so each x_i aligns to some value in [min(y), max(y)] and
  /// the bound holds for unconstrained DTW, whatever the displacement. A
  /// radius-r envelope would only bound r-window-constrained DTW. An sDTW
  /// band only removes paths, so sDTW >= DTW >= this bound, and the stage
  /// runs before the band is built.
  bool use_lb_keogh = true;
  /// Enable early-abandoning DP against the best-so-far distance, which
  /// also prunes every DP cell above it (dtw/row_kernel.h). Applies to
  /// both DTW modes: the kFullDtw rolling kernel, and the kSdtw banded
  /// kernel (band pruning and best-so-far pruning compose).
  bool use_early_abandon = true;
};

/// \brief One retrieval hit.
struct Hit {
  std::size_t index = 0;  ///< Index into the indexed data set.
  double distance = 0.0;
  int label = -1;
};

/// \brief Statistics of one query (how much work the cascade saved).
///
/// The four outcome counters partition the scanned candidates exactly:
/// pruned_by_kim + pruned_by_keogh + pruned_by_early_abandon +
/// dp_evaluations == candidates, under every visit order and thread count.
/// lb_keogh_abandoned and band_builds are stage-level counts orthogonal to
/// that partition: lb_keogh_abandoned counts Keogh evaluations (up to two
/// per candidate, one per direction) whose cumulative sum crossed the
/// best-so-far before the pass completed and stopped early
/// (LbKeoghAbandoning), saving part of the O(n) bound computation on top
/// of the prune itself; band_builds counts sDTW Sdtw::BuildBand calls
/// (matching + consistency + band) — candidates − pruned_by_kim −
/// pruned_by_keogh in kSdtw mode, 0 in every other mode. dp_cells counts
/// the DP work itself: the window cells the cascade's DPs evaluated, each
/// row's window clipped to the steps its strip ran (dtw::DtwScratch::
/// dp_cells), summed over abandoned and completed DPs alike.
struct QueryStats {
  std::size_t candidates = 0;
  std::size_t pruned_by_kim = 0;
  std::size_t pruned_by_keogh = 0;
  std::size_t pruned_by_early_abandon = 0;
  std::size_t dp_evaluations = 0;
  std::size_t lb_keogh_abandoned = 0;
  std::size_t band_builds = 0;
  std::size_t dp_cells = 0;

  /// Accumulates another set of counters into this one (per-chunk merge in
  /// the batch engine, per-query aggregation in reporting).
  void Merge(const QueryStats& other) {
    candidates += other.candidates;
    pruned_by_kim += other.pruned_by_kim;
    pruned_by_keogh += other.pruned_by_keogh;
    pruned_by_early_abandon += other.pruned_by_early_abandon;
    dp_evaluations += other.dp_evaluations;
    lb_keogh_abandoned += other.lb_keogh_abandoned;
    band_builds += other.band_builds;
    dp_cells += other.dp_cells;
  }
  /// Fraction of candidates the cascade resolved without a completed DP:
  /// 1 − dp_evaluations / candidates (0 on an empty scan).
  double prune_rate() const {
    return candidates > 0 ? 1.0 - static_cast<double>(dp_evaluations) /
                                      static_cast<double>(candidates)
                          : 0.0;
  }
};

/// Majority vote over a hit list (ascending by distance): the label with
/// the most votes; vote-count ties resolve to the smaller summed distance,
/// then to the smaller label. Returns -1 on an empty hit list. Shared by
/// the single-query and batched classifiers so tie-breaking is identical
/// everywhere.
int VoteLabel(const std::vector<Hit>& hits);

/// \brief A kNN engine over an indexed data set.
///
/// Index construction extracts and caches per-series salient features and
/// lower-bound summaries; queries reuse them (the paper's one-time
/// extraction cost model). The query-time cascade itself lives in
/// BatchKnnEngine (batch.h): Query() is a batch-of-one wrapper, so
/// single-query and batched retrieval share one implementation. Batches,
/// alignment recovery and leave-one-out accuracy are BatchKnnEngine calls
/// over this index.
class KnnEngine {
 public:
  explicit KnnEngine(KnnOptions options = {});

  /// Indexes the data set (copies it; features/summaries cached).
  void Index(const ts::Dataset& dataset);

  std::size_t size() const { return series_.size(); }
  const KnnOptions& options() const { return options_; }
  /// Length of the longest indexed series (0 on an empty index) — the
  /// sizing bound for per-worker DP scratch.
  std::size_t max_length() const { return max_length_; }

  /// Returns the k nearest indexed series to the query, ascending distance.
  /// `exclude` (optional index) supports leave-one-out evaluation over the
  /// indexed set itself. Stats (when non-null) receive cascade counters.
  std::vector<Hit> Query(const ts::TimeSeries& query, std::size_t k,
                         std::optional<std::size_t> exclude = std::nullopt,
                         QueryStats* stats = nullptr) const;

  /// Majority-vote kNN classification (VoteLabel over the Query hits).
  /// Returns -1 on an empty index.
  int Classify(const ts::TimeSeries& query, std::size_t k,
               std::optional<std::size_t> exclude = std::nullopt) const;

 private:
  friend class BatchKnnEngine;

  KnnOptions options_;
  core::Sdtw engine_;
  std::vector<ts::TimeSeries> series_;
  /// Per-series salient features, one block each; empty unless the
  /// distance is kSdtw (only the kSdtw cascade reads it).
  std::vector<sift::FeatureBlock> features_;
  /// Cached per-series min/max/first/last: LB_Kim is O(1) per candidate,
  /// and the extrema are the candidate's full-span Keogh envelope.
  std::vector<dtw::SeriesStats> stats_;
  std::size_t max_length_ = 0;
};

}  // namespace retrieval
}  // namespace sdtw

#endif  // SDTW_RETRIEVAL_KNN_H_
