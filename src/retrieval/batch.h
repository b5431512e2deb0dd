#ifndef SDTW_RETRIEVAL_BATCH_H_
#define SDTW_RETRIEVAL_BATCH_H_

/// \file batch.h
/// \brief Batched multi-query kNN retrieval over a KnnEngine index.
///
/// The single-query engine answers one query at a time and pays the
/// cascade set-up (query summary, feature extraction) plus DP scratch
/// allocation per call. BatchKnnEngine executes a whole batch of queries
/// against one index in a single pass:
///
///  * per-query derivatives (SeriesStats, salient features) are computed
///    exactly once up front (QueryContext);
///  * each worker thread owns one ScratchArena whose rolling DTW rows are
///    sized once to the widest requirement across the index, and whose
///    core::BandScratch every sDTW band is built into — so once a worker
///    is warm, the per-candidate cascade (bounds, band build, banded DP)
///    performs no allocation, in sDTW mode too. A band build used to make
///    ~33 heap allocations; with the reused scratch and the rewritten
///    stages, five traced knn_sdtw runs per side measure
///    core.build_band_us 14.6–19.3 → 6.5–11.2 µs (medians 18.0 → 10.2)
///    and align.match_us 5.3–6.9 → 3.2–5.5 µs (medians 6.1 → 5.0);
///  * the query×candidate grid is cut into index-range chunks and
///    distributed over workers by an atomic work counter, and every
///    query's best-so-far is a shared atomic that tightens as workers race,
///    so the LB_Kim → LB_Keogh → early-abandoning-DP cascade prunes across
///    threads. A query is split into several chunks only when there are
///    too few queries to keep every worker busy; with one worker, or at
///    least ~4 queries per worker, each query is one chunk;
///  * within each chunk, candidates are visited in ascending cached LB_Kim
///    order by default (KnnOptions::visit_order): the O(1) bound for every
///    candidate of the chunk is computed first, the chunk is sorted by
///    (bound, index), and the Keogh→DP cascade then runs cheapest-first,
///    so near neighbours tighten the shared best-so-far before the
///    expensive tail is visited and most DPs are pruned before they start.
///    When a query is one chunk, this is the query's whole-index
///    cheapest-first schedule;
///  * LB_Keogh runs against full-span envelopes read from the cached
///    SeriesStats, in both DTW modes and before the sDTW band is built;
///    its passes accumulate with cumulative abandoning against the
///    best-so-far (dtw::LbKeoghAbandoning): identical prune decisions,
///    but the O(n) bound computation itself stops once settled (counted
///    in QueryStats::lb_keogh_abandoned).
///
/// Thread-safety model (statically checked under -DSDTW_THREAD_SAFETY=ON
/// with Clang — see core/thread_annotations.h): each in-flight query owns
/// one core::Mutex guarding its top-k heap and cascade counters, its
/// best-so-far is a monotone atomic readable without the lock, per-query
/// derivatives are written in phase 1 and read-only once the workers
/// rejoin, and every worker thread exclusively owns one ScratchArena
/// (scratch.h) for the lifetime of the batch. BatchKnnEngine itself is
/// const/stateless per call, so concurrent QueryBatch calls on one engine
/// are safe.
///
/// Results are deterministic regardless of thread count, completion order,
/// and visit order: hits are the k smallest (distance, index) pairs,
/// exactly what the sequential in-index-order scan produces — every prune
/// is conservative (a candidate is only discarded when a sound lower bound
/// of its distance, or its exact distance, already exceeds the racing
/// best-so-far, which is itself an upper bound of the final k-th best), so
/// reordering changes only *how many* DPs run, never the hit lists. The
/// single-query KnnEngine::Query is a batch-of-one wrapper over this
/// engine, so the cascade logic lives here and only here.

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "retrieval/knn.h"
#include "retrieval/scratch.h"

namespace sdtw {
namespace retrieval {

/// \brief Execution knobs of the batch engine.
struct BatchOptions {
  /// Worker threads; 0 = hardware concurrency. 1 runs inline on the
  /// calling thread (no thread is spawned). Ignored when `executor` is
  /// set (the executor supplies the workers).
  std::size_t num_threads = 0;
  /// Candidates per work unit; 0 derives a chunking that yields at least
  /// ~4 units per worker while never splitting a query that does not need
  /// splitting for load balance (in particular, never with one worker).
  std::size_t chunk_size = 0;
  /// Row-kernel variant every worker's DP runs with; nullptr selects the
  /// process-wide ActiveRowKernelOps(). Variants are bit-identical, so
  /// hit lists do not depend on this — it exists for benchmarking and for
  /// the forced-variant test matrix.
  const dtw::RowKernelOps* kernel = nullptr;
  /// Persistent worker supply (non-owning; must outlive the engine's
  /// calls). When set, every phase runs on the executor's workers and
  /// their long-lived arenas instead of freshly spawned threads — the
  /// cross-batch scratch-reuse hook the retrieval service is built on.
  BatchExecutor* executor = nullptr;
};

/// \brief One retrieval hit with its recovered warp path.
///
/// Produced by QueryBatchWithAlignments: the batch runs distance-only (so
/// the cascade prunes at full strength), then only the final k winners per
/// query are re-aligned — dtw::DtwBanded over the full grid for kFullDtw,
/// core::Sdtw::Compare in path mode for kSdtw (same band), both with
/// `abandon_above` pinned to the already-known distance, so the re-run
/// can never abandon and prunes every cell above the distance without
/// changing the path — and the pointwise diagonal for the equal-length
/// kEuclidean / kL1 baselines.
struct AlignedHit {
  Hit hit;
  std::vector<dtw::PathPoint> path;
};

/// \brief A batch executor over an indexed KnnEngine.
///
/// Holds a non-owning view of the engine: the engine must outlive the
/// executor, and re-indexing the engine invalidates it. Construction is
/// O(1); all state lives per call.
class BatchKnnEngine {
 public:
  explicit BatchKnnEngine(const KnnEngine& index, BatchOptions options = {});

  const BatchOptions& options() const { return options_; }
  /// Number of indexed candidate series.
  std::size_t size() const;

  /// Returns, for every query, its k nearest indexed series in ascending
  /// (distance, index) order. `stats` (when non-null) receives one
  /// QueryStats per query with the cascade counters summing exactly to
  /// the candidates scanned for that query. `excludes` is a per-query
  /// exclusion (leave-one-out evaluation): excludes[q], when set, is an
  /// index never reported for query q; it must be empty or match the
  /// batch size. Majority-vote classification is VoteLabel over the hits.
  std::vector<std::vector<Hit>> QueryBatch(
      std::span<const ts::TimeSeries> queries, std::size_t k,
      std::vector<QueryStats>* stats = nullptr,
      std::span<const std::optional<std::size_t>> excludes = {}) const;

  /// The per-query derivative work of phase 1 (SeriesStats, salient
  /// features), exposed so a caching front-end can
  /// compute a query's context once and replay it across batches. Pure
  /// function of the query values and the engine configuration: a cached
  /// context is bit-identical to a freshly derived one, so replaying it
  /// cannot change hits.
  QueryContext MakeQueryContext(const ts::TimeSeries& query) const;

  /// QueryBatch with caller-supplied derivative contexts: contexts[q],
  /// when non-null, must be MakeQueryContext(queries[q]) (possibly cached
  /// from an earlier batch) and is used in place of the phase-1
  /// derivation; null entries (or an empty span) are derived internally
  /// as usual. Pointees must stay valid for the duration of the call.
  /// Hits are bitwise identical to the plain QueryBatch.
  std::vector<std::vector<Hit>> QueryBatchWithContexts(
      std::span<const ts::TimeSeries> queries,
      std::span<const QueryContext* const> contexts, std::size_t k,
      std::vector<QueryStats>* stats = nullptr) const;

  /// QueryBatch plus alignment recovery: identical hits (same distances,
  /// same cascade, same pruning — the batch itself runs distance-only),
  /// each carrying the optimal warp path of the query against that
  /// candidate. Paths are recomputed for the final k winners only, so the
  /// extra cost is at most num_queries × k path-mode comparisons — nearly
  /// free next to the pruned scan. `stats` counters cover the distance
  /// scan; the recovery re-runs are not counted as extra DP evaluations.
  /// `excludes` is QueryBatch's.
  std::vector<std::vector<AlignedHit>> QueryBatchWithAlignments(
      std::span<const ts::TimeSeries> queries, std::size_t k,
      std::vector<QueryStats>* stats = nullptr,
      std::span<const std::optional<std::size_t>> excludes = {}) const;

  /// Leave-one-out classification accuracy over the indexed set — the
  /// whole index is one batch, each series excluding itself and
  /// predicting VoteLabel of its hits. A prediction is correct only when
  /// the series is labelled (has_label()) and the prediction equals its
  /// label, so a -1 prediction (no hits, or only unlabelled neighbours)
  /// never counts; the denominator is the index size. `aggregate` (when
  /// non-null) receives the cascade counters summed over all queries, e.g.
  /// for prune-rate reporting.
  double LeaveOneOutAccuracy(std::size_t k,
                             QueryStats* aggregate = nullptr) const;

 private:
  /// QueryBatch body; when `contexts_out` is non-null it receives the
  /// per-query contexts (moved) so alignment recovery can reuse the cached
  /// query features instead of re-extracting them. `preset_contexts`
  /// (empty, or one pointer per query with nulls meaning "derive here")
  /// replaces phase-1 derivation per query; it is mutually exclusive with
  /// `contexts_out` (preset contexts are borrowed and cannot be moved
  /// out).
  std::vector<std::vector<Hit>> QueryBatchImpl(
      std::span<const ts::TimeSeries> queries, std::size_t k,
      std::span<const std::optional<std::size_t>> excludes,
      std::span<const QueryContext* const> preset_contexts,
      std::vector<QueryStats>* stats,
      std::vector<QueryContext>* contexts_out) const;

  /// The shared lower-bound cascade: LB_Kim (precomputed by the chunk
  /// scheduler) → LB_Keogh (both directions) → DP, against candidate
  /// `candidate` with the caller's best-so-far. The DP is one call per
  /// distance kind, with `abandon_above` set to the best-so-far when
  /// KnnOptions::use_early_abandon is on (dtw::kNoAbandon otherwise).
  /// Returns +infinity when pruned. The one copy of the cascade logic;
  /// single-query Query routes through it too.
  double CascadeDistance(const ts::TimeSeries& query,
                         const QueryContext& context, std::size_t candidate,
                         double kim_lb, double best_so_far,
                         ScratchArena& scratch, QueryStats* stats) const;

  const KnnEngine& index_;
  BatchOptions options_;
};

}  // namespace retrieval
}  // namespace sdtw

#endif  // SDTW_RETRIEVAL_BATCH_H_
