#include "retrieval/batch.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <optional>
#include <thread>
#include <utility>

#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace sdtw {
namespace retrieval {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Pointwise L1 distance on equal-length series; +inf otherwise.
double L1Distance(const ts::TimeSeries& a, const ts::TimeSeries& b) {
  if (a.size() != b.size()) return kInf;
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::abs(a[i] - b[i]);
  return sum;
}

// True Euclidean distance (sqrt of summed squared differences) on
// equal-length series; +inf otherwise.
double EuclideanDistance(const ts::TimeSeries& a, const ts::TimeSeries& b) {
  if (a.size() != b.size()) return kInf;
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

// LB_Kim is a max of absolute pointwise differences: a valid lower bound
// for absolute-cost DTW (the kFullDtw mode always uses it), the L1 norm,
// and the Euclidean norm — but NOT for squared-cost distances (|d| > d^2
// when |d| < 1), so it must stay off when the sDTW engine ranks by
// squared cost.
bool LbKimSound(const KnnOptions& opt, const core::Sdtw& engine) {
  return opt.distance != DistanceKind::kSdtw ||
         engine.options().dtw.cost == dtw::CostKind::kAbsolute;
}

// Strict weak order making the top-k selection deterministic under any
// worker completion order: primary ascending distance, ties by ascending
// index (what a sequential in-order scan keeps).
bool HitLess(const Hit& a, const Hit& b) {
  return a.distance < b.distance ||
         (a.distance == b.distance && a.index < b.index);
}

// Shared mutable state of one query while the batch is in flight, with
// its locking invariants stated as thread-safety-analysis capabilities
// (checked under -DSDTW_THREAD_SAFETY=ON):
//
//  * heap and stats are guarded by mu — all access goes through the
//    SDTW_EXCLUDES member functions below, which take the lock, or their
//    SDTW_REQUIRES(mu) locked bodies;
//  * best is additionally published as an atomic so the hot loop can read
//    the current k-th best without locking (a stale read is always >= the
//    true value, i.e. merely prunes less);
//  * the context is phase-1 state: written by exactly one worker (the one
//    that claimed query q off the phase-1 counter) and made visible to
//    every phase-2 worker by the join between the phases; read-only from
//    then on, so unguarded.
struct PerQueryState {
  /// Phase-1 derivative storage, used when the caller did not preset a
  /// context for this query; `context` points here in that case.
  QueryContext owned_context;  // lint:allow(unguarded: phase-1 state, join-published)
  /// The context every phase-2 worker reads: &owned_context, or the
  /// caller's preset (a cached derivation of the same query — bitwise
  /// identical by MakeQueryContext's purity). Written once, read-only
  /// while workers race.
  const QueryContext* context = nullptr;  // lint:allow(unguarded: phase-1 state, join-published)
  /// Upper bound of the final k-th best distance, monotonically
  /// non-increasing while workers race; kInf until the heap first fills.
  std::atomic<double> best{kInf};

  /// Offers a candidate hit to the top-k heap; keeps `best` equal to the
  /// heap root whenever the heap is full.
  void Offer(const Hit& hit, std::size_t k) SDTW_EXCLUDES(mu) {
    core::MutexLock lock(mu);
    OfferLocked(hit, k);
  }

  /// Folds a worker's chunk-local counters into the query's stats.
  void MergeStats(const QueryStats& local) SDTW_EXCLUDES(mu) {
    core::MutexLock lock(mu);
    stats.Merge(local);
  }

  /// Final collection (workers joined, but the analysis neither knows nor
  /// needs to: the uncontended lock is cheap): heap-sorts and surrenders
  /// the hit list, leaving the heap empty.
  std::vector<Hit> TakeSortedHits() SDTW_EXCLUDES(mu) {
    core::MutexLock lock(mu);
    std::sort_heap(heap.begin(), heap.end(), HitLess);
    return std::move(heap);
  }

  QueryStats StatsSnapshot() SDTW_EXCLUDES(mu) {
    core::MutexLock lock(mu);
    return stats;
  }

 private:
  void OfferLocked(const Hit& hit, std::size_t k) SDTW_REQUIRES(mu) {
    if (heap.size() < k) {
      heap.push_back(hit);
      std::push_heap(heap.begin(), heap.end(), HitLess);
    } else if (HitLess(hit, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), HitLess);
      heap.back() = hit;
      std::push_heap(heap.begin(), heap.end(), HitLess);
    }
    if (heap.size() == k) {
      best.store(heap.front().distance, std::memory_order_relaxed);
    }
  }

  core::Mutex mu;
  std::vector<Hit> heap SDTW_GUARDED_BY(mu);  // max-heap under HitLess
  QueryStats stats SDTW_GUARDED_BY(mu);
};

// Runs fn on `threads` workers and waits for all of them; threads == 1
// runs inline on the calling thread. An exception escaping fn on a
// spawned thread would hit std::terminate, so the first one is captured
// and rethrown on the calling thread after every worker joined — a
// faulting worker degrades to a throwing call, never a dead process, and
// the join still happens so no thread leaks.
template <typename Fn>
void RunOnWorkers(std::size_t threads, const Fn& fn) {
  if (threads <= 1) {
    fn();
    return;
  }
  core::Mutex mu;
  std::exception_ptr error;  // first worker exception; guarded by mu
  const auto run = [&fn, &mu, &error]() {
    try {
      fn();
    } catch (...) {
      core::MutexLock lock(mu);
      if (error == nullptr) error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(run);
  for (std::thread& t : pool) t.join();
  if (error != nullptr) std::rethrow_exception(error);
}

std::size_t ResolveThreads(std::size_t requested, std::size_t work_items) {
  std::size_t threads = requested != 0
                            ? requested
                            : std::max(1u, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, std::min(threads, work_items));
}

}  // namespace

BatchKnnEngine::BatchKnnEngine(const KnnEngine& index, BatchOptions options)
    : index_(index), options_(options) {}

std::size_t BatchKnnEngine::size() const { return index_.size(); }

QueryContext BatchKnnEngine::MakeQueryContext(
    const ts::TimeSeries& query) const {
  const KnnOptions& opt = index_.options_;
  QueryContext context;
  context.stats = dtw::MakeSeriesStats(query);
  if (opt.distance == DistanceKind::kSdtw) {
    context.features =
        sift::FeatureBlock(index_.engine_.ExtractFeatures(query), query);
  }
  return context;
}

double BatchKnnEngine::CascadeDistance(const ts::TimeSeries& query,
                                       const QueryContext& context,
                                       std::size_t candidate, double kim_lb,
                                       double best_so_far,
                                       ScratchArena& scratch,
                                       QueryStats* stats) const {
  const KnnOptions& opt = index_.options_;
  const core::Sdtw& engine = index_.engine_;
  const ts::TimeSeries& target = index_.series_[candidate];

  // Cascade stage 1: LB_Kim over cached summaries — genuinely O(1) per
  // candidate (the query summary is computed once per batch, the candidate
  // summary once at Index() time; the chunk scheduler evaluates the bound
  // once per candidate and hands it in, shared between visit ordering and
  // this prune). Soundness per distance kind: see LbKimSound.
  if (opt.use_lb_kim && LbKimSound(opt, engine) &&
      std::isfinite(best_so_far)) {
    if (kim_lb > best_so_far) {
      if (stats != nullptr) ++stats->pruned_by_kim;
      return kInf;
    }
  }
  // Cascade stage 2: LB_Keogh in both directions — the query against the
  // candidate's full-span envelope, and the candidate against the
  // query's, both read from cached SeriesStats. Every warp path visits
  // each row i, aligning x_i to some value inside [min(y), max(y)], so
  // Σ_i cost(x_i, [min(y), max(y)]) bounds unconstrained DTW for either
  // cost and any lengths. An sDTW band only removes warp paths, so
  // sDTW >= DTW >= the bound: the stage is sound in both DTW modes, and
  // in kSdtw it runs before the expensive BuildBand. Each direction
  // accumulates with cumulative abandoning against the best-so-far: the
  // prune decision is the full pass's, but the O(n) bound computation
  // stops as soon as it is settled.
  if (opt.use_lb_keogh && std::isfinite(best_so_far) &&
      (opt.distance == DistanceKind::kFullDtw ||
       opt.distance == DistanceKind::kSdtw)) {
    const dtw::CostKind cost = opt.distance == DistanceKind::kSdtw
                                   ? engine.options().dtw.cost
                                   : dtw::CostKind::kAbsolute;
    bool abandoned = false;
    if (dtw::LbKeoghAbandoning(query, index_.stats_[candidate], best_so_far,
                               &abandoned, cost) > best_so_far ||
        dtw::LbKeoghAbandoning(target, context.stats, best_so_far,
                               &abandoned, cost) > best_so_far) {
      if (stats != nullptr) {
        ++stats->pruned_by_keogh;
        if (abandoned) ++stats->lb_keogh_abandoned;
      }
      return kInf;
    }
  }

  if (stats != nullptr) ++stats->dp_evaluations;
  const double abandon_above =
      opt.use_early_abandon ? best_so_far : dtw::kNoAbandon;
  double d = kInf;
  switch (opt.distance) {
    case DistanceKind::kEuclidean:
      return EuclideanDistance(query, target);
    case DistanceKind::kL1:
      return L1Distance(query, target);
    case DistanceKind::kFullDtw:
      d = dtw::DtwDistance(query, target, dtw::CostKind::kAbsolute,
                           scratch.dp(), abandon_above);
      break;
    case DistanceKind::kSdtw: {
      // Band pruning and best-so-far pruning compose: build the locally
      // relevant band in the worker's band scratch, then run the banded
      // DP in its rolling buffers, abandoning once a whole row exceeds
      // the current k-th best distance. Neither step allocates once the
      // worker's scratch is warm.
      if (stats != nullptr) ++stats->band_builds;
      const dtw::Band& band =
          engine.BuildBand(query, context.features, target,
                           index_.features_[candidate], scratch.band());
      d = dtw::DtwBandedDistance(query, target, band,
                                 engine.options().dtw.cost, scratch.dp(),
                                 abandon_above);
      break;
    }
  }
  if (stats == nullptr) return d;
  stats->dp_cells += scratch.dp().dp_cells();
  // +inf under a finite threshold means the DP was abandoned: move its
  // count from the completed DPs to the early-abandon prunes.
  if (!std::isfinite(d) && std::isfinite(abandon_above)) {
    ++stats->pruned_by_early_abandon;
    --stats->dp_evaluations;
  }
  return d;
}

std::vector<std::vector<Hit>> BatchKnnEngine::QueryBatch(
    std::span<const ts::TimeSeries> queries, std::size_t k,
    std::vector<QueryStats>* stats,
    std::span<const std::optional<std::size_t>> excludes) const {
  return QueryBatchImpl(queries, k, excludes, {}, stats, nullptr);
}

std::vector<std::vector<Hit>> BatchKnnEngine::QueryBatchWithContexts(
    std::span<const ts::TimeSeries> queries,
    std::span<const QueryContext* const> contexts, std::size_t k,
    std::vector<QueryStats>* stats) const {
  return QueryBatchImpl(queries, k, {}, contexts, stats, nullptr);
}

std::vector<std::vector<Hit>> BatchKnnEngine::QueryBatchImpl(
    std::span<const ts::TimeSeries> queries, std::size_t k,
    std::span<const std::optional<std::size_t>> excludes,
    std::span<const QueryContext* const> preset_contexts,
    std::vector<QueryStats>* stats,
    std::vector<QueryContext>* contexts_out) const {
  if (contexts_out != nullptr) contexts_out->clear();
  const std::size_t num_queries = queries.size();
  std::vector<std::vector<Hit>> results(num_queries);
  if (stats != nullptr) stats->assign(num_queries, QueryStats{});
  const std::size_t num_candidates = index_.size();
  if (num_queries == 0 || num_candidates == 0 || k == 0) return results;
  // The documented contract is excludes empty or batch-sized; a shorter
  // span keeps query→exclusion alignment for its prefix (excludes[q]
  // stays query q's exclusion) rather than silently changing meaning.
  assert(excludes.empty() || excludes.size() == num_queries);
  assert(preset_contexts.empty() || preset_contexts.size() == num_queries);
  // Preset contexts are borrowed from the caller and cannot be moved out.
  assert(preset_contexts.empty() || contexts_out == nullptr);

  // Per-query shared state; deque keeps the mutexes/atomics in place.
  std::deque<PerQueryState> states(num_queries);

  const std::size_t threads =
      options_.executor != nullptr
          ? std::max<std::size_t>(1, options_.executor->num_workers())
          : ResolveThreads(options_.num_threads, num_queries * num_candidates);

  // Worker supply for both phases: the caller's persistent executor (its
  // workers carry long-lived arenas reused across batches), or threads
  // spawned for this call with call-local arenas.
  const auto run_workers = [&](std::size_t spawn,
                               const std::function<void(ScratchArena&)>& fn) {
    if (options_.executor != nullptr) {
      options_.executor->Execute(fn);
      return;
    }
    RunOnWorkers(spawn, [&fn]() {
      ScratchArena arena;
      fn(arena);
    });
  };

  // Phase 1: per-query contexts, each computed exactly once (or adopted
  // from the caller's cache), spread over the workers.
  {
    std::atomic<std::size_t> next{0};
    run_workers(std::min(threads, num_queries), [&](ScratchArena&) {
      for (;;) {
        const std::size_t q = next.fetch_add(1, std::memory_order_relaxed);
        if (q >= num_queries) return;
        PerQueryState& state = states[q];
        if (q < preset_contexts.size() && preset_contexts[q] != nullptr) {
          state.context = preset_contexts[q];
        } else {
          state.owned_context = MakeQueryContext(queries[q]);
          state.context = &state.owned_context;
        }
      }
    });
  }

  // Chunking: the query×candidate grid is flattened into index-range
  // work units drained through one atomic counter. Without an explicit
  // chunk_size a query is split only when there are too few queries to
  // give every worker ~4 units; one worker has nothing to balance, so
  // each of its queries is one chunk.
  std::size_t chunks_per_query = 1;
  if (options_.chunk_size != 0) {
    chunks_per_query =
        (num_candidates + options_.chunk_size - 1) / options_.chunk_size;
  } else if (threads > 1) {
    const std::size_t units_wanted = threads * 4;
    if (num_queries < units_wanted) {
      chunks_per_query = std::min(
          (units_wanted + num_queries - 1) / num_queries, num_candidates);
    }
  }
  const std::size_t chunk =
      (num_candidates + chunks_per_query - 1) / chunks_per_query;
  const std::size_t total_units = num_queries * chunks_per_query;

  const VisitOrder visit_order = index_.options_.visit_order;
  // Whether the chunk scheduler needs LB_Kim at all: for the visit order,
  // or for the stage-1 prune (which CascadeDistance re-gates on the same
  // conditions). When neither consumes it, the schedule pass skips the
  // bound and the loop degenerates to the plain index-order scan.
  const bool need_kim =
      visit_order == VisitOrder::kLowerBound ||
      (index_.options_.use_lb_kim &&
       LbKimSound(index_.options_, index_.engine_));

  // Phase 2: drain the work units. Units are ordered query-major so
  // workers gang up on the same query first and its shared best-so-far
  // tightens as early as possible.
  std::atomic<std::size_t> next{0};
  run_workers(threads, [&](ScratchArena& scratch) {
    // Idempotent per-batch setup: a persistent executor arena keeps its
    // buffers (EnsureWidth never shrinks), a fresh one sizes them here.
    scratch.set_kernel(options_.kernel);
    scratch.SizeForTargets(index_.max_length());
    for (;;) {
      const std::size_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= total_units) return;
      const std::size_t q = t / chunks_per_query;
      const std::size_t begin = (t % chunks_per_query) * chunk;
      const std::size_t end = std::min(num_candidates, begin + chunk);
      PerQueryState& state = states[q];
      const bool has_exclude =
          q < excludes.size() && excludes[q].has_value();
      const std::size_t exclude = has_exclude ? *excludes[q] : 0;
      QueryStats local;  // merged under the query lock once per chunk
      // Schedule phase: the O(1) cached-stats LB_Kim of every candidate
      // in the chunk, then (by default) the chunk sorted ascending by
      // (bound, index) so likely-near candidates tighten the shared
      // best-so-far before the expensive tail runs. Pure scheduling: the
      // hit lists are identical under either order (see file comment),
      // only the prune counters move.
      auto& order = scratch.visit_order();
      order.clear();
      for (std::size_t i = begin; i < end; ++i) {
        if (has_exclude && exclude == i) continue;
        order.emplace_back(
            need_kim ? dtw::LbKim(state.context->stats, index_.stats_[i])
                     : 0.0,
            i);
      }
      if (visit_order == VisitOrder::kLowerBound) {
        std::sort(order.begin(), order.end());
      }
      // Cascade phase, in schedule order.
      for (const auto& [kim_lb, i] : order) {
        ++local.candidates;
        const double best_so_far =
            state.best.load(std::memory_order_relaxed);
        const double d = CascadeDistance(queries[q], *state.context, i,
                                         kim_lb, best_so_far, scratch,
                                         &local);
        if (!std::isfinite(d)) continue;
        const Hit hit{i, d, index_.series_[i].label()};
        // A hit can only displace the incumbent k-th best if it is
        // strictly smaller under (distance, index); best_so_far is an
        // upper bound of that threshold, so this lock-free reject is
        // conservative and exact results are preserved.
        if (d > best_so_far) continue;
        state.Offer(hit, k);
      }
      state.MergeStats(local);
    }
  });

  if (contexts_out != nullptr) contexts_out->resize(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    results[q] = states[q].TakeSortedHits();
    if (stats != nullptr) (*stats)[q] = states[q].StatsSnapshot();
    if (contexts_out != nullptr) {
      (*contexts_out)[q] = std::move(states[q].owned_context);
    }
  }
  return results;
}

std::vector<std::vector<AlignedHit>> BatchKnnEngine::QueryBatchWithAlignments(
    std::span<const ts::TimeSeries> queries, std::size_t k,
    std::vector<QueryStats>* stats,
    std::span<const std::optional<std::size_t>> excludes) const {
  // Distance-only scan first, with the cascade pruning at full strength;
  // alignments are then recovered for the final k winners only.
  std::vector<QueryContext> contexts;
  const std::vector<std::vector<Hit>> hits =
      QueryBatchImpl(queries, k, excludes, {}, stats, &contexts);

  std::vector<std::vector<AlignedHit>> results(hits.size());
  std::vector<std::pair<std::size_t, std::size_t>> work;  // (query, rank)
  for (std::size_t q = 0; q < hits.size(); ++q) {
    results[q].resize(hits[q].size());
    for (std::size_t r = 0; r < hits[q].size(); ++r) {
      results[q][r].hit = hits[q][r];
      work.emplace_back(q, r);
    }
  }
  if (work.empty()) return results;

  const KnnOptions& opt = index_.options_;
  // The indexed engine is distance-only (want_path stripped at
  // construction); path recovery needs its own path-mode twin. Identical
  // pipeline options mean identical features, bands, and DP values — only
  // the backtrack is added.
  std::optional<core::Sdtw> path_engine;
  if (opt.distance == DistanceKind::kSdtw) {
    core::SdtwOptions sdtw_options = opt.sdtw;
    sdtw_options.dtw.want_path = true;
    if (options_.kernel != nullptr) sdtw_options.dtw.kernel = options_.kernel;
    path_engine.emplace(sdtw_options);
  }

  const std::size_t threads =
      ResolveThreads(options_.num_threads, work.size());
  std::atomic<std::size_t> next{0};
  RunOnWorkers(threads, [&]() {
    for (;;) {
      const std::size_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= work.size()) return;
      const auto [q, r] = work[t];
      AlignedHit& aligned = results[q][r];
      const std::size_t candidate = aligned.hit.index;
      const ts::TimeSeries& target = index_.series_[candidate];
      switch (opt.distance) {
        case DistanceKind::kEuclidean:
        case DistanceKind::kL1: {
          // Pointwise distances align i to i; a finite hit implies equal
          // lengths.
          aligned.path.reserve(queries[q].size());
          for (std::size_t i = 0; i < queries[q].size(); ++i) {
            aligned.path.emplace_back(i, i);
          }
          break;
        }
        case DistanceKind::kFullDtw: {
          // The full grid as a band, pruned at the known distance like
          // the kSdtw re-run below.
          dtw::DtwOptions dtw_options;
          dtw_options.cost = dtw::CostKind::kAbsolute;
          dtw_options.want_path = true;
          dtw_options.kernel = options_.kernel;
          aligned.path =
              dtw::DtwBanded(queries[q], target,
                             dtw::Band::Full(queries[q].size(), target.size()),
                             dtw_options, aligned.hit.distance)
                  .path;
          break;
        }
        case DistanceKind::kSdtw: {
          // Abandon threshold pinned to the known distance: every row
          // minimum is <= the final distance, so the re-run can never
          // abandon. It prunes every cell above the distance, which keeps
          // the value of each cell on or below it, so it backtracks the
          // same path.
          core::SdtwResult res = path_engine->Compare(
              queries[q], contexts[q].features, target,
              index_.features_[candidate], aligned.hit.distance);
          aligned.path = std::move(res.path);
          break;
        }
      }
    }
  });
  return results;
}

double BatchKnnEngine::LeaveOneOutAccuracy(std::size_t k,
                                           QueryStats* aggregate) const {
  if (aggregate != nullptr) *aggregate = QueryStats{};
  const std::size_t n = index_.size();
  if (n == 0) return 0.0;
  std::vector<std::optional<std::size_t>> excludes(n);
  for (std::size_t i = 0; i < n; ++i) excludes[i] = i;
  std::vector<QueryStats> stats;
  const std::vector<std::vector<Hit>> hits = QueryBatch(
      index_.series_, k, aggregate != nullptr ? &stats : nullptr, excludes);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // An unlabelled series is never scored correct, so a -1 prediction
    // (no hits, or only unlabelled neighbours) cannot match it.
    const ts::TimeSeries& series = index_.series_[i];
    if (series.has_label() && VoteLabel(hits[i]) == series.label()) {
      ++correct;
    }
    if (aggregate != nullptr) aggregate->Merge(stats[i]);
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

}  // namespace retrieval
}  // namespace sdtw
