#ifndef SDTW_RETRIEVAL_SCRATCH_H_
#define SDTW_RETRIEVAL_SCRATCH_H_

/// \file scratch.h
/// \brief Per-query context and per-worker scratch for batched retrieval.
///
/// The batch engine separates the two kinds of state a multi-query cascade
/// needs:
///  * QueryContext — immutable per-query derivatives (lower-bound summary,
///    salient features), computed exactly once per query up front and
///    shared read-only by every worker (paper §3.4: extract once, reuse for
///    every comparison);
///  * ScratchArena — mutable per-worker buffers: the rolling DTW rows,
///    sized once to the widest requirement across the whole index (via
///    dtw::MaxDpRowWidth / the maximum candidate length), and in sDTW mode
///    the core::BandScratch every band is built into. Both keep their
///    storage across candidates, so once warm the per-candidate cascade
///    (bounds, band build, banded DP) never allocates.

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "align/match_kernel.h"
#include "core/sdtw.h"
#include "dtw/band.h"
#include "dtw/dtw.h"
#include "dtw/lower_bounds.h"
#include "sift/feature_block.h"
#include "ts/time_series.h"

namespace sdtw {
namespace retrieval {

/// \brief Read-only per-query state, computed once per query per batch.
struct QueryContext {
  /// Summary (first/last/min/max) of the query: the LB_Kim inputs, and
  /// the query's full-span envelope for the reverse LB_Keogh test.
  dtw::SeriesStats stats;
  /// Salient features of the query as one block (sDTW distance only).
  sift::FeatureBlock features;
};

/// \brief Mutable per-worker scratch reused across every candidate a
/// worker touches.
///
/// Ownership is the capability: an arena is confined to the single worker
/// thread that created it — it is never shared, so it carries no lock and
/// no SDTW_GUARDED_BY annotations (there is nothing for the thread-safety
/// analysis to check; handing one arena to two racing workers is a
/// use-after-transfer bug, not a missing-lock bug). The batch engine
/// constructs one arena inside each worker's thread function, which is
/// what makes its hot loop allocation- and lock-free.
class ScratchArena {
 public:
  ScratchArena() = default;

  /// Sizes the rolling DP buffers for an index whose longest series has
  /// `max_target_length` samples: any full-grid or banded rolling kernel
  /// against such a candidate needs at most max_target_length + 1 doubles
  /// per row. Call once before the hot loop; idempotent, never shrinks.
  /// (The dtw scratch kernels also self-size on demand, so skipping this
  /// is safe — pre-sizing just keeps reallocation out of the hot loop.)
  void SizeForTargets(std::size_t max_target_length);

  /// The rolling-row DP buffers, handed to the dtw scratch kernels.
  dtw::DtwScratch& dp() { return dp_; }
  std::size_t dp_width() const { return dp_.width(); }

  /// Pins the kernel variant every DP and every band build of this worker
  /// uses (nullptr = process-wide active variant): the row kernel goes to
  /// the dtw scratch, the matching kernel of the same variant to the band
  /// scratch, so the cascade picks both up without further plumbing.
  void set_kernel(const dtw::RowKernelOps* ops) {
    dp_.set_kernel(ops);
    band_.match.kernel =
        ops != nullptr ? align::FindMatchKernelOps(ops->variant) : nullptr;
  }

  /// Storage every sDTW band of this worker is built into
  /// (core::Sdtw::BuildBand's scratch overload). It grows to the largest
  /// pair the worker has seen and then stops allocating; this is what
  /// keeps the sDTW cascade allocation-free, since a band built from
  /// fresh buffers allocates its pair, interval and band storage anew.
  core::BandScratch& band() { return band_; }

  /// Reusable (LB_Kim, candidate index) schedule of the chunk currently
  /// being scanned — cleared per chunk, capacity retained across chunks so
  /// LB-ordered visiting allocates only on the first chunk a worker sees.
  std::vector<std::pair<double, std::size_t>>& visit_order() {
    return visit_order_;
  }

 private:
  dtw::DtwScratch dp_;
  core::BandScratch band_;
  std::vector<std::pair<double, std::size_t>> visit_order_;
};

/// \brief Supplier of the worker threads — and the per-worker arenas they
/// exclusively own — that a batch execution runs on.
///
/// By default BatchKnnEngine spawns its workers per call and each worker
/// constructs a fresh ScratchArena, which is fine for one-shot batches but
/// wasteful for a long-lived service dispatching micro-batches at high
/// rate: every batch would re-allocate every worker's DP rows. A
/// persistent implementation (retrieval::WorkerPool in service.h) keeps
/// the threads and their arenas alive across batches, so the hot loop of
/// batch N+1 reuses the buffers batch N sized.
///
/// Contract: Execute runs `fn(arena)` exactly once on every worker, each
/// call receiving the arena that worker (and only that worker) owns, and
/// returns only after all calls completed. Executions must not overlap —
/// one Execute at a time per executor. Results never depend on which
/// executor ran a batch: the engine's determinism guarantee (batch.h) is
/// scheduling-independent.
class BatchExecutor {
 public:
  virtual ~BatchExecutor() = default;
  /// Number of workers Execute fans out to (>= 1).
  virtual std::size_t num_workers() const = 0;
  /// Runs fn once per worker with that worker's arena; blocks until all
  /// workers finished.
  virtual void Execute(const std::function<void(ScratchArena&)>& fn) = 0;
};

}  // namespace retrieval
}  // namespace sdtw

#endif  // SDTW_RETRIEVAL_SCRATCH_H_
