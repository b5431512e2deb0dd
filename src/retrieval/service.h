#ifndef SDTW_RETRIEVAL_SERVICE_H_
#define SDTW_RETRIEVAL_SERVICE_H_

/// \file service.h
/// \brief Concurrent retrieval front-end: admission control, deadline-aware
/// micro-batching, fault isolation, derivative caching, observability.
///
/// BatchKnnEngine amortizes per-query overheads *within* one batch, but a
/// serving workload does not arrive as batches — it arrives as a stream of
/// single queries from many client threads, some of which will time out,
/// and some of which will hit a failure. QueryService closes both gaps:
///
///  * **Admission.** Submit enqueues a request into a bounded queue; at
///    capacity, AdmissionPolicy::kBlock parks the submitter — for at most
///    ServiceOptions::park_timeout — until space frees, kReject fails
///    fast. Shutdown stops admitting immediately but drains everything
///    already admitted before returning, so no accepted query is ever
///    left unresolved.
///  * **Deadlines + EDF.** Every Submit can carry RequestOptions: an
///    absolute completion deadline and a priority. The queue is kept in
///    earliest-deadline-first order (deadline, then priority, then
///    arrival), which degrades to exact FIFO when nobody sets either —
///    and clusters the most urgent requests at the front, so the
///    dispatcher sheds already-expired requests by popping the head, not
///    by scanning. A shed request's future completes with
///    StatusCode::kDeadlineExceeded before any DP evaluation runs for it.
///    Each batch takes the queue head in EDF order. Under a positive
///    max_delay, a queued deadline closer than max_delay cuts the batch
///    immediately instead of waiting out the age trigger.
///  * **Micro-batching.** A dispatcher thread runs one batch at a time.
///    By default (max_delay 0) it cuts the next batch the moment it is
///    free: everything queued, up to `max_batch` requests. Requests that
///    arrive during a scan therefore leave together as the next batch,
///    while a request that finds the dispatcher idle starts its scan at
///    once. A positive max_delay instead holds a short batch until the
///    oldest queued request has waited that long, the batch reaches
///    `max_batch`, or a queued deadline is imminent. Duplicate queries
///    inside one batch (bitwise-equal sample values) are coalesced into a
///    single scan at the largest requested k and the result is truncated
///    per request.
///  * **Fault isolation.** Results are core::StatusOr<Hits>: a worker
///    exception fails only the affected requests, never the process. A
///    poisoned batch is isolated by re-running its requests individually,
///    each with a bounded retry budget under decorrelated-jitter backoff;
///    a repeat offender is failed permanently with
///    StatusCode::kWorkerFault while every other request in the batch
///    completes with hits bitwise identical to a fault-free run. A
///    watchdog thread detects batches stuck in execution longer than
///    ServiceOptions::watchdog_stall and counts them (metrics().
///    watchdog_stalls) for the operator.
///  * **Fault injection.** The failure paths above are deterministically
///    testable through core::FaultInjector sites (kFaultSite* below):
///    worker execution, derivative-cache fill, queue admission, and a
///    worker stall used to exercise the watchdog.
///  * **Worker reuse.** Batches execute on a persistent WorkerPool whose
///    threads — and their ScratchArenas, above all the rolling DP rows —
///    live across batches, so steady-state scans allocate nothing.
///  * **Derivative caching.** Per-query derivatives (SeriesStats, SIFT
///    features) are looked up in a content-hash-keyed LRU
///    (query_cache.h) and only derived on miss. A faulted fill degrades
///    gracefully: nothing is inserted (the cache can never serve a
///    context from a faulted fill) and the engine derives internally.
///  * **Observability.** metrics() reports p50/p95/p99 submit→complete
///    latency over successful requests, throughput counters, coalescing
///    and cache hit rates, and the failure-path counters
///    (shed / worker_faults / retries / park_timeouts / watchdog_stalls).
///
/// Determinism: a query's hit list — whenever its request completes OK —
/// is bitwise identical to a direct BatchKnnEngine::QueryBatch of that
/// query alone, independent of batch composition, trigger, cache state,
/// submitter interleaving, injected faults, and retry count. Failure
/// handling only decides *whether* a request completes, never what a
/// completed request returns.
///
/// Thread-safety: all shared state is guarded by annotated core::Mutex
/// (checked under -DSDTW_THREAD_SAFETY=ON); condition waits go through
/// core::CondVar predicate loops. Submit is safe from any number of
/// threads concurrently with Shutdown.

#include <chrono>
#include <cstddef>
#include <deque>
#include <exception>
#include <future>
#include <optional>
#include <random>
#include <string_view>
#include <thread>
#include <vector>

#include "core/fault_injector.h"
#include "core/mutex.h"
#include "core/status.h"
#include "core/thread_annotations.h"
#include "retrieval/batch.h"
#include "retrieval/knn.h"
#include "retrieval/latency.h"
#include "retrieval/query_cache.h"
#include "retrieval/scratch.h"
#include "ts/time_series.h"

namespace sdtw {
namespace retrieval {

/// core::FaultInjector sites the service consults. Arm programmatically
/// (core::ScopedFault in tests) or via SDTW_FAULT=site:rate:seed.
/// A drawn failure at:
///  * kFaultSiteWorker throws inside a WorkerPool worker before it runs
///    its job — the "worker crashed mid-batch" path;
///  * kFaultSiteWorkerStall makes a worker sleep ~25ms before its job —
///    the "stalled worker" path the watchdog exists to catch;
///  * kFaultSiteCacheFill skips one derivative-cache fill — the request
///    still completes (the engine derives internally) and the cache is
///    guaranteed to never hold a context from a faulted fill;
///  * kFaultSiteAdmission refuses one admission (Submit returns nullopt,
///    counted in ServiceMetrics::rejected).
inline constexpr std::string_view kFaultSiteWorker = "retrieval.worker";
inline constexpr std::string_view kFaultSiteWorkerStall =
    "retrieval.worker_stall";
inline constexpr std::string_view kFaultSiteCacheFill =
    "retrieval.cache_fill";
inline constexpr std::string_view kFaultSiteAdmission =
    "retrieval.admission";

/// \brief Persistent worker threads implementing BatchExecutor.
///
/// Threads are spawned once at construction; each constructs its own
/// ScratchArena inside its thread function (single-owner, per scratch.h)
/// and keeps it for the pool's lifetime, so consecutive Execute calls
/// reuse fully sized DP buffers. Execute broadcasts one job per the
/// BatchExecutor contract: every worker runs it exactly once, the call
/// returns when all finished. One Execute at a time (the contract); the
/// service's single dispatcher thread guarantees that by construction.
///
/// Fault tolerance: an exception escaping a worker's job (including one
/// injected at kFaultSiteWorker) is captured and rethrown by Execute on
/// the calling thread after every worker finished — a faulting job can
/// never take down a worker thread or the process, and the pool is fully
/// reusable for the next Execute.
class WorkerPool final : public BatchExecutor {
 public:
  /// `num_workers` 0 = hardware concurrency (min 1).
  explicit WorkerPool(std::size_t num_workers = 0);
  /// Joins the workers. Must not race an in-flight Execute.
  ~WorkerPool() override;

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t num_workers() const override { return threads_.size(); }
  /// Runs fn once per worker; rethrows the first exception any worker's
  /// run raised (after all workers finished, so the pool stays
  /// consistent).
  void Execute(const std::function<void(ScratchArena&)>& fn) override
      SDTW_EXCLUDES(mu_);

 private:
  void WorkerMain() SDTW_EXCLUDES(mu_);

  core::Mutex mu_;
  core::CondVar work_cv_;  ///< Signals a new generation (or stop).
  core::CondVar done_cv_;  ///< Signals running_ reaching zero.
  /// Broadcast job of the current generation; null between Executes.
  /// Borrowed from the Execute caller, valid while running_ > 0.
  const std::function<void(ScratchArena&)>* job_ SDTW_GUARDED_BY(mu_) =
      nullptr;
  /// Bumped once per Execute; a worker runs the job iff it has not seen
  /// the current generation yet, so no worker can run one job twice.
  std::uint64_t generation_ SDTW_GUARDED_BY(mu_) = 0;
  std::size_t running_ SDTW_GUARDED_BY(mu_) = 0;
  bool stop_ SDTW_GUARDED_BY(mu_) = false;
  /// First exception a worker's job raised in the current generation;
  /// cleared by Execute before the broadcast, rethrown after the join.
  std::exception_ptr error_ SDTW_GUARDED_BY(mu_);

  /// Written by the constructor before any worker can observe it, read
  /// again only by the joining destructor.
  std::vector<std::thread> threads_;  // lint:allow(unguarded: ctor-set, dtor-joined)
};

/// \brief What happens to a Submit that finds the queue at capacity.
enum class AdmissionPolicy {
  /// Park the submitting thread until space frees (backpressure), for at
  /// most ServiceOptions::park_timeout.
  kBlock,
  /// Fail the submit immediately (load shedding); Submit returns nullopt.
  kReject,
};

/// \brief Per-request service-level options for QueryService::Submit.
struct RequestOptions {
  /// Absolute completion deadline; time_point::max() (the default) means
  /// none. A request still queued when its deadline passes is shed: its
  /// future completes with StatusCode::kDeadlineExceeded and no DP
  /// evaluation ever runs for it. A deadline also promotes the request
  /// in the admission queue (EDF); under a positive max_delay it cuts the
  /// batch early when closer than max_delay.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Tie-break among equal deadlines (and among no-deadline requests):
  /// higher priority is served earlier. Equal (deadline, priority) keeps
  /// arrival order, so the all-default queue is exact FIFO.
  int priority = 0;

  /// Convenience: a deadline `timeout` from now.
  static RequestOptions WithTimeout(std::chrono::microseconds timeout,
                                    int priority = 0) {
    return RequestOptions{std::chrono::steady_clock::now() + timeout,
                          priority};
  }
};

/// \brief QueryService configuration.
struct ServiceOptions {
  /// Most requests one batch takes from the queue head.
  std::size_t max_batch = 32;
  /// 0 (the default) is work-conserving: the dispatcher cuts a batch the
  /// moment it is free, so batches form from the requests that queued up
  /// during the previous scan. A positive value holds a batch short of
  /// max_batch, even a lone request, until its oldest request has waited
  /// this long or the head's deadline is closer than max_delay (the
  /// imminent-deadline early cut, which only a positive value has).
  /// Tests use a long max_delay to park requests in the queue, which
  /// composes batches deterministically.
  std::chrono::microseconds max_delay{0};
  /// Bounded admission queue; at capacity `admission` applies.
  std::size_t queue_capacity = 1024;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Longest a kBlock submitter parks at capacity before the submit
  /// fails anyway (counted in park_timeouts) — bounded backpressure, so
  /// a stalled dispatcher can never wedge every client thread forever.
  std::chrono::microseconds park_timeout{30'000'000};
  /// Persistent pool width; 0 = hardware concurrency.
  std::size_t num_workers = 0;
  /// Entries in the derivative LRU; 0 disables caching.
  std::size_t cache_capacity = 256;
  /// Samples in the latency percentile window.
  std::size_t latency_window = 4096;
  /// After a worker fault poisons a batch, its requests are re-run
  /// individually; each gets 1 + max_retries attempts before it is
  /// failed permanently with kWorkerFault.
  std::size_t max_retries = 2;
  /// Decorrelated-jitter backoff between those attempts:
  /// sleep ~ U(retry_base, 3 * previous), capped at retry_cap. Timing
  /// only — results never depend on the backoff draw.
  std::chrono::microseconds retry_base{100};
  std::chrono::microseconds retry_cap{5000};
  /// Watchdog scan period (0 disables the watchdog thread) and the
  /// in-flight batch age past which a batch counts as stalled.
  std::chrono::microseconds watchdog_interval{100'000};
  std::chrono::microseconds watchdog_stall{1'000'000};
  /// Engine knobs for the scans; `executor` and `num_threads` are
  /// overridden by the service (the pool supplies the workers).
  BatchOptions batch;
};

/// \brief Service counters + latency snapshot, via QueryService::metrics().
struct ServiceMetrics {
  std::size_t submitted = 0;  ///< Accepted into the queue.
  std::size_t rejected = 0;   ///< Refused (capacity/kReject, park timeout,
                              ///< injected admission fault, or closed).
  /// Futures resolved, successfully or not:
  /// completed == ok + failed + shed.
  std::size_t completed = 0;
  std::size_t ok = 0;          ///< Resolved with hits.
  std::size_t failed = 0;      ///< Resolved with kWorkerFault/kUnknown.
  std::size_t batches = 0;     ///< Micro-batches executed.
  /// Requests answered by another identical request's scan in the same
  /// batch (in-batch coalescing).
  std::size_t coalesced = 0;
  /// Requests shed from the queue head because their deadline had passed
  /// (no DP evaluation ran); each resolved with kDeadlineExceeded, the
  /// only path that resolves a future with that code.
  std::size_t shed = 0;
  /// Faulted executions observed: poisoned whole batches plus faulted
  /// individual re-runs.
  std::size_t worker_faults = 0;
  /// Individual re-run attempts performed while isolating poisoned
  /// batches (successful and not).
  std::size_t retries = 0;
  /// kBlock submits that gave up after parking park_timeout.
  std::size_t park_timeouts = 0;
  /// Batches the watchdog saw stuck in execution past watchdog_stall
  /// (each in-flight batch is counted at most once).
  std::size_t watchdog_stalls = 0;
  /// Submit→complete of successful requests only, microseconds — failed
  /// futures resolve on failure paths whose timing says nothing about
  /// serving latency.
  LatencySnapshot latency;
  QueryDerivativeCache::Counters cache;  ///< Derivative LRU counters.
};

/// \brief Concurrent micro-batching retrieval service over one index.
///
/// Holds a non-owning view of the KnnEngine index, which must outlive the
/// service and not be re-indexed while it runs.
class QueryService {
 public:
  using Hits = std::vector<Hit>;
  /// What a request's future delivers: the hits, or why there are none
  /// (kDeadlineExceeded for a shed request, kWorkerFault for a repeat
  /// offender that exhausted its retries).
  using Result = core::StatusOr<Hits>;

  /// Rejects invalid options (see ValidateOptions): the service
  /// constructs but refuses every Submit, and init_status() carries the
  /// error.
  explicit QueryService(const KnnEngine& index, ServiceOptions options = {});
  /// Shutdown() then joins everything.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// kInvalidArgument with a precise message when `options` cannot run a
  /// service (queue_capacity == 0 or max_batch == 0); OK otherwise.
  static core::Status ValidateOptions(const ServiceOptions& options);
  /// Why this service is (or is not) serviceable; constructor-set.
  const core::Status& init_status() const { return init_status_; }

  /// Submits one query for its k nearest neighbours with per-request
  /// deadline/priority options. Returns the future delivering the
  /// Result, or nullopt when the request was not admitted (queue at
  /// capacity under kReject, park timeout under kBlock, injected
  /// admission fault, invalid service options, or service shut down).
  /// Safe from any number of threads.
  std::optional<std::future<Result>> Submit(ts::TimeSeries query,
                                            std::size_t k,
                                            RequestOptions request = {})
      SDTW_EXCLUDES(mu_);

  /// Submit-and-wait convenience; kUnavailable when not admitted.
  Result Query(const ts::TimeSeries& query, std::size_t k,
               RequestOptions request = {});

  /// Stops admission, drains every already-admitted request (their
  /// futures all resolve — with hits, or with the failure status),
  /// then stops the dispatcher, watchdog and workers. Idempotent;
  /// concurrent Submits fail cleanly with nullopt.
  void Shutdown() SDTW_EXCLUDES(mu_);

  ServiceMetrics metrics() const SDTW_EXCLUDES(mu_);
  const ServiceOptions& options() const { return options_; }

 private:
  struct Request {
    ts::TimeSeries query;
    std::size_t k = 0;
    std::chrono::steady_clock::time_point submit_time;
    std::chrono::steady_clock::time_point deadline;
    int priority = 0;
    /// Admission order; the final EDF tie-break, and what makes the
    /// default-options queue exact FIFO.
    std::uint64_t seq = 0;
    std::promise<Result> promise;
  };

  void DispatcherMain();
  void WatchdogMain() SDTW_EXCLUDES(mu_);
  /// Blocks until a batch is due (size, age or deadline trigger), sheds
  /// expired requests from the queue head, and pops the batch; empty
  /// return = closed and fully drained (dispatcher exits).
  std::vector<Request> NextBatch() SDTW_EXCLUDES(mu_);
  /// Coalesce → cache → scan (isolating faults) → truncate → fulfil.
  /// Runs without mu_ except for counter updates.
  void ExecuteBatch(std::vector<Request> batch);
  /// One group's scan after its batch was poisoned: 1 + max_retries
  /// individual attempts under decorrelated-jitter backoff.
  core::StatusOr<Hits> RunGroupIsolated(const ts::TimeSeries& rep,
                                        const QueryContext* context,
                                        std::size_t kmax);

  const ServiceOptions options_;
  const core::Status init_status_;  ///< ValidateOptions(options_).
  /// The four collaborators below are deliberately outside mu_: pool_,
  /// cache_ and latency_ each own their own core::Mutex (internally
  /// synchronized), and engine_ is configured once in the constructor and
  /// then only read by the single dispatcher thread.
  WorkerPool pool_;          // lint:allow(unguarded: internally synchronized)
  BatchKnnEngine engine_;    // lint:allow(unguarded: ctor-set, dispatcher-only)
  QueryDerivativeCache cache_;    // lint:allow(unguarded: internally synchronized)
  LatencyRecorder latency_;  // lint:allow(unguarded: internally synchronized)
  /// Backoff jitter source; fixed seed — backoff affects timing only,
  /// never results. Dispatcher-thread-only.
  std::mt19937_64 backoff_rng_{0x5d7bac0ffULL};  // lint:allow(unguarded: dispatcher-thread-only)

  mutable core::Mutex mu_;
  core::CondVar queue_cv_;  ///< Work available / closed.
  core::CondVar space_cv_;  ///< Queue space freed / closed.
  core::CondVar watchdog_cv_;  ///< Wakes the watchdog early on shutdown.
  /// Admission queue in EDF order: (deadline, -priority, seq) ascending.
  /// Expired requests therefore cluster at the front, which is what lets
  /// the dispatcher shed them without scanning.
  std::deque<Request> queue_ SDTW_GUARDED_BY(mu_);
  bool closed_ SDTW_GUARDED_BY(mu_) = false;
  /// Set by Shutdown after the dispatcher drained (in-flight batches must
  /// stay watched until then).
  bool watchdog_stop_ SDTW_GUARDED_BY(mu_) = false;
  std::uint64_t next_seq_ SDTW_GUARDED_BY(mu_) = 0;
  std::size_t submitted_ SDTW_GUARDED_BY(mu_) = 0;
  std::size_t rejected_ SDTW_GUARDED_BY(mu_) = 0;
  std::size_t completed_ SDTW_GUARDED_BY(mu_) = 0;
  std::size_t ok_ SDTW_GUARDED_BY(mu_) = 0;
  std::size_t failed_ SDTW_GUARDED_BY(mu_) = 0;
  std::size_t batches_ SDTW_GUARDED_BY(mu_) = 0;
  std::size_t coalesced_ SDTW_GUARDED_BY(mu_) = 0;
  std::size_t shed_ SDTW_GUARDED_BY(mu_) = 0;
  std::size_t worker_faults_ SDTW_GUARDED_BY(mu_) = 0;
  std::size_t retries_ SDTW_GUARDED_BY(mu_) = 0;
  std::size_t park_timeouts_ SDTW_GUARDED_BY(mu_) = 0;
  std::size_t watchdog_stalls_ SDTW_GUARDED_BY(mu_) = 0;
  /// Watchdog view of the in-flight batch: id 0 = none executing.
  std::uint64_t executing_batch_ SDTW_GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point executing_since_
      SDTW_GUARDED_BY(mu_);
  std::uint64_t last_stalled_batch_ SDTW_GUARDED_BY(mu_) = 0;

  /// Started last in the constructor, joined by Shutdown; never touched
  /// in between.
  std::thread dispatcher_;  // lint:allow(unguarded: ctor-set, Shutdown-joined)
  std::thread watchdog_;    // lint:allow(unguarded: ctor-set, Shutdown-joined)
};

}  // namespace retrieval
}  // namespace sdtw

#endif  // SDTW_RETRIEVAL_SERVICE_H_
