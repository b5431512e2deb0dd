#include "retrieval/service.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>

#include "retrieval/query_cache.h"

namespace sdtw {
namespace retrieval {

namespace {

using Clock = std::chrono::steady_clock;

constexpr auto kNoDeadline = Clock::time_point::max();

BatchOptions WithExecutor(BatchOptions options, BatchExecutor* executor) {
  options.executor = executor;
  return options;
}

/// Bitwise content identity, matching query_cache.h's ContentHash /
/// lookup semantics (memcmp: NaN payloads equal-by-bits match, -0 != +0).
bool BitwiseEqual(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// One engine scan with failures as values instead of exceptions, for the
/// fault isolation below: anything thrown during the scan — a worker fault
/// on the service's pool (e.g. one injected at the retrieval.worker site)
/// — comes back as StatusCode::kWorkerFault (kUnknown for a
/// non-std::exception throw). The engine is stateless per call, so a
/// failed scan leaves it fully usable; on ok() the hits are exactly
/// QueryBatchWithContexts'.
core::StatusOr<std::vector<std::vector<Hit>>> TryQueryBatch(
    const BatchKnnEngine& engine, std::span<const ts::TimeSeries> queries,
    std::span<const QueryContext* const> contexts, std::size_t k) {
  try {
    return engine.QueryBatchWithContexts(queries, contexts, k);
  } catch (const std::exception& e) {
    return core::Status(core::StatusCode::kWorkerFault, e.what());
  } catch (...) {
    return core::Status(core::StatusCode::kUnknown,
                        "non-exception thrown during batch scan");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// WorkerPool

WorkerPool::WorkerPool(std::size_t num_workers) {
  std::size_t n = num_workers;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this]() { WorkerMain(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    core::MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::Execute(const std::function<void(ScratchArena&)>& fn) {
  std::exception_ptr error;
  {
    core::UniqueLock lock(mu_);
    job_ = &fn;
    error_ = nullptr;
    running_ = threads_.size();
    ++generation_;
    work_cv_.NotifyAll();
    while (running_ > 0) done_cv_.Wait(lock);
    job_ = nullptr;
    error = std::exchange(error_, nullptr);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void WorkerPool::WorkerMain() {
  // The arena is constructed on — and confined to — this worker thread
  // (scratch.h ownership model); it persists across Execute calls, which
  // is the whole point of the pool.
  ScratchArena arena;
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(ScratchArena&)>* job = nullptr;
    {
      core::UniqueLock lock(mu_);
      while (!stop_ && generation_ == seen) work_cv_.Wait(lock);
      if (generation_ == seen) return;  // stopped with no unseen job
      seen = generation_;
      job = job_;
    }
    // An exception out of the job (organic, or injected at the worker
    // site) is captured for Execute to rethrow after every worker
    // finished — a faulting job can never kill a worker thread, and the
    // pool stays fully reusable for the next Execute.
    try {
      core::FaultInjector& faults = core::FaultInjector::Global();
      if (faults.armed()) {
        if (faults.ShouldFail(kFaultSiteWorkerStall)) {
          // Long enough for a watchdog configured with a small
          // watchdog_stall to observe the batch as stalled; short enough
          // to keep fault-matrix test runs quick.
          std::this_thread::sleep_for(std::chrono::milliseconds(25));
        }
        if (faults.ShouldFail(kFaultSiteWorker)) {
          throw core::InjectedFault("injected fault at retrieval.worker");
        }
      }
      (*job)(arena);
    } catch (...) {
      core::MutexLock lock(mu_);
      if (error_ == nullptr) error_ = std::current_exception();
    }
    {
      core::MutexLock lock(mu_);
      if (--running_ == 0) done_cv_.NotifyAll();
    }
  }
}

// ---------------------------------------------------------------------------
// QueryService

QueryService::QueryService(const KnnEngine& index, ServiceOptions options)
    : options_(std::move(options)),
      init_status_(ValidateOptions(options_)),
      pool_(options_.num_workers),
      engine_(index, WithExecutor(options_.batch, &pool_)),
      cache_(options_.cache_capacity),
      latency_(options_.latency_window),
      dispatcher_([this]() { DispatcherMain(); }) {
  if (options_.watchdog_interval.count() > 0) {
    watchdog_ = std::thread([this]() { WatchdogMain(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

core::Status QueryService::ValidateOptions(const ServiceOptions& options) {
  if (options.queue_capacity == 0) {
    return core::Status(
        core::StatusCode::kInvalidArgument,
        "ServiceOptions::queue_capacity must be >= 1 (a zero-capacity "
        "admission queue can never admit a request)");
  }
  if (options.max_batch == 0) {
    return core::Status(
        core::StatusCode::kInvalidArgument,
        "ServiceOptions::max_batch must be >= 1 (a zero-size batch can "
        "never ship a request)");
  }
  return core::Status::Ok();
}

std::optional<std::future<QueryService::Result>> QueryService::Submit(
    ts::TimeSeries query, std::size_t k, RequestOptions request) {
  // Fault site: a drawn failure refuses this admission outright —
  // exercised before any queue state is touched, like a resource check
  // that fails ahead of enqueueing.
  if (core::FaultInjector::Global().ShouldFail(kFaultSiteAdmission)) {
    core::MutexLock lock(mu_);
    ++rejected_;
    return std::nullopt;
  }

  Request req;
  req.query = std::move(query);
  req.k = k;
  req.submit_time = Clock::now();
  req.deadline = request.deadline;
  req.priority = request.priority;
  std::future<Result> future = req.promise.get_future();
  {
    core::UniqueLock lock(mu_);
    if (!init_status_.ok() || closed_) {
      ++rejected_;
      return std::nullopt;
    }
    if (options_.admission == AdmissionPolicy::kReject) {
      if (queue_.size() >= options_.queue_capacity) {
        ++rejected_;
        return std::nullopt;
      }
    } else {
      // Bounded park: backpressure, but never forever — a stalled
      // dispatcher must not wedge every client thread.
      const auto park_deadline = Clock::now() + options_.park_timeout;
      while (!closed_ && queue_.size() >= options_.queue_capacity) {
        if (space_cv_.WaitUntil(lock, park_deadline) ==
                std::cv_status::timeout &&
            queue_.size() >= options_.queue_capacity && !closed_) {
          ++park_timeouts_;
          ++rejected_;
          return std::nullopt;
        }
      }
      if (closed_) {
        ++rejected_;
        return std::nullopt;
      }
    }
    req.seq = next_seq_++;
    // EDF insert: ascending (deadline, -priority, seq). No-deadline
    // requests carry time_point::max() and therefore sort after every
    // dated one; all-default submissions degenerate to pure seq order,
    // i.e. exact FIFO. Expired requests cluster at the front, which is
    // what lets NextBatch shed them by popping the head.
    const auto edf_before = [](const Request& a, const Request& b) {
      if (a.deadline != b.deadline) return a.deadline < b.deadline;
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq < b.seq;
    };
    queue_.insert(
        std::upper_bound(queue_.begin(), queue_.end(), req, edf_before),
        std::move(req));
    ++submitted_;
  }
  queue_cv_.NotifyOne();
  return future;
}

QueryService::Result QueryService::Query(const ts::TimeSeries& query,
                                         std::size_t k,
                                         RequestOptions request) {
  auto future = Submit(query, k, request);
  if (!future.has_value()) {
    if (!init_status_.ok()) return init_status_;
    return core::Status(core::StatusCode::kUnavailable,
                        "request was not admitted");
  }
  return future->get();
}

void QueryService::Shutdown() {
  {
    core::MutexLock lock(mu_);
    closed_ = true;
  }
  queue_cv_.NotifyAll();  // wake the dispatcher to drain and exit
  space_cv_.NotifyAll();  // release blocked submitters
  if (dispatcher_.joinable()) dispatcher_.join();
  // Only after the drain: in-flight batches must stay watched.
  {
    core::MutexLock lock(mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.NotifyAll();
  if (watchdog_.joinable()) watchdog_.join();
}

ServiceMetrics QueryService::metrics() const {
  ServiceMetrics m;
  {
    core::MutexLock lock(mu_);
    m.submitted = submitted_;
    m.rejected = rejected_;
    m.completed = completed_;
    m.ok = ok_;
    m.failed = failed_;
    m.batches = batches_;
    m.coalesced = coalesced_;
    m.shed = shed_;
    m.worker_faults = worker_faults_;
    m.retries = retries_;
    m.park_timeouts = park_timeouts_;
    m.watchdog_stalls = watchdog_stalls_;
  }
  m.latency = latency_.Snapshot();
  m.cache = cache_.counters();
  return m;
}

void QueryService::DispatcherMain() {
  for (;;) {
    std::vector<Request> batch = NextBatch();
    if (batch.empty()) return;  // closed and fully drained
    ExecuteBatch(std::move(batch));
  }
}

void QueryService::WatchdogMain() {
  core::UniqueLock lock(mu_);
  while (!watchdog_stop_) {
    const auto wake = Clock::now() + options_.watchdog_interval;
    while (!watchdog_stop_ &&
           watchdog_cv_.WaitUntil(lock, wake) != std::cv_status::timeout) {
    }
    if (watchdog_stop_) return;
    // One count per in-flight batch: a batch that stays stalled across
    // several scan periods is one stall, not one per scan.
    if (executing_batch_ != 0 && executing_batch_ != last_stalled_batch_ &&
        Clock::now() - executing_since_ >= options_.watchdog_stall) {
      ++watchdog_stalls_;
      last_stalled_batch_ = executing_batch_;
    }
  }
}

std::vector<QueryService::Request> QueryService::NextBatch() {
  for (;;) {
    std::vector<Request> shed;
    std::vector<Request> batch;
    bool drained = false;
    {
      core::UniqueLock lock(mu_);
      while (!closed_ && queue_.empty()) queue_cv_.Wait(lock);
      if (queue_.empty()) {
        drained = true;  // closed_, nothing left to drain
      } else {
        // Shed-without-scanning: EDF order clusters expired requests at
        // the queue head, so shedding is pop-while-expired. Their futures
        // resolve with kDeadlineExceeded below, outside the lock; no DP
        // evaluation ever runs for them.
        const auto expired = [](const Request& r, Clock::time_point now) {
          return r.deadline != kNoDeadline && r.deadline <= now;
        };
        const auto shed_head = [&]() SDTW_REQUIRES(mu_) {
          const auto now = Clock::now();
          while (!queue_.empty() && expired(queue_.front(), now)) {
            shed.push_back(std::move(queue_.front()));
            queue_.pop_front();
          }
        };
        shed_head();
        if (!queue_.empty() && !closed_) {
          // The batch ships when it fills, when the oldest queued request
          // has waited max_delay, or when the most urgent queued deadline
          // is within max_delay of now — an imminent deadline must not
          // sit out the full age trigger. After close we skip straight to
          // the cut; draining must not dawdle.
          const auto cut_deadline = [&]() SDTW_REQUIRES(mu_) {
            const std::size_t probe =
                std::min(queue_.size(), options_.max_batch);
            auto oldest = queue_.front().submit_time;
            for (std::size_t i = 1; i < probe; ++i) {
              oldest = std::min(oldest, queue_[i].submit_time);
            }
            auto cut = oldest + options_.max_delay;
            if (queue_.front().deadline != kNoDeadline) {
              cut = std::min(cut, queue_.front().deadline - options_.max_delay);
            }
            return cut;
          };
          while (!closed_ && queue_.size() < options_.max_batch) {
            if (queue_cv_.WaitUntil(lock, cut_deadline()) ==
                std::cv_status::timeout) {
              break;
            }
          }
          shed_head();  // deadlines that lapsed while we coalesced
        }
        const std::size_t take =
            std::min(queue_.size(), options_.max_batch);
        for (std::size_t i = 0; i < take; ++i) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
        if (!batch.empty()) ++batches_;
        shed_ += shed.size();
        completed_ += shed.size();
        if (!shed.empty() || !batch.empty()) space_cv_.NotifyAll();
      }
    }
    // Fulfilment outside the lock: set_value can run caller continuations
    // we must not execute under mu_.
    for (Request& r : shed) {
      r.promise.set_value(core::Status(
          core::StatusCode::kDeadlineExceeded,
          "deadline passed while queued; request shed before evaluation"));
    }
    if (drained) return {};
    if (!batch.empty()) return batch;
    // Everything queued had expired and was shed; wait for new work.
  }
}

core::StatusOr<QueryService::Hits> QueryService::RunGroupIsolated(
    const ts::TimeSeries& rep, const QueryContext* context,
    std::size_t kmax) {
  const QueryContext* contexts[1] = {context};
  std::chrono::microseconds prev = options_.retry_base;
  core::Status last(core::StatusCode::kWorkerFault, "no attempt ran");
  for (std::size_t attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      // Decorrelated jitter (sleep ~ U(base, 3 * previous), capped):
      // repeated offenders spread out instead of hammering in lockstep.
      // Timing only — results never depend on the draw. No lock is held
      // across this sleep.
      const auto base = options_.retry_base.count();
      const auto cap = options_.retry_cap.count();
      std::uniform_int_distribution<std::chrono::microseconds::rep> jitter(
          base, std::max(base, 3 * prev.count()));
      prev = std::chrono::microseconds(
          std::min(cap, jitter(backoff_rng_)));
      if (prev.count() > 0) std::this_thread::sleep_for(prev);
    }
    {
      core::MutexLock lock(mu_);
      ++retries_;
    }
    auto result = TryQueryBatch(
        engine_, std::span<const ts::TimeSeries>(&rep, 1),
        std::span<const QueryContext* const>(contexts, 1), kmax);
    if (result.ok()) return std::move((*result)[0]);
    last = result.status();
    core::MutexLock lock(mu_);
    ++worker_faults_;
  }
  return core::Status(
      core::StatusCode::kWorkerFault,
      "retries exhausted isolating a poisoned batch; last error: " +
          last.ToString());
}

void QueryService::ExecuteBatch(std::vector<Request> batch) {
  {
    core::MutexLock lock(mu_);
    executing_batch_ = batches_;  // NextBatch bumped it; unique, nonzero
    executing_since_ = Clock::now();
  }

  // Coalesce bitwise-identical queries: one scan per distinct content at
  // the largest k requested in the batch, truncated per request below.
  // Hash buckets hold group ids; equality is verified by value so a
  // collision splits into separate groups, never merges distinct queries.
  struct Group {
    std::size_t rep;                   // first occurrence, index into batch
    std::vector<std::size_t> members;  // all occurrences, in arrival order
  };
  std::vector<Group> groups;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_hash;
  std::size_t kmax = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    kmax = std::max(kmax, batch[i].k);
    const std::uint64_t hash = ContentHash(batch[i].query.values());
    std::vector<std::size_t>& bucket = by_hash[hash];
    std::size_t gid = groups.size();
    for (std::size_t candidate : bucket) {
      if (BitwiseEqual(batch[groups[candidate].rep].query.values(),
                       batch[i].query.values())) {
        gid = candidate;
        break;
      }
    }
    if (gid == groups.size()) {
      bucket.push_back(gid);
      groups.push_back(Group{i, {}});
    }
    groups[gid].members.push_back(i);
  }

  // One Result per group; every member shares its group's fate.
  std::vector<core::StatusOr<Hits>> group_results;
  group_results.reserve(groups.size());
  if (kmax > 0) {
    // One representative query per group; cached derivative contexts are
    // replayed (and misses derived + inserted) so repeated queries skip
    // phase-1 work across batches too, not just within one.
    std::vector<ts::TimeSeries> reps;
    reps.reserve(groups.size());
    for (const Group& g : groups) reps.push_back(batch[g.rep].query);
    std::vector<std::shared_ptr<const QueryContext>> keep_alive(groups.size());
    std::vector<const QueryContext*> contexts(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      keep_alive[g] = cache_.Lookup(reps[g]);
      if (keep_alive[g] == nullptr &&
          !core::FaultInjector::Global().ShouldFail(kFaultSiteCacheFill)) {
        auto fresh = std::make_shared<const QueryContext>(
            engine_.MakeQueryContext(reps[g]));
        cache_.Insert(reps[g], fresh);
        keep_alive[g] = std::move(fresh);
      }
      // A faulted fill degrades, never corrupts: nothing was inserted
      // (the cache cannot serve a context from a faulted fill) and the
      // null entry makes the engine derive internally — same hits,
      // phase-1 work paid once more.
      contexts[g] = keep_alive[g].get();
    }
    auto result = TryQueryBatch(engine_, reps, contexts, kmax);
    if (result.ok()) {
      for (auto& hits : *result) group_results.push_back(std::move(hits));
    } else {
      // Poisoned batch: one faulting worker voided every group's scan.
      // Isolate by re-running each group individually — the engine holds
      // no state across calls and every completed scan is bitwise
      // deterministic, so a retried group returns exactly what a
      // fault-free batch would have; only repeat offenders fail, and
      // they fail alone.
      {
        core::MutexLock lock(mu_);
        ++worker_faults_;
      }
      for (std::size_t g = 0; g < groups.size(); ++g) {
        group_results.push_back(
            RunGroupIsolated(reps[g], contexts[g], kmax));
      }
    }
  } else {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      group_results.push_back(Hits{});
    }
  }

  // Book-keeping first, fulfilment second: a caller whose future has
  // resolved must already be visible in metrics() (completed count,
  // latency sample), so counters never lag behind delivered results.
  // Latency samples cover successful requests only — failure-path timing
  // (retry backoff above all) says nothing about serving latency.
  const auto done = Clock::now();
  std::size_t n_ok = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (!group_results[g].ok()) continue;
    for (std::size_t member : groups[g].members) {
      latency_.Record(std::chrono::duration<double, std::micro>(
                          done - batch[member].submit_time)
                          .count());
      ++n_ok;
    }
  }
  {
    core::MutexLock lock(mu_);
    completed_ += batch.size();
    ok_ += n_ok;
    failed_ += batch.size() - n_ok;
    coalesced_ += batch.size() - groups.size();
    executing_batch_ = 0;  // watchdog: nothing in flight
  }

  // Fulfil every request with the first min(k, |hits|) of its group's
  // list — bitwise what a dedicated scan at that k would return, because
  // the k smallest (distance, index) pairs are a prefix of the kmax
  // smallest — or with its group's failure status.
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t member : groups[g].members) {
      Request& req = batch[member];
      if (!group_results[g].ok()) {
        req.promise.set_value(group_results[g].status());
        continue;
      }
      const Hits& hits = *group_results[g];
      const std::size_t take = std::min(req.k, hits.size());
      Hits result(hits.begin(),
                  hits.begin() + static_cast<std::ptrdiff_t>(take));
      req.promise.set_value(std::move(result));
    }
  }
}

}  // namespace retrieval
}  // namespace sdtw
