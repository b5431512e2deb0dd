/// \file fault_test.cc
/// \brief Deterministic failure-path coverage for the retrieval service:
/// injected worker faults, cache-fill faults, admission faults, deadline
/// shedding, EDF ordering, the dispatcher watchdog, and the hardened
/// QueryService edge cases.
///
/// Every test pins its own fault configuration with core::ScopedFault,
/// including an explicit rate-0 baseline for all four service sites (the
/// fixture below) — so these tests are deterministic even when the CI
/// fault matrix arms SDTW_FAULT for the whole binary.

#include <atomic>
#include <chrono>
#include <future>
#include <gtest/gtest.h>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_injector.h"
#include "core/status.h"
#include "data/generators.h"
#include "dispatcher_hold.h"
#include "retrieval/batch.h"
#include "retrieval/service.h"

namespace sdtw {
namespace retrieval {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

ts::Dataset SmallGun(std::size_t n = 16, std::size_t len = 100) {
  data::GeneratorOptions opt;
  opt.num_series = n;
  opt.length = len;
  return data::MakeGunLike(opt);
}

// Bitwise hit-list equality: the service's determinism contract is
// bit-for-bit even across faults and retries, so no tolerance anywhere.
void ExpectSameHits(const std::vector<Hit>& got, const std::vector<Hit>& want,
                    const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << what << " hit " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " hit " << i;
    EXPECT_EQ(got[i].label, want[i].label) << what << " hit " << i;
  }
}

std::vector<Hit> DirectHits(const KnnEngine& engine, const ts::TimeSeries& q,
                            std::size_t k) {
  const BatchKnnEngine direct(engine);
  const std::vector<ts::TimeSeries> one{q};
  return direct.QueryBatch(one, k)[0];
}

/// One request of an expected service order, named for failure messages.
struct Served {
  const char* name;
  std::future<QueryService::Result>* future;
};

/// Waits until every future of `order` is ready, checking that they
/// became ready in that order: whenever one is seen ready, every one
/// before it must be ready already. The dispatcher fulfils a batch before
/// it cuts the next, and readiness is read from the back, so requests
/// served in order pass however the test thread is scheduled. (The
/// opposite check, "a later request is not ready yet", fails whenever the
/// test thread is descheduled for longer than the scans in between.)
void ExpectServedInOrder(const std::vector<Served>& order) {
  for (bool all_ready = false; !all_ready;) {
    const char* later = nullptr;  // the last-listed request seen ready
    all_ready = true;
    for (std::size_t i = order.size(); i-- > 0;) {
      const bool ready = order[i].future->wait_for(std::chrono::seconds(0)) ==
                         std::future_status::ready;
      if (!ready && later != nullptr) {
        ADD_FAILURE() << later << " was served before " << order[i].name;
        return;
      }
      if (ready && later == nullptr) later = order[i].name;
      all_ready = all_ready && ready;
    }
    if (!all_ready) std::this_thread::sleep_for(microseconds(50));
  }
}

/// Pins all four service injection sites to rate 0 for the test's
/// lifetime, neutralizing any environment-armed fault matrix; individual
/// tests layer their own ScopedFaults on top (restored to this baseline
/// on their scope exit).
class FaultFixture : public ::testing::Test {
 protected:
  core::ScopedFault quiet_worker_{kFaultSiteWorker, 0.0, 0};
  core::ScopedFault quiet_stall_{kFaultSiteWorkerStall, 0.0, 0};
  core::ScopedFault quiet_fill_{kFaultSiteCacheFill, 0.0, 0};
  core::ScopedFault quiet_admission_{kFaultSiteAdmission, 0.0, 0};
};

using QueryServiceFaultTest = FaultFixture;
using QueryServiceDeadlineTest = FaultFixture;
using QueryServiceEdgeTest = FaultFixture;
using WatchdogTest = FaultFixture;
using LatencyRecorderFaultTest = FaultFixture;
using QueryDerivativeCacheFaultTest = FaultFixture;

// --------------------------------------------------------------------------
// Worker faults: isolation, retry, permanent failure

TEST_F(QueryServiceFaultTest, TransientWorkerFaultRetriesAndRecovers) {
  const ts::Dataset ds = SmallGun(14);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.max_batch = 3;  // all three queries in one poisoned batch
  options.max_delay =
      std::chrono::duration_cast<microseconds>(std::chrono::seconds(10));
  options.num_workers = 1;  // one draw per execution: fully predictable
  options.max_retries = 2;
  QueryService service(engine, options);

  // Exactly one failure: the batch scan is poisoned once, every isolated
  // re-run succeeds on its first attempt.
  core::ScopedFault fault(kFaultSiteWorker,
                          core::FaultInjector::SiteConfig{1.0, 0, 1});

  std::vector<std::future<QueryService::Result>> futures;
  for (std::size_t q = 0; q < 3; ++q) {
    auto f = service.Submit(ds[q], 3);
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  for (std::size_t q = 0; q < 3; ++q) {
    QueryService::Result result = futures[q].get();
    ASSERT_TRUE(result.ok())
        << "recovered request must succeed: " << result.status().ToString();
    ExpectSameHits(*result, DirectHits(engine, ds[q], 3), "recovered");
  }
  service.Shutdown();

  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.worker_faults, 1u);  // the one poisoned batch
  EXPECT_EQ(m.retries, 3u);        // one isolated re-run per group
  EXPECT_EQ(m.ok, 3u);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(m.completed, 3u);
}

TEST_F(QueryServiceFaultTest, PermanentWorkerFaultFailsOnlyTargetedRequest) {
  const ts::Dataset ds = SmallGun(14);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.max_batch = 1;  // one request per batch: precise targeting
  options.max_delay = microseconds(0);
  options.num_workers = 1;
  options.max_retries = 2;

  // Calibrate: how many failure draws does one fully-failing request
  // consume? (1 batch attempt + 1 + max_retries isolated attempts, one
  // worker draw each — but measured, not assumed, so the test survives
  // retry-policy changes.)
  std::size_t draws_per_failed_request = 0;
  {
    core::ScopedFault fault(kFaultSiteWorker, 1.0, 0);
    QueryService calibration(engine, options);
    const auto result = calibration.Query(ds[0], 3);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), core::StatusCode::kWorkerFault);
    calibration.Shutdown();
    draws_per_failed_request =
        core::FaultInjector::Global().counters(kFaultSiteWorker).failures;
    ASSERT_GT(draws_per_failed_request, 0u);
  }

  // Target: exactly the first request's draws fail; every draw after that
  // passes, so the second request must complete bitwise identically.
  core::ScopedFault fault(
      kFaultSiteWorker,
      core::FaultInjector::SiteConfig{1.0, 0, draws_per_failed_request});
  QueryService service(engine, options);

  const auto victim = service.Query(ds[0], 3);
  ASSERT_FALSE(victim.ok()) << "targeted request must fail permanently";
  EXPECT_EQ(victim.status().code(), core::StatusCode::kWorkerFault);
  EXPECT_NE(victim.status().message().find("retries exhausted"),
            std::string::npos)
      << victim.status().ToString();

  const auto survivor = service.Query(ds[1], 3);
  ASSERT_TRUE(survivor.ok())
      << "non-targeted request must survive: "
      << survivor.status().ToString();
  ExpectSameHits(*survivor, DirectHits(engine, ds[1], 3), "survivor");

  service.Shutdown();
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(m.ok, 1u);
  EXPECT_EQ(m.retries, 1u + options.max_retries);
  EXPECT_EQ(m.worker_faults, draws_per_failed_request);
  EXPECT_EQ(m.latency.count, 1u) << "failed requests leave no latency sample";
}

TEST_F(QueryServiceFaultTest, AdmissionFaultRejectsWithoutSideEffects) {
  const ts::Dataset ds = SmallGun(10);
  KnnEngine engine;
  engine.Index(ds);
  QueryService service(engine);

  {
    core::ScopedFault fault(kFaultSiteAdmission,
                            core::FaultInjector::SiteConfig{1.0, 0, 1});
    EXPECT_FALSE(service.Submit(ds[0], 3).has_value())
        << "faulted admission must refuse";
    // The one-failure budget is spent: the very next submit is admitted.
    const auto ok = service.Query(ds[0], 3);
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    ExpectSameHits(*ok, DirectHits(engine, ds[0], 3), "after admission fault");
  }

  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.submitted, 1u);
  EXPECT_EQ(m.completed, 1u);
}

// --------------------------------------------------------------------------
// Cache-fill faults

TEST_F(QueryDerivativeCacheFaultTest, FaultedFillDegradesButNeverPoisons) {
  const ts::Dataset ds = SmallGun(12);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.max_batch = 1;
  options.max_delay = microseconds(0);
  QueryService service(engine, options);
  const auto expected = DirectHits(engine, ds[0], 4);

  {
    core::ScopedFault fault(kFaultSiteCacheFill, 1.0, 0);
    // Every fill faults: the request still completes — the engine derives
    // the context internally — and nothing enters the cache.
    const auto degraded = service.Query(ds[0], 4);
    ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
    ExpectSameHits(*degraded, expected, "degraded fill");
    const ServiceMetrics during = service.metrics();
    EXPECT_EQ(during.cache.insertions, 0u)
        << "a faulted fill must never insert";
    EXPECT_EQ(during.cache.hits, 0u);
  }

  // Fill healthy again: the same query is still a miss (nothing was
  // cached above), fills now, and then hits — all three runs bitwise
  // identical. The cache can never serve a context from a faulted fill,
  // because a faulted fill stores nothing to serve.
  const auto filled = service.Query(ds[0], 4);
  ASSERT_TRUE(filled.ok()) << filled.status().ToString();
  ExpectSameHits(*filled, expected, "first healthy fill");
  const auto cached = service.Query(ds[0], 4);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  ExpectSameHits(*cached, expected, "cache hit");

  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.cache.insertions, 1u);
  EXPECT_EQ(m.cache.hits, 1u);
  EXPECT_EQ(
      core::FaultInjector::Global().counters(kFaultSiteCacheFill).failures, 0u)
      << "back at the rate-0 baseline, fills never fault";
}

// --------------------------------------------------------------------------
// Deadlines + EDF

TEST_F(QueryServiceDeadlineTest, ExpiredDeadlineShedWithoutEvaluation) {
  const ts::Dataset ds = SmallGun(10);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.max_batch = 64;
  options.max_delay =
      std::chrono::duration_cast<microseconds>(std::chrono::seconds(10));
  QueryService service(engine, options);

  RequestOptions expired;
  expired.deadline = Clock::now() - milliseconds(1);
  auto f = service.Submit(ds[0], 3, expired);
  ASSERT_TRUE(f.has_value()) << "admission does not check the deadline";

  const QueryService::Result result = f->get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kDeadlineExceeded);

  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.shed, 1u);
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.batches, 0u) << "shed before any batch was cut";
  EXPECT_EQ(m.cache.misses, 0u) << "no derivative work for a shed request";
  EXPECT_EQ(m.latency.count, 0u) << "shed requests leave no latency sample";

  // The service is fully live afterwards. (The 5s deadline doubles as the
  // early-cut trigger; without it this request would sit out the 10s age
  // trigger configured above.)
  const auto healthy =
      service.Query(ds[1], 3, RequestOptions::WithTimeout(std::chrono::seconds(5)));
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  ExpectSameHits(*healthy, DirectHits(engine, ds[1], 3), "after shed");
}

TEST_F(QueryServiceDeadlineTest, ImminentDeadlineCutsTheBatchEarly) {
  const ts::Dataset ds = SmallGun(10);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.max_batch = 64;  // size trigger unreachable
  options.max_delay =
      std::chrono::duration_cast<microseconds>(std::chrono::seconds(30));
  QueryService service(engine, options);

  // Without a deadline this request would sit the full 30s age trigger
  // (Shutdown would drain it, but we never get there): a deadline 50ms
  // out must cut the batch early instead — within deadline - max_delay,
  // i.e. immediately here. Generous wait bound; the pass criterion is
  // completing at all before the age trigger, not a latency target.
  auto f = service.Submit(ds[0], 3, RequestOptions::WithTimeout(milliseconds(50)));
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(f->wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "imminent deadline must pre-empt the 30s age trigger";
  const QueryService::Result result = f->get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameHits(*result, DirectHits(engine, ds[0], 3), "deadline cut");
}

TEST_F(QueryServiceDeadlineTest, EdfServesUrgentBeforeEarlier) {
  const ts::Dataset ds = SmallGun(12);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.max_batch = 1;  // one request per batch: queue order observable
  options.num_workers = 1;
  options.watchdog_interval = microseconds(0);  // not under test here

  bool held = false;
  for (int attempt = 0; !held && attempt < kHoldAttempts; ++attempt) {
    QueryService service(engine, options);
    // The decoy occupies the dispatcher while the three probes queue up,
    // so EDF ordering, not submission order, decides dispatch.
    DispatcherHold hold(service, ds[0], 3);
    const auto base = Clock::now();
    auto relaxed = service.Submit(ds[1], 3);  // FIFO seq 1, no deadline
    auto dated = service.Submit(ds[2], 3,
                                RequestOptions{base + std::chrono::hours(2)});
    auto urgent = service.Submit(ds[3], 3,
                                 RequestOptions{base + std::chrono::hours(1)});
    ASSERT_TRUE(relaxed.has_value());
    ASSERT_TRUE(dated.has_value());
    ASSERT_TRUE(urgent.has_value());
    held = hold.Held();
    if (!held) continue;  // a probe was cut before the others were queued

    // EDF: the nearest deadline first, dateless requests last.
    ExpectServedInOrder({{"the 1h deadline", &*urgent},
                         {"the 2h deadline", &*dated},
                         {"the dateless request", &*relaxed}});
    for (auto* f : {&hold.decoy(), &*urgent, &*dated, &*relaxed}) {
      QueryService::Result result = f->get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
    service.Shutdown();
    EXPECT_EQ(service.metrics().completed, 4u);
  }
  ASSERT_TRUE(held) << kNeverHeld;
}

TEST_F(QueryServiceDeadlineTest, PriorityBreaksDeadlineTies) {
  const ts::Dataset ds = SmallGun(12);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.max_batch = 1;
  options.num_workers = 1;
  options.watchdog_interval = microseconds(0);

  bool held = false;
  for (int attempt = 0; !held && attempt < kHoldAttempts; ++attempt) {
    QueryService service(engine, options);
    DispatcherHold hold(service, ds[0], 3);
    const auto deadline = Clock::now() + std::chrono::hours(1);
    auto low =
        service.Submit(ds[1], 3, RequestOptions{deadline, /*priority=*/1});
    auto high =
        service.Submit(ds[2], 3, RequestOptions{deadline, /*priority=*/5});
    ASSERT_TRUE(low.has_value());
    ASSERT_TRUE(high.has_value());
    held = hold.Held();
    if (!held) continue;

    // Equal deadlines: the higher priority is served first.
    ExpectServedInOrder({{"priority 5", &*high}, {"priority 1", &*low}});
    service.Shutdown();
  }
  ASSERT_TRUE(held) << kNeverHeld;
}

// --------------------------------------------------------------------------
// Watchdog

TEST_F(WatchdogTest, CountsAStalledBatchExactlyOnce) {
  const ts::Dataset ds = SmallGun(10);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.max_batch = 1;
  options.max_delay = microseconds(0);
  options.num_workers = 1;
  options.watchdog_interval = milliseconds(2);
  options.watchdog_stall = milliseconds(10);
  QueryService service(engine, options);

  // 2 worker executions x 25ms injected stall >> the 10ms threshold; the
  // 2ms scan interval observes the stalled batch several times but must
  // count it once.
  core::ScopedFault stall(kFaultSiteWorkerStall, 1.0, 0);
  const auto result = service.Query(ds[0], 3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  service.Shutdown();

  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.watchdog_stalls, 1u);
}

TEST_F(WatchdogTest, HealthyBatchesRaiseNoStalls) {
  const ts::Dataset ds = SmallGun(10);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.watchdog_interval = milliseconds(1);
  options.watchdog_stall =
      std::chrono::duration_cast<microseconds>(std::chrono::seconds(10));
  QueryService service(engine, options);
  for (std::size_t q = 0; q < 4; ++q) {
    const auto result = service.Query(ds[q], 3);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  service.Shutdown();
  EXPECT_EQ(service.metrics().watchdog_stalls, 0u);
}

// --------------------------------------------------------------------------
// Hardened edge cases

TEST_F(QueryServiceEdgeTest, InvalidOptionsRefuseServiceWithClearErrors) {
  const ts::Dataset ds = SmallGun(8);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions no_queue;
  no_queue.queue_capacity = 0;
  QueryService dead_queue(engine, no_queue);
  EXPECT_FALSE(dead_queue.init_status().ok());
  EXPECT_EQ(dead_queue.init_status().code(),
            core::StatusCode::kInvalidArgument);
  EXPECT_NE(dead_queue.init_status().message().find("queue_capacity"),
            std::string::npos);
  EXPECT_FALSE(dead_queue.Submit(ds[0], 3).has_value());
  const auto result = dead_queue.Query(ds[0], 3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kInvalidArgument);
  dead_queue.Shutdown();  // clean teardown despite never serving

  ServiceOptions no_batch;
  no_batch.max_batch = 0;
  QueryService dead_batch(engine, no_batch);
  EXPECT_FALSE(dead_batch.init_status().ok());
  EXPECT_NE(dead_batch.init_status().message().find("max_batch"),
            std::string::npos);
  EXPECT_FALSE(dead_batch.Submit(ds[0], 3).has_value());

  // ValidateOptions is also directly callable (pre-flight checks).
  EXPECT_TRUE(QueryService::ValidateOptions(ServiceOptions{}).ok());
  EXPECT_FALSE(QueryService::ValidateOptions(no_queue).ok());
}

TEST_F(QueryServiceEdgeTest, DoubleShutdownIsIdempotent) {
  const ts::Dataset ds = SmallGun(8);
  KnnEngine engine;
  engine.Index(ds);
  auto service = std::make_unique<QueryService>(engine);
  const auto result = service->Query(ds[0], 3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  service->Shutdown();
  service->Shutdown();  // explicit double shutdown
  EXPECT_FALSE(service->Submit(ds[0], 3).has_value());
  service.reset();  // and a third via the destructor
}

TEST_F(QueryServiceEdgeTest, SubmitRacingShutdownNeverWedgesOrLies) {
  const ts::Dataset ds = SmallGun(10);
  KnnEngine engine;
  engine.Index(ds);

  // Many submitters race one Shutdown. Contract: every Submit either
  // returns nullopt (not admitted) or a future that resolves — admitted
  // work is never dropped, and nothing hangs.
  for (int round = 0; round < 4; ++round) {
    ServiceOptions options;
    options.max_batch = 4;
    options.max_delay = microseconds(200);
    QueryService service(engine, options);

    std::atomic<bool> go{false};
    std::atomic<std::size_t> admitted{0};
    std::atomic<std::size_t> resolved{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&, t]() {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < 8; ++i) {
          auto f = service.Submit(ds[(t + i) % 10], 2);
          if (!f.has_value()) continue;
          ++admitted;
          f->wait();  // must resolve: Shutdown drains admitted work
          ++resolved;
        }
      });
    }
    go = true;
    service.Shutdown();
    for (std::thread& t : submitters) t.join();
    EXPECT_EQ(admitted.load(), resolved.load()) << "round " << round;
    const ServiceMetrics m = service.metrics();
    EXPECT_EQ(m.completed, admitted.load()) << "round " << round;
  }
}

TEST_F(QueryServiceEdgeTest, AbandonedFutureDoesNotWedgeTheDispatcher) {
  const ts::Dataset ds = SmallGun(10);
  KnnEngine engine;
  engine.Index(ds);
  QueryService service(engine);

  // Submit and immediately drop the future: the dispatcher still executes
  // and fulfils the promise into the dead shared state, with no error and
  // no wedge — proven by the next request completing normally.
  { auto abandoned = service.Submit(ds[0], 3); }
  const auto after = service.Query(ds[1], 3);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectSameHits(*after, DirectHits(engine, ds[1], 3), "after abandonment");
  service.Shutdown();
  EXPECT_EQ(service.metrics().completed, 2u);
}

TEST_F(QueryServiceEdgeTest, ParkTimeoutBoundsBlockingSubmits) {
  const ts::Dataset ds = SmallGun(10);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.queue_capacity = 1;
  options.admission = AdmissionPolicy::kBlock;
  options.park_timeout = milliseconds(20);
  options.max_batch = 64;  // dispatcher coalesces at the far age trigger,
  options.max_delay =      // keeping the queue full for the second submit
      std::chrono::duration_cast<microseconds>(std::chrono::seconds(30));
  QueryService service(engine, options);

  auto admitted = service.Submit(ds[0], 3);
  ASSERT_TRUE(admitted.has_value());

  const auto start = Clock::now();
  EXPECT_FALSE(service.Submit(ds[1], 3).has_value())
      << "bounded park must give up, not wait forever";
  const auto waited = Clock::now() - start;
  EXPECT_GE(waited, milliseconds(20) - milliseconds(1));
  EXPECT_LT(waited, std::chrono::seconds(10))
      << "the park must be bounded by park_timeout, not the age trigger";

  service.Shutdown();  // drains the admitted request
  QueryService::Result result = admitted->get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.park_timeouts, 1u);
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.submitted, 1u);
}

// --------------------------------------------------------------------------
// LatencyRecorder under failure: samples only successful completions

TEST_F(LatencyRecorderFaultTest, FailedAndShedRequestsLeaveNoSamples) {
  const ts::Dataset ds = SmallGun(10);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.max_batch = 1;
  options.max_delay = microseconds(0);
  options.num_workers = 1;
  options.max_retries = 0;  // fail fast: 1 batch + 1 isolated attempt
  QueryService service(engine, options);

  core::ScopedFault fault(kFaultSiteWorker, 1.0, 0);
  const auto failed = service.Query(ds[0], 3);
  ASSERT_FALSE(failed.ok());

  RequestOptions long_gone;
  long_gone.deadline = Clock::now() - milliseconds(5);
  auto shed = service.Submit(ds[1], 3, long_gone);
  ASSERT_TRUE(shed.has_value());
  EXPECT_FALSE(shed->get().ok());

  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.completed, 2u);
  EXPECT_EQ(m.ok, 0u);
  EXPECT_EQ(m.latency.count, 0u)
      << "failure-path timing must never contaminate serving latency";

  // Mixed outcomes: the recorder window counts exactly the successes.
  core::ScopedFault healthy(kFaultSiteWorker, 0.0, 0);
  const auto ok1 = service.Query(ds[2], 3);
  const auto ok2 = service.Query(ds[3], 3);
  ASSERT_TRUE(ok1.ok() && ok2.ok());
  EXPECT_EQ(service.metrics().latency.count, 2u);
}

}  // namespace
}  // namespace retrieval
}  // namespace sdtw
