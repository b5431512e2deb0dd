#include "retrieval/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <gtest/gtest.h>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/fault_injector.h"
#include "core/status.h"
#include "data/generators.h"
#include "dispatcher_hold.h"
#include "retrieval/batch.h"
#include "retrieval/latency.h"
#include "retrieval/query_cache.h"

namespace sdtw {
namespace retrieval {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

// True when the CI fault matrix (or a stray SDTW_FAULT) armed injection
// for this whole binary. Under it a request may legitimately fail after
// exhausting its retries, so completion-mandatory assertions relax to
// "whatever completes is still bitwise correct".
bool FaultsArmed() { return core::FaultInjector::Global().armed(); }

ts::Dataset SmallGun(std::size_t n = 16, std::size_t len = 100) {
  data::GeneratorOptions opt;
  opt.num_series = n;
  opt.length = len;
  return data::MakeGunLike(opt);
}

// Bitwise hit-list equality: same indices, same exact distances, same
// labels. The service's determinism contract is bit-for-bit, so no
// tolerance anywhere.
void ExpectSameHits(const std::vector<Hit>& got, const std::vector<Hit>& want,
                    const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << what << " hit " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " hit " << i;
    EXPECT_EQ(got[i].label, want[i].label) << what << " hit " << i;
  }
}

// Fetches a future that must hold hits when no faults are armed; under
// the fault matrix an injected kWorkerFault (or kUnknown) is tolerated
// and reported as empty hits so callers can skip the bitwise check.
std::optional<QueryService::Hits> GetHits(
    std::future<QueryService::Result>& future, const char* what) {
  QueryService::Result result = future.get();
  if (result.ok()) return std::move(result).value();
  EXPECT_TRUE(FaultsArmed())
      << what << ": unexpected failure with no faults armed: "
      << result.status().ToString();
  EXPECT_TRUE(result.status().code() == core::StatusCode::kWorkerFault ||
              result.status().code() == core::StatusCode::kUnknown)
      << what << ": " << result.status().ToString();
  return std::nullopt;
}

// Reference results: a direct one-shot BatchKnnEngine scan of each query
// alone, with default options (fresh threads, no executor, no cache).
std::vector<std::vector<Hit>> DirectHits(const KnnEngine& engine,
                                         const std::vector<ts::TimeSeries>& qs,
                                         std::size_t k) {
  const BatchKnnEngine direct(engine);
  std::vector<std::vector<Hit>> out;
  out.reserve(qs.size());
  for (const ts::TimeSeries& q : qs) {
    const std::vector<ts::TimeSeries> one{q};
    out.push_back(direct.QueryBatch(one, k)[0]);
  }
  return out;
}

// --------------------------------------------------------------------------
// WorkerPool

TEST(WorkerPoolTest, RunsJobOncePerWorkerAndReusesArenas) {
  // Direct Execute calls have no service-level isolation to absorb an
  // ambient SDTW_FAULT (e.g. the CI fault matrix); pin the worker sites
  // to rate 0 so this test measures pool mechanics, not fault handling.
  core::ScopedFault quiet_worker(kFaultSiteWorker, 0.0, 0);
  core::ScopedFault quiet_stall(kFaultSiteWorkerStall, 0.0, 0);
  WorkerPool pool(2);
  ASSERT_EQ(pool.num_workers(), 2u);

  std::atomic<std::size_t> slot{0};
  std::vector<const ScratchArena*> first(2, nullptr);
  std::vector<const ScratchArena*> second(2, nullptr);
  pool.Execute([&](ScratchArena& a) { first[slot++] = &a; });
  EXPECT_EQ(slot.load(), 2u) << "job must run exactly once per worker";
  slot = 0;
  pool.Execute([&](ScratchArena& a) { second[slot++] = &a; });
  EXPECT_EQ(slot.load(), 2u);

  // Persistent arenas: the second batch sees the same two arenas as the
  // first (possibly assigned to different slots).
  std::sort(first.begin(), first.end());
  std::sort(second.begin(), second.end());
  EXPECT_EQ(first, second);
  EXPECT_NE(first[0], nullptr);
  EXPECT_NE(first[0], first[1]);
}

TEST(WorkerPoolTest, DefaultWidthIsAtLeastOne) {
  core::ScopedFault quiet_worker(kFaultSiteWorker, 0.0, 0);
  core::ScopedFault quiet_stall(kFaultSiteWorkerStall, 0.0, 0);
  WorkerPool pool;
  EXPECT_GE(pool.num_workers(), 1u);
  std::atomic<std::size_t> ran{0};
  pool.Execute([&](ScratchArena&) { ++ran; });
  EXPECT_EQ(ran.load(), pool.num_workers());
}

// --------------------------------------------------------------------------
// QueryDerivativeCache

std::shared_ptr<const QueryContext> DummyContext() {
  return std::make_shared<const QueryContext>();
}

TEST(QueryDerivativeCacheTest, HitMissEvictLru) {
  const ts::TimeSeries a({1.0, 2.0, 3.0}, 0);
  const ts::TimeSeries b({4.0, 5.0, 6.0}, 0);
  const ts::TimeSeries c({7.0, 8.0, 9.0}, 0);

  QueryDerivativeCache cache(2);
  ASSERT_TRUE(cache.enabled());
  EXPECT_EQ(cache.Lookup(a), nullptr);

  const auto ctx_a = DummyContext();
  cache.Insert(a, ctx_a);
  EXPECT_EQ(cache.Lookup(a).get(), ctx_a.get());

  cache.Insert(b, DummyContext());
  cache.Insert(c, DummyContext());  // capacity 2: evicts LRU, which is a
  EXPECT_EQ(cache.Lookup(a), nullptr);
  EXPECT_NE(cache.Lookup(b), nullptr);
  EXPECT_NE(cache.Lookup(c), nullptr);
  EXPECT_EQ(cache.size(), 2u);

  const auto counters = cache.counters();
  EXPECT_EQ(counters.hits, 3u);
  EXPECT_EQ(counters.misses, 2u);
  EXPECT_EQ(counters.insertions, 3u);
  EXPECT_EQ(counters.evictions, 1u);
}

TEST(QueryDerivativeCacheTest, RecencyRefreshOnHit) {
  const ts::TimeSeries a({1.0}, 0);
  const ts::TimeSeries b({2.0}, 0);
  const ts::TimeSeries c({3.0}, 0);
  QueryDerivativeCache cache(2);
  cache.Insert(a, DummyContext());
  cache.Insert(b, DummyContext());
  ASSERT_NE(cache.Lookup(a), nullptr);  // a becomes most recent
  cache.Insert(c, DummyContext());      // evicts b, not a
  EXPECT_NE(cache.Lookup(a), nullptr);
  EXPECT_EQ(cache.Lookup(b), nullptr);
}

TEST(QueryDerivativeCacheTest, ZeroCapacityDisables) {
  QueryDerivativeCache cache(0);
  EXPECT_FALSE(cache.enabled());
  const ts::TimeSeries a({1.0, 2.0}, 0);
  cache.Insert(a, DummyContext());
  EXPECT_EQ(cache.Lookup(a), nullptr);
  const auto counters = cache.counters();
  EXPECT_EQ(counters.hits, 0u);
  EXPECT_EQ(counters.misses, 0u);
  EXPECT_EQ(counters.insertions, 0u);
}

TEST(QueryDerivativeCacheTest, LabelDoesNotAffectIdentity) {
  // Content identity is the sample values only: the same values under a
  // different label must hit (derivatives do not depend on the label).
  QueryDerivativeCache cache(4);
  const auto ctx = DummyContext();
  cache.Insert(ts::TimeSeries({1.0, 2.0}, /*label=*/0), ctx);
  EXPECT_EQ(cache.Lookup(ts::TimeSeries({1.0, 2.0}, /*label=*/7)).get(),
            ctx.get());
}

TEST(ContentHashTest, SensitiveToValuesAndLength) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{1.0, 2.0, 4.0};
  const std::vector<double> prefix{1.0, 2.0};
  EXPECT_EQ(ContentHash(a), ContentHash(a));
  EXPECT_NE(ContentHash(a), ContentHash(b));
  EXPECT_NE(ContentHash(a), ContentHash(prefix));
  EXPECT_NE(ContentHash({}), ContentHash(prefix));
}

// --------------------------------------------------------------------------
// LatencyRecorder

TEST(LatencyRecorderTest, NearestRankPercentiles) {
  std::vector<double> one_to_hundred;
  for (int i = 1; i <= 100; ++i) one_to_hundred.push_back(i);
  EXPECT_EQ(NearestRankPercentile(one_to_hundred, 50.0), 50.0);
  EXPECT_EQ(NearestRankPercentile(one_to_hundred, 95.0), 95.0);
  EXPECT_EQ(NearestRankPercentile(one_to_hundred, 99.0), 99.0);
  EXPECT_EQ(NearestRankPercentile(one_to_hundred, 100.0), 100.0);
  EXPECT_EQ(NearestRankPercentile(one_to_hundred, 0.0), 1.0);
  EXPECT_EQ(NearestRankPercentile({}, 50.0), 0.0);
  EXPECT_EQ(NearestRankPercentile({7.0}, 99.0), 7.0);
}

TEST(LatencyRecorderTest, SnapshotAggregatesAndWindows) {
  LatencyRecorder recorder(/*window_capacity=*/100);
  for (int i = 1; i <= 100; ++i) recorder.Record(i);
  const LatencySnapshot snap = recorder.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.window, 100u);
  EXPECT_EQ(snap.max_us, 100.0);
  EXPECT_DOUBLE_EQ(snap.mean_us, 50.5);
  EXPECT_EQ(snap.p50_us, 50.0);
  EXPECT_EQ(snap.p95_us, 95.0);
  EXPECT_EQ(snap.p99_us, 99.0);
}

TEST(LatencyRecorderTest, WindowBoundsPercentilesButNotTotals) {
  LatencyRecorder recorder(/*window_capacity=*/4);
  for (int i = 1; i <= 8; ++i) recorder.Record(i);
  const LatencySnapshot snap = recorder.Snapshot();
  EXPECT_EQ(snap.count, 8u);   // all-time
  EXPECT_EQ(snap.window, 4u);  // percentile window: {5, 6, 7, 8}
  EXPECT_EQ(snap.max_us, 8.0);
  EXPECT_EQ(snap.p50_us, 6.0);
  EXPECT_EQ(snap.p99_us, 8.0);
  // Negative samples clamp instead of corrupting the aggregates.
  recorder.Record(-5.0);
  EXPECT_EQ(recorder.Snapshot().max_us, 8.0);
}

// --------------------------------------------------------------------------
// QueryService

// The pinned cornerstone: hits through the service — any trigger, any
// batch composition, cached or not — are bitwise identical to a direct
// BatchKnnEngine::QueryBatch of the same query.
TEST(QueryServiceTest, HitsBitwiseIdenticalToDirectBatch) {
  const ts::Dataset ds = SmallGun(18);
  KnnEngine engine;
  engine.Index(ds);
  const std::vector<ts::TimeSeries> queries(ds.begin(), ds.begin() + 6);
  const auto expected = DirectHits(engine, queries, 3);

  struct Config {
    const char* name;
    ServiceOptions options;
  };
  std::vector<Config> configs;
  {
    configs.push_back({"default", ServiceOptions{}});  // work-conserving

    ServiceOptions size_trigger;  // batch cut by size: 6 queries, batch 2
    size_trigger.max_batch = 2;
    size_trigger.max_delay = std::chrono::duration_cast<microseconds>(
        std::chrono::seconds(10));
    configs.push_back({"size-trigger", size_trigger});

    ServiceOptions age_trigger;  // batch cut by age only
    age_trigger.max_batch = 64;
    age_trigger.max_delay = microseconds(1000);
    configs.push_back({"age-trigger", age_trigger});

    ServiceOptions batch_of_one;  // no coalescing at all
    batch_of_one.max_batch = 1;
    batch_of_one.max_delay = microseconds(0);
    configs.push_back({"batch-of-1", batch_of_one});

    ServiceOptions uncached;  // cache off: derive every time
    uncached.cache_capacity = 0;
    uncached.max_batch = 4;
    uncached.max_delay = microseconds(500);
    configs.push_back({"uncached", uncached});
  }

  for (const Config& config : configs) {
    QueryService service(engine, config.options);
    std::vector<std::future<QueryService::Result>> futures;
    for (const ts::TimeSeries& q : queries) {
      auto f = service.Submit(q, 3);
      ASSERT_TRUE(f.has_value()) << config.name;
      futures.push_back(std::move(*f));
    }
    for (std::size_t q = 0; q < queries.size(); ++q) {
      if (const auto hits = GetHits(futures[q], config.name)) {
        ExpectSameHits(*hits, expected[q], config.name);
      }
    }
    service.Shutdown();
    const ServiceMetrics m = service.metrics();
    EXPECT_EQ(m.submitted, queries.size()) << config.name;
    EXPECT_EQ(m.completed, queries.size()) << config.name;
    EXPECT_EQ(m.rejected, 0u) << config.name;
    EXPECT_GE(m.batches, 1u) << config.name;
    EXPECT_EQ(m.completed, m.ok + m.failed + m.shed) << config.name;
    if (!FaultsArmed()) {
      EXPECT_EQ(m.latency.count, queries.size()) << config.name;
    }
    EXPECT_LE(m.latency.p50_us, m.latency.p95_us) << config.name;
    EXPECT_LE(m.latency.p95_us, m.latency.p99_us) << config.name;
  }
}

TEST(QueryServiceTest, ConcurrentSubmittersGetIdenticalHits) {
  const ts::Dataset ds = SmallGun(16);
  KnnEngine engine;
  engine.Index(ds);
  const std::vector<ts::TimeSeries> queries(ds.begin(), ds.begin() + 8);
  const auto expected = DirectHits(engine, queries, 3);

  for (const std::size_t submitters : {1u, 2u, 4u, 8u}) {
    ServiceOptions options;
    options.max_batch = 8;
    options.max_delay = microseconds(500);
    options.queue_capacity = 64;
    QueryService service(engine, options);

    std::vector<std::thread> threads;
    // char, not bool: vector<bool> packs bits into shared words, which
    // would be a real data race across submitter threads.
    std::vector<char> ok(submitters, 0);
    for (std::size_t t = 0; t < submitters; ++t) {
      threads.emplace_back([&, t]() {
        bool all_good = true;
        // Each submitter pushes every query, offset so interleavings mix
        // different queries into the same micro-batches.
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const std::size_t q = (i + t) % queries.size();
          auto f = service.Submit(queries[q], 3);
          if (!f.has_value()) {
            all_good = false;
            continue;
          }
          const QueryService::Result result = f->get();
          if (!result.ok()) {
            // Only a fault-matrix run may fail a request.
            all_good = all_good && FaultsArmed();
            continue;
          }
          const auto& hits = *result;
          if (hits.size() != expected[q].size()) {
            all_good = false;
            continue;
          }
          for (std::size_t h = 0; h < hits.size(); ++h) {
            all_good = all_good && hits[h].index == expected[q][h].index &&
                       hits[h].distance == expected[q][h].distance;
          }
        }
        ok[t] = all_good;
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t t = 0; t < submitters; ++t) {
      EXPECT_TRUE(ok[t]) << submitters << " submitters, thread " << t;
    }
    service.Shutdown();
    EXPECT_EQ(service.metrics().completed, submitters * queries.size())
        << submitters;
  }
}

TEST(QueryServiceTest, CacheHitIdenticalToMiss) {
  const ts::Dataset ds = SmallGun(12);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.max_batch = 1;  // one query per batch: the second submit of a
  options.max_delay = microseconds(0);  // query is a guaranteed cache hit
  QueryService service(engine, options);

  const auto first = service.Query(ds[0], 4);   // derivative cache miss
  const auto second = service.Query(ds[0], 4);  // derivative cache hit
  if (!FaultsArmed()) {
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    const ServiceMetrics m = service.metrics();
    EXPECT_EQ(m.cache.misses, 1u);
    EXPECT_EQ(m.cache.hits, 1u);
    EXPECT_EQ(m.cache.insertions, 1u);
  }
  // Cached replay stays bitwise identical whenever both runs complete —
  // fault matrix or not (a faulted fill only skips the cache, never
  // corrupts it).
  if (first.ok() && second.ok()) {
    ExpectSameHits(*second, *first, "cached replay");
  }
}

TEST(QueryServiceTest, CoalescesDuplicatesWithinBatch) {
  const ts::Dataset ds = SmallGun(12);
  KnnEngine engine;
  engine.Index(ds);
  const auto expected = DirectHits(engine, {ds[1]}, 3)[0];

  ServiceOptions options;
  options.max_batch = 16;  // size trigger exactly at our submission count;
  options.max_delay = std::chrono::duration_cast<microseconds>(
      std::chrono::seconds(10));  // deadline can't fire first
  QueryService service(engine, options);

  std::vector<std::future<QueryService::Result>> futures;
  for (int i = 0; i < 16; ++i) {
    auto f = service.Submit(ds[1], 3);
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  for (auto& f : futures) {
    if (const auto hits = GetHits(f, "duplicate")) {
      ExpectSameHits(*hits, expected, "duplicate");
    }
  }

  service.Shutdown();
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.batches, 1u);
  EXPECT_EQ(m.completed, 16u);
  EXPECT_EQ(m.coalesced, 15u);  // one scan answered all 16
}

TEST(QueryServiceTest, DefaultDispatchIsWorkConserving) {
  // The default cuts a batch the moment the dispatcher is free; requests
  // that queue up during a scan still leave together as the next batch.
  EXPECT_EQ(ServiceOptions{}.max_delay, microseconds(0));

  const ts::Dataset ds = SmallGun(12);
  KnnEngine engine;
  engine.Index(ds);
  const std::vector<ts::TimeSeries> distinct{ds[1], ds[2]};
  const auto expected = DirectHits(engine, distinct, 3);
  constexpr std::size_t kHeldRequests = 8;

  bool held = false;
  for (int attempt = 0; !held && attempt < kHoldAttempts; ++attempt) {
    QueryService service(engine);
    DispatcherHold hold(service, ds[0], 3);
    std::vector<std::future<QueryService::Result>> futures;
    for (std::size_t i = 0; i < kHeldRequests; ++i) {
      auto f = service.Submit(distinct[i % 2], 3);
      ASSERT_TRUE(f.has_value()) << i;
      futures.push_back(std::move(*f));
    }
    held = hold.Held();
    if (!held) continue;  // a request was cut before the others were queued

    for (std::size_t i = 0; i < kHeldRequests; ++i) {
      if (const auto hits = GetHits(futures[i], "held")) {
        ExpectSameHits(*hits, expected[i % 2], "held");
      }
    }
    GetHits(hold.decoy(), "decoy");
    service.Shutdown();
    const ServiceMetrics m = service.metrics();
    EXPECT_EQ(m.batches, 2u) << "the decoy, then every held request at once";
    EXPECT_EQ(m.coalesced, kHeldRequests - distinct.size());
    EXPECT_EQ(m.completed, kHeldRequests + 1);
  }
  ASSERT_TRUE(held) << kNeverHeld;
}

TEST(QueryServiceTest, MixedKRequestsEachGetTheirOwnK) {
  // Different k on the same and different queries in one batch: each
  // request gets exactly the first k of the full ranking (truncation
  // property), bitwise equal to a dedicated scan at that k.
  const ts::Dataset ds = SmallGun(14);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.max_batch = 5;
  options.max_delay = std::chrono::duration_cast<microseconds>(
      std::chrono::seconds(10));
  QueryService service(engine, options);

  struct Want {
    std::size_t query;
    std::size_t k;
  };
  const std::vector<Want> wants{{0, 1}, {0, 4}, {0, 2}, {3, 5}, {3, 1}};
  std::vector<std::future<QueryService::Result>> futures;
  for (const Want& w : wants) {
    auto f = service.Submit(ds[w.query], w.k);
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  for (std::size_t i = 0; i < wants.size(); ++i) {
    const auto expected =
        DirectHits(engine, {ds[wants[i].query]}, wants[i].k)[0];
    if (const auto hits = GetHits(futures[i], "mixed k")) {
      ExpectSameHits(*hits, expected, "mixed k");
    }
  }
}

TEST(QueryServiceTest, ZeroKCompletesEmpty) {
  const ts::Dataset ds = SmallGun(8);
  KnnEngine engine;
  engine.Index(ds);
  QueryService service(engine);
  // k == 0 runs no scan at all, so not even a fault-matrix worker fault
  // can touch it: always ok, always empty.
  const auto result = service.Query(ds[0], 0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->empty());
  EXPECT_EQ(service.metrics().completed, 1u);
}

TEST(QueryServiceTest, ShutdownDrainsInFlightWork) {
  const ts::Dataset ds = SmallGun(12);
  KnnEngine engine;
  engine.Index(ds);
  const std::vector<ts::TimeSeries> queries(ds.begin(), ds.begin() + 5);
  const auto expected = DirectHits(engine, queries, 3);

  ServiceOptions options;
  options.max_batch = 64;  // deadline far away: requests sit queued...
  options.max_delay = std::chrono::duration_cast<microseconds>(
      std::chrono::seconds(30));
  auto service = std::make_unique<QueryService>(engine, options);

  std::vector<std::future<QueryService::Result>> futures;
  for (const ts::TimeSeries& q : queries) {
    auto f = service->Submit(q, 3);
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  // ...until Shutdown, which must complete every admitted request without
  // waiting out the 30s deadline, then refuse new work.
  service->Shutdown();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(futures[q].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << q;
    if (const auto hits = GetHits(futures[q], "drained")) {
      ExpectSameHits(*hits, expected[q], "drained");
    }
  }
  EXPECT_FALSE(service->Submit(queries[0], 3).has_value());
  const ServiceMetrics m = service->metrics();
  EXPECT_EQ(m.completed, queries.size());
  EXPECT_EQ(m.rejected, 1u);
  service.reset();  // double shutdown via destructor: must be clean
}

TEST(QueryServiceTest, RejectPolicyShedsLoadAtCapacity) {
  const ts::Dataset ds = SmallGun(10);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.queue_capacity = 1;
  options.admission = AdmissionPolicy::kReject;
  options.max_batch = 64;  // dispatcher holds the queued request at the
  options.max_delay = std::chrono::duration_cast<microseconds>(
      std::chrono::seconds(30));  // deadline, keeping the queue full
  QueryService service(engine, options);

  auto admitted = service.Submit(ds[0], 3);
  ASSERT_TRUE(admitted.has_value());
  // The queue is at capacity and the dispatcher is parked on the deadline:
  // the second submit must be rejected, deterministically.
  EXPECT_FALSE(service.Submit(ds[1], 3).has_value());

  service.Shutdown();  // drains the admitted request immediately
  if (const auto hits = GetHits(*admitted, "admitted")) {
    ExpectSameHits(*hits, DirectHits(engine, {ds[0]}, 3)[0], "admitted");
  }
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.submitted, 1u);
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.completed, 1u);
}

TEST(QueryServiceTest, BlockPolicyAppliesBackpressureThenAdmits) {
  const ts::Dataset ds = SmallGun(10);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.queue_capacity = 1;
  options.admission = AdmissionPolicy::kBlock;
  options.max_batch = 64;
  options.max_delay = microseconds(20'000);  // queue drains every 20ms
  QueryService service(engine, options);

  // 6 sequential submits through a capacity-1 queue: most of them find the
  // queue full and must park until the dispatcher ships a batch. All are
  // eventually admitted and answered correctly.
  const auto expected = DirectHits(engine, {ds[2]}, 3)[0];
  std::vector<std::future<QueryService::Result>> futures;
  std::thread submitter([&]() {
    for (int i = 0; i < 6; ++i) {
      auto f = service.Submit(ds[2], 3);
      ASSERT_TRUE(f.has_value()) << i;
      futures.push_back(std::move(*f));
    }
  });
  submitter.join();
  for (auto& f : futures) {
    if (const auto hits = GetHits(f, "blocked")) {
      ExpectSameHits(*hits, expected, "blocked");
    }
  }
  service.Shutdown();
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.submitted, 6u);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.completed, 6u);
}

}  // namespace
}  // namespace retrieval
}  // namespace sdtw
