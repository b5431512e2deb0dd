// Retrieval service throughput and latency: a repeat-heavy stream of
// single-query requests answered three ways over the same index —
//
//   seq-loop   one thread, one KnnEngine::Query call per request (every
//              request pays derivative extraction + a full cascade scan);
//   loop@T     T submitter threads doing the same direct Query calls
//              (the strongest no-service baseline at T clients);
//   service    T submitter threads pushing the same requests through
//              QueryService: bounded admission, the default
//              work-conserving micro-batching (requests that queue up
//              during a scan leave together as the next batch, up to
//              max_batch), persistent workers with reused scratch,
//              content-keyed derivative caching, in-batch duplicate
//              coalescing.
//
// The service wins even on a single core because it removes *work*, not
// just wall time: duplicate requests inside one micro-batch share a
// single scan (truncated per request), and repeated queries across
// batches skip derivative extraction via the cache. The workload models
// a hot-key serving mix: `requests` draws over `unique` distinct
// queries, so each distinct query is requested many times.
//
// Every service result is checked bitwise against a direct
// BatchKnnEngine scan of that query alone; any divergence exits 1. At
// full (non-smoke) scale the run FAILS unless the service clears 2x the
// loop@T baseline's throughput — the PR's acceptance bar.
//
//   --requests=N --unique=N --series=N --length=N     workload scale
//   --submitters=N                                    client threads
//   --smoke                                           tiny CI scale
//   --seed=S                                          generator seed
//   --faults     re-run the stream against a second service instance with
//                deterministic fault injection armed (seeded worker and
//                derivative-cache-fill faults, equivalent to a fixed
//                SDTW_FAULT spec) and a slice of tight per-request
//                deadlines. The run FAILS unless the service survives —
//                every future resolves, Shutdown returns — and every
//                request that completed OK is bitwise identical to the
//                direct scan. Shed/retry/fault rates land in the JSON.
//   --json=FILE  amend the bench_batch_retrieval baseline (adds a
//                "service" block with p50/p95/p99 latency, throughput,
//                cache hit rate) or write a standalone file when the
//                baseline is missing
//
// scripts/bench_smoke.sh runs this after bench_batch_retrieval against
// the same BENCH_retrieval.json so CI's perf artifact carries the
// service numbers too.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/fault_injector.h"
#include "data/generators.h"
#include "retrieval/batch.h"
#include "retrieval/knn.h"
#include "retrieval/service.h"
#include "ts/random.h"

namespace {

using sdtw::retrieval::Hit;

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Scale {
  std::size_t num_series = 400;
  std::size_t length = 128;
  std::size_t unique_queries = 16;
  std::size_t requests = 512;
  std::size_t k = 5;
  std::size_t submitters = 8;
  std::size_t max_batch = 64;
  std::size_t cache_capacity = 256;
};

bool SameHits(const std::vector<Hit>& a, const std::vector<Hit>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index || a[i].distance != b[i].distance) {
      return false;
    }
  }
  return true;
}

// [first, last) slice of the request stream owned by submitter `t`.
std::pair<std::size_t, std::size_t> Slice(std::size_t total,
                                          std::size_t threads, std::size_t t) {
  const std::size_t per = total / threads;
  const std::size_t extra = total % threads;
  const std::size_t first = t * per + std::min(t, extra);
  return {first, first + per + (t < extra ? 1 : 0)};
}

// Amends the bench_batch_retrieval baseline in place: drops the final
// closing brace and splices the service block in, so one JSON artifact
// carries the whole perf trajectory. Returns false when the file is
// missing or not in the expected shape (caller falls back to standalone).
bool AmendJson(const char* path, const std::string& service_block) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return false;
  std::string content;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  while (!content.empty() &&
         (content.back() == '\n' || content.back() == ' ')) {
    content.pop_back();
  }
  if (content.empty() || content.back() != '}') return false;
  if (content.find("\"schema\": \"sdtw-bench-retrieval-v4\"") ==
          std::string::npos ||
      content.find("\"service\":") != std::string::npos) {
    return false;
  }
  content.pop_back();  // the final '}'
  while (!content.empty() && content.back() == '\n') content.pop_back();
  content += ",\n  \"service\": ";
  content += service_block;
  content += "\n}\n";
  f = std::fopen(path, "wb");
  if (f == nullptr) return false;
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sdtw;
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);

  Scale scale;
  if (config.smoke) {
    scale.num_series = 40;
    scale.length = 48;
    scale.unique_queries = 6;
    scale.requests = 48;
    scale.submitters = 4;
    scale.max_batch = 16;
  }
  std::string json_path;
  bool run_faults = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--faults") {
      run_faults = true;
    } else if (arg.rfind("--requests=", 0) == 0) {
      scale.requests = std::strtoul(arg.c_str() + 11, nullptr, 10);
    } else if (arg.rfind("--unique=", 0) == 0) {
      scale.unique_queries = std::strtoul(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--series=", 0) == 0) {
      scale.num_series = std::strtoul(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--length=", 0) == 0) {
      scale.length = std::strtoul(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--submitters=", 0) == 0) {
      scale.submitters = std::strtoul(arg.c_str() + 13, nullptr, 10);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    }
  }
  if (scale.submitters == 0) scale.submitters = 1;
  if (scale.unique_queries == 0) scale.unique_queries = 1;

  data::GeneratorOptions gopt;
  gopt.seed = config.seed;
  gopt.num_series = scale.num_series;
  gopt.length = scale.length;
  const ts::Dataset index_set = data::MakeTraceLike(gopt);

  data::GeneratorOptions qopt = gopt;
  qopt.seed = config.seed + 1;
  qopt.num_series = scale.unique_queries;
  const ts::Dataset query_set = data::MakeTraceLike(qopt);
  const std::vector<ts::TimeSeries> uniques(query_set.begin(),
                                            query_set.end());

  // The request stream: `requests` draws over the distinct queries, fixed
  // by the seed so every mode answers the identical stream.
  ts::Rng stream_rng(config.seed + 99);
  std::vector<std::size_t> stream(scale.requests);
  for (std::size_t& r : stream) {
    r = static_cast<std::size_t>(stream_rng.UniformInt(
        0, static_cast<std::int64_t>(scale.unique_queries) - 1));
  }

  retrieval::KnnOptions kopt;  // default: sDTW, LB-ordered cascade
  retrieval::KnnEngine engine(kopt);
  engine.Index(index_set);

  // Ground truth per distinct query: a direct one-query batch scan.
  const retrieval::BatchKnnEngine direct(engine);
  std::vector<std::vector<Hit>> expected;
  expected.reserve(uniques.size());
  for (const ts::TimeSeries& q : uniques) {
    const std::vector<ts::TimeSeries> one{q};
    expected.push_back(direct.QueryBatch(one, scale.k)[0]);
  }

  std::printf(
      "retrieval service: %zu requests over %zu distinct queries, "
      "%zu indexed series (len %zu), k=%zu, %zu submitters, "
      "max_batch=%zu\n\n",
      scale.requests, scale.unique_queries, index_set.size(), scale.length,
      scale.k, scale.submitters, scale.max_batch);

  // --- Baseline 1: sequential single-query loop. --------------------------
  const auto t_seq = std::chrono::steady_clock::now();
  for (const std::size_t r : stream) {
    volatile std::size_t sink = engine.Query(uniques[r], scale.k).size();
    (void)sink;
  }
  const double seq_seconds = Seconds(t_seq);
  const double seq_qps = static_cast<double>(scale.requests) / seq_seconds;
  std::printf("%-14s %10.3fs %12.1f req/s\n", "seq-loop", seq_seconds,
              seq_qps);

  // --- Baseline 2: the same direct calls from `submitters` threads. -------
  const auto t_loop = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < scale.submitters; ++t) {
      threads.emplace_back([&, t]() {
        const auto [first, last] = Slice(scale.requests, scale.submitters, t);
        for (std::size_t i = first; i < last; ++i) {
          volatile std::size_t sink =
              engine.Query(uniques[stream[i]], scale.k).size();
          (void)sink;
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  const double loop_seconds = Seconds(t_loop);
  const double loop_qps = static_cast<double>(scale.requests) / loop_seconds;
  std::printf("%-14s %10.3fs %12.1f req/s\n", "loop@threads", loop_seconds,
              loop_qps);

  // --- The service. --------------------------------------------------------
  retrieval::ServiceOptions sopt;
  sopt.max_batch = scale.max_batch;
  sopt.queue_capacity = std::max<std::size_t>(scale.requests, 64);
  sopt.cache_capacity = scale.cache_capacity;
  retrieval::QueryService service(engine, sopt);

  bool identical = true;
  const auto t_service = std::chrono::steady_clock::now();
  double service_seconds = 0.0;
  {
    std::vector<std::thread> threads;
    std::vector<bool> thread_ok(scale.submitters, true);
    for (std::size_t t = 0; t < scale.submitters; ++t) {
      threads.emplace_back([&, t]() {
        const auto [first, last] = Slice(scale.requests, scale.submitters, t);
        std::vector<std::future<retrieval::QueryService::Result>> futures;
        futures.reserve(last - first);
        // Submit the whole slice before collecting: a real client fleet
        // keeps many requests in flight, which is what lets batches fill.
        for (std::size_t i = first; i < last; ++i) {
          auto f = service.Submit(uniques[stream[i]], scale.k);
          if (!f.has_value()) {
            thread_ok[t] = false;
            continue;
          }
          futures.push_back(std::move(*f));
        }
        std::size_t fi = 0;
        for (std::size_t i = first; i < last; ++i) {
          if (fi >= futures.size()) break;
          const auto result = futures[fi++].get();
          if (!result.ok() || !SameHits(*result, expected[stream[i]])) {
            thread_ok[t] = false;
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    service_seconds = Seconds(t_service);
    for (const bool ok : thread_ok) identical = identical && ok;
  }
  const double service_qps =
      static_cast<double>(scale.requests) / service_seconds;
  const double speedup = loop_seconds > 0.0 && service_seconds > 0.0
                             ? loop_seconds / service_seconds
                             : 0.0;
  std::printf("%-14s %10.3fs %12.1f req/s %8.2fx vs loop  %s\n", "service",
              service_seconds, service_qps, speedup,
              identical ? "ok" : "MISMATCH");

  service.Shutdown();
  const retrieval::ServiceMetrics m = service.metrics();
  const double cache_lookups =
      static_cast<double>(m.cache.hits + m.cache.misses);
  const double cache_hit_rate =
      cache_lookups > 0.0 ? static_cast<double>(m.cache.hits) / cache_lookups
                          : 0.0;
  const double coalesce_rate =
      m.completed > 0
          ? static_cast<double>(m.coalesced) / static_cast<double>(m.completed)
          : 0.0;
  std::printf(
      "\n  batches %zu (avg size %.1f), coalesced %zu/%zu requests "
      "(%.1f%%), derivative cache hit rate %.1f%%\n",
      m.batches,
      m.batches > 0
          ? static_cast<double>(m.completed) / static_cast<double>(m.batches)
          : 0.0,
      m.coalesced, m.completed, 100.0 * coalesce_rate,
      100.0 * cache_hit_rate);
  std::printf(
      "  submit->complete latency: p50 %.0fus  p95 %.0fus  p99 %.0fus  "
      "mean %.0fus  max %.0fus\n",
      m.latency.p50_us, m.latency.p95_us, m.latency.p99_us, m.latency.mean_us,
      m.latency.max_us);

  // --- Fault-injection survival run (--faults). ----------------------------
  // The same stream against a fresh service instance, but with seeded
  // deterministic faults armed (equivalent to
  // SDTW_FAULT="retrieval.worker:R:1201,retrieval.cache_fill:R:1202") and
  // every 8th request carrying a tight deadline. Worker faults poison whole
  // micro-batches, which the service must isolate and retry; fill faults
  // degrade the derivative cache, which must never change results. The bar:
  // the service survives (every future resolves, Shutdown returns) and every
  // request that reports OK is bitwise identical to the direct scan.
  // Rates are high enough that faults reliably fire even at smoke scale
  // (a handful of batches), yet low enough that bounded retries recover
  // most poisoned batches. The faulted instance pins num_workers so the
  // per-batch draw count (one per worker per execution phase) does not
  // depend on the host's core count.
  constexpr double kWorkerFaultRate = 0.10;
  constexpr double kFillFaultRate = 0.30;
  constexpr std::size_t kFaultWorkers = 4;
  struct FaultStats {
    bool ran = false;
    bool survived = false;
    bool ok_hits_identical = true;
    retrieval::ServiceMetrics metrics;
  } fstats;
  if (run_faults) {
    fstats.ran = true;
    core::ScopedFault worker_fault(retrieval::kFaultSiteWorker,
                                   kWorkerFaultRate, 1201);
    core::ScopedFault fill_fault(retrieval::kFaultSiteCacheFill,
                                 kFillFaultRate, 1202);
    retrieval::ServiceOptions fopt = sopt;
    fopt.num_workers = kFaultWorkers;
    retrieval::QueryService faulted(engine, fopt);
    std::vector<std::thread> threads;
    std::vector<bool> thread_ok(scale.submitters, true);
    for (std::size_t t = 0; t < scale.submitters; ++t) {
      threads.emplace_back([&, t]() {
        const auto [first, last] = Slice(scale.requests, scale.submitters, t);
        std::vector<std::pair<std::size_t,
                              std::future<retrieval::QueryService::Result>>>
            futures;
        futures.reserve(last - first);
        for (std::size_t i = first; i < last; ++i) {
          retrieval::RequestOptions ropt;
          if (i % 8 == 7) {
            ropt = retrieval::RequestOptions::WithTimeout(
                std::chrono::microseconds(500));
          }
          auto f = faulted.Submit(uniques[stream[i]], scale.k, ropt);
          if (!f.has_value()) continue;  // admission full: counted as rejected
          futures.emplace_back(i, std::move(*f));
        }
        for (auto& [i, f] : futures) {
          const auto result = f.get();
          if (result.ok() && !SameHits(*result, expected[stream[i]])) {
            thread_ok[t] = false;
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    faulted.Shutdown();
    fstats.survived = true;  // every future resolved, Shutdown returned
    for (const bool ok : thread_ok) {
      fstats.ok_hits_identical = fstats.ok_hits_identical && ok;
    }
    fstats.metrics = faulted.metrics();
    const auto& fm = fstats.metrics;
    std::printf(
        "\n  faults (worker %.0f%%, cache fill %.0f%%): %zu ok, %zu failed, "
        "%zu shed, %zu worker faults, %zu retries  %s\n",
        100.0 * kWorkerFaultRate, 100.0 * kFillFaultRate, fm.ok, fm.failed,
        fm.shed, fm.worker_faults, fm.retries,
        fstats.ok_hits_identical ? "ok-hits identical" : "MISMATCH");
  }

  if (!json_path.empty()) {
    const auto& fm = fstats.metrics;
    const double fault_requests = static_cast<double>(scale.requests);
    char faults_block[1024];
    if (fstats.ran) {
      std::snprintf(
          faults_block, sizeof(faults_block),
          "{\"ran\": true, \"worker_rate\": %.4f, "
          "\"cache_fill_rate\": %.4f, \"ok\": %zu, \"failed\": %zu, "
          "\"shed\": %zu, \"worker_faults\": %zu, \"retries\": %zu, "
          "\"shed_rate\": %.4f, \"retry_rate\": %.4f, "
          "\"survived\": %s, \"ok_hits_identical\": %s}",
          kWorkerFaultRate, kFillFaultRate, fm.ok, fm.failed, fm.shed,
          fm.worker_faults, fm.retries,
          static_cast<double>(fm.shed) / fault_requests,
          static_cast<double>(fm.retries) / fault_requests,
          fstats.survived ? "true" : "false",
          fstats.ok_hits_identical ? "true" : "false");
    } else {
      std::snprintf(faults_block, sizeof(faults_block), "{\"ran\": false}");
    }
    char block[4096];
    std::snprintf(
        block, sizeof(block),
        "{\n"
        "    \"scale\": {\"series\": %zu, \"length\": %zu, "
        "\"unique_queries\": %zu, \"requests\": %zu, \"k\": %zu, "
        "\"submitters\": %zu, \"max_batch\": %zu, \"max_delay_us\": %lld, "
        "\"cache_capacity\": %zu, \"smoke\": %s},\n"
        "    \"seq_loop_seconds\": %.6f,\n"
        "    \"loop_seconds\": %.6f,\n"
        "    \"service_seconds\": %.6f,\n"
        "    \"seq_loop_qps\": %.1f,\n"
        "    \"loop_qps\": %.1f,\n"
        "    \"service_qps\": %.1f,\n"
        "    \"speedup_vs_loop\": %.3f,\n"
        "    \"batches\": %zu,\n"
        "    \"coalesce_rate\": %.4f,\n"
        "    \"cache_hit_rate\": %.4f,\n"
        "    \"latency\": {\"count\": %zu, \"p50_us\": %.1f, "
        "\"p95_us\": %.1f, \"p99_us\": %.1f, \"mean_us\": %.1f, "
        "\"max_us\": %.1f},\n"
        "    \"hits_identical\": %s,\n"
        "    \"faults\": %s\n"
        "  }",
        scale.num_series, scale.length, scale.unique_queries, scale.requests,
        scale.k, scale.submitters, scale.max_batch,
        static_cast<long long>(sopt.max_delay.count()),
        scale.cache_capacity, config.smoke ? "true" : "false", seq_seconds,
        loop_seconds, service_seconds, seq_qps, loop_qps, service_qps,
        speedup, m.batches, coalesce_rate, cache_hit_rate, m.latency.count,
        m.latency.p50_us, m.latency.p95_us, m.latency.p99_us,
        m.latency.mean_us, m.latency.max_us, identical ? "true" : "false",
        faults_block);
    if (AmendJson(json_path.c_str(), block)) {
      std::printf("service block amended into %s\n", json_path.c_str());
    } else {
      // No (or incompatible) bench_batch_retrieval baseline to amend:
      // write a standalone file so the numbers are never dropped.
      std::FILE* f = std::fopen(json_path.c_str(), "w");
      if (f != nullptr) {
        std::fprintf(f, "{\n  \"schema\": \"sdtw-bench-service-v1\",\n");
        std::fprintf(f, "  \"service\": %s\n}\n", block);
        std::fclose(f);
        std::printf("standalone service baseline written to %s\n",
                    json_path.c_str());
      } else {
        std::fprintf(stderr, "warning: cannot write %s\n", json_path.c_str());
      }
    }
  }

  if (!identical) {
    std::fprintf(stderr,
                 "FAILED: service hits diverge from direct single-query "
                 "scans\n");
    return 1;
  }
  if (fstats.ran && (!fstats.survived || !fstats.ok_hits_identical)) {
    std::fprintf(stderr,
                 "FAILED: faulted service run %s\n",
                 !fstats.survived ? "did not survive"
                                  : "returned OK hits that diverge from "
                                    "direct single-query scans");
    return 1;
  }
  if (!config.smoke && speedup < 2.0) {
    std::fprintf(stderr,
                 "FAILED: service speedup %.2fx vs %zu-thread query loop "
                 "is below the 2x acceptance bar\n",
                 speedup, scale.submitters);
    return 1;
  }
  return 0;
}
