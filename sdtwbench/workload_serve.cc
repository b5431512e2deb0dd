// serve_zipf: QueryService over the knn_sdtw index under open-loop load.
// One sender thread issues Poisson arrivals at fixed offered rates; query
// popularity is Zipf(1.0) over 512 distinct queries, a working set larger
// than the service's 256-entry derivative cache. Every request carries a
// deadline of its intended send time + 1 s. Latency runs from the
// intended send time, so a stall that delays later sends is charged to
// them. A collector thread waits on the futures in send order; the queue
// is FIFO when deadlines are monotone, so each get() returns as its
// request completes.
//
// The traffic is synthetic: the rates, Poisson arrivals and Zipf(1.0)
// popularity are assumptions, not a measured or published workload.
//
// Phases: a warm-up at 100 req/s (not reported), slices of 50 req/s each
// followed by a closed-loop burst that submits back-to-back without
// deadlines and measures the service's capacity, and 100 req/s in traced
// runs. At 50 req/s nearly every
// batch holds one request and nothing coalesces, so the latency metrics
// measure single-request serving; the bursts fill batches of 32, where
// batching and coalescing act, so only `throughput` measures those.

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>

#include "common.h"
#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "data/generators.h"
#include "probes.h"
#include "retrieval/batch.h"
#include "retrieval/service.h"
#include "ts/random.h"

namespace sdtwbench {

namespace {

using sdtw::retrieval::BatchKnnEngine;
using sdtw::retrieval::Hit;
using sdtw::retrieval::KnnEngine;
using sdtw::retrieval::QueryService;
using sdtw::retrieval::ServiceMetrics;
using sdtw::ts::TimeSeries;

constexpr auto kDeadline = std::chrono::seconds(1);

struct Scale {
  std::size_t index_series;
  std::size_t length;
  std::size_t distinct;
  std::size_t overlap_queries;
  std::size_t probe_pairs;
};

constexpr Scale kFull{1000, 128, 512, 256, 2000};
constexpr Scale kSmoke{60, 48, 32, 16, 40};

struct Phase {
  const char* name;
  double rate;  ///< Offered req/s; 0 = back-to-back burst.
  std::size_t requests;
  bool deadline;
};

/// Capacity is the median completion rate of this many bursts, each after
/// a slice of the 50 req/s phase, so that they sample the machine's speed
/// across the run: a single 2.5 s burst read 242 and 326 req/s in two
/// runs of one seed, as a stall of the machine took a share of it.
constexpr std::size_t kBursts = 5;

/// The phases of a run of `seconds` measured seconds: warm-up, 50 req/s
/// slices each followed by a burst, and 100 req/s when traced. Most
/// batches at these rates hold one query, whose scan keeps the worker pool
/// busy for several ms, so 100 req/s already loads the pool by about half,
/// and when the machine slows down queueing multiplies the slowdown in
/// latency (a 45% slower machine raised p50 fivefold). Latency is
/// therefore gated at 50 req/s and 100 req/s is a per-layer view. At 20 s,
/// 50 req/s gets 750 requests untraced and 300 traced; 100 req/s gets
/// 1000; the bursts 800. A burst's collector waits for its last
/// completion, so each slice starts on an idle service.
std::vector<Phase> Phases(double seconds, bool smoke, bool traced) {
  const auto n = [&](double rate, double share) {
    return smoke ? static_cast<std::size_t>(rate / 5)
                 : static_cast<std::size_t>(std::lround(rate * share * seconds));
  };
  std::vector<Phase> phases{{"warmup", 100, n(100, 0.1), true}};
  for (std::size_t i = 0; i < kBursts; ++i) {
    phases.push_back({"r50", 50, n(50, traced ? 0.3 : 0.75) / kBursts, true});
    phases.push_back({"sat", 0, n(40, 1.0) / kBursts, false});
  }
  if (traced) phases.push_back({"r100", 100, n(100, 0.5), true});
  return phases;
}

/// A request handed from the sender to the collector.
struct Pending {
  std::future<QueryService::Result> future;
  Clock::time_point intended;
  std::size_t query;
  std::uint64_t request;  ///< Sequence number over the whole run.
  std::uint64_t span;     ///< Request span id; 0 when untraced.
  double submit_ms;       ///< Time inside QueryService::Submit.
};

/// What the collector saw for one request.
struct Outcome {
  std::size_t query;
  bool ok;
  std::vector<Hit> hits;
  double latency_ms;
  bool traced;
  double submit_ms;
};

/// Single-producer, single-consumer hand-off in send order.
class PendingQueue {
 public:
  void Push(Pending p) {
    {
      sdtw::core::MutexLock lock(mu_);
      items_.push_back(std::move(p));
    }
    cv_.NotifyOne();
  }
  void Close() {
    {
      sdtw::core::MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.NotifyOne();
  }
  std::optional<Pending> Pop() {
    sdtw::core::UniqueLock lock(mu_);
    while (!closed_ && items_.empty()) cv_.Wait(lock);
    if (items_.empty()) return std::nullopt;
    Pending p = std::move(items_.front());
    items_.pop_front();
    return p;
  }

 private:
  sdtw::core::Mutex mu_;
  sdtw::core::CondVar cv_;
  std::deque<Pending> items_ SDTW_GUARDED_BY(mu_);
  bool closed_ SDTW_GUARDED_BY(mu_) = false;
};

/// Zipf(1.0) popularity over `n` queries, ranks shuffled by the seed.
class ZipfPicker {
 public:
  ZipfPicker(std::size_t n, std::uint64_t seed) : rng_(seed), rank_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    for (std::size_t r = 0; r < n; ++r) rank_[r] = r;
    std::shuffle(rank_.begin(), rank_.end(), rng_.engine());
  }
  std::size_t Next() {
    const double u = rng_.Uniform(0.0, 1.0);
    const std::size_t r = static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return rank_[std::min(r, rank_.size() - 1)];
  }
  sdtw::ts::Rng& rng() { return rng_; }

 private:
  sdtw::ts::Rng rng_;
  std::vector<double> cdf_;
  std::vector<std::size_t> rank_;
};

struct PhaseResult {
  std::string_view name;
  std::vector<Outcome> outcomes;
  std::size_t refused = 0;
  double late_ms_max = 0.0;
  double seconds = 0.0;  ///< First intended send to last completion.
  ServiceMetrics before, after;
};

PhaseResult RunPhase(const Phase& phase, QueryService& service,
                     const std::vector<TimeSeries>& distinct,
                     ZipfPicker& picker, Tracer& tracer,
                     std::uint64_t& next_request) {
  PhaseResult result;
  result.name = phase.name;
  result.before = service.metrics();
  PendingQueue queue;
  const std::uint64_t phase_span = tracer.NewId();
  // The collector alone touches result.outcomes until the join below.
  std::jthread collector([&] {
    while (std::optional<Pending> p = queue.Pop()) {
      const QueryService::Result r = p->future.get();
      const auto ready = Clock::now();
      result.outcomes.push_back(
          {p->query, r.ok(), r.ok() ? *r : std::vector<Hit>{},
           Millis(ready - p->intended), p->span != 0, p->submit_ms});
      if (p->span != 0) {
        tracer.Record("request", "retrieval.service", p->intended, ready,
                      phase_span, p->span, p->request);
      }
    }
  });
  // On an exception below, close the queue before the collector is
  // joined, or the join would wait forever.
  struct CloseOnExit {
    PendingQueue& queue;
    ~CloseOnExit() { queue.Close(); }
  } close_on_exit{queue};

  const auto start = Clock::now() + std::chrono::milliseconds(1);
  auto intended = start;
  for (std::size_t i = 0; i < phase.requests; ++i) {
    if (phase.rate > 0) {
      const double gap_s =
          -std::log(1.0 - picker.rng().Uniform(0.0, 1.0)) / phase.rate;
      intended += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap_s));
      std::this_thread::sleep_until(intended);
    }
    const std::size_t q = picker.Next();
    const auto s0 = Clock::now();
    if (phase.rate <= 0) intended = s0;
    result.late_ms_max = std::max(result.late_ms_max, Millis(s0 - intended));
    sdtw::retrieval::RequestOptions request;
    if (phase.deadline) request.deadline = intended + kDeadline;
    const std::uint64_t seq = ++next_request;
    // Every other request is traced; the rest measure the tracing cost.
    // Span ids come from the tracer, which also numbers phase and probe
    // spans; the sequence number is the request id its spans share.
    const std::uint64_t span =
        tracer.enabled() && seq % 2 == 0 ? tracer.NewId() : 0;
    auto future = service.Submit(distinct[q], kTopK, request);
    const auto s1 = Clock::now();
    if (span != 0) {
      tracer.Record("Submit", "retrieval.service", s0, s1, span, 0, seq);
    }
    if (!future.has_value()) {
      if (span != 0) {  // the Submit span's parent ends at the refusal
        tracer.Record("request", "retrieval.service", intended, s1,
                      phase_span, span, seq);
      }
      ++result.refused;
      continue;
    }
    queue.Push({std::move(*future), intended, q, seq, span, Millis(s1 - s0)});
  }
  queue.Close();
  collector.join();
  const auto end = Clock::now();
  tracer.Record(phase.name, "bench", start, end, 0, phase_span);
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.after = service.metrics();
  return result;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The phases called `name`, in run order.
std::vector<const PhaseResult*> Named(const std::vector<PhaseResult>& results,
                                      std::string_view name) {
  std::vector<const PhaseResult*> named;
  for (const PhaseResult& r : results) {
    if (r.name == name) named.push_back(&r);
  }
  return named;
}

std::vector<double> OkLatencies(const std::vector<const PhaseResult*>& phases) {
  std::vector<double> latency;
  for (const PhaseResult* r : phases) {
    for (const Outcome& o : r->outcomes) {
      if (o.ok) latency.push_back(o.latency_ms);
    }
  }
  return latency;
}

/// Per-layer metrics `service.*_<name>` over every phase called `name`.
void ReportPhases(const std::vector<PhaseResult>& results,
                  const std::string& name, Report& report) {
  const std::vector<const PhaseResult*> phases = Named(results, name);
  const std::vector<double> latency = OkLatencies(phases);
  std::vector<double> submit;
  double seconds = 0.0;
  double late_ms_max = 0.0;
  for (const PhaseResult* r : phases) {
    for (const Outcome& o : r->outcomes) submit.push_back(o.submit_ms * 1e3);
    seconds += r->seconds;
    late_ms_max = std::max(late_ms_max, r->late_ms_max);
  }
  // A counter's growth over the phases, which other phases interleave.
  const auto grew = [&](auto counter) {
    double total = 0.0;
    for (const PhaseResult* r : phases) {
      total += static_cast<double>(counter(r->after) - counter(r->before));
    }
    return total;
  };
  const double completed = grew([](const ServiceMetrics& m) {
    return m.completed;
  });
  const double hits = grew([](const ServiceMetrics& m) {
    return m.cache.hits;
  });
  const double misses = grew([](const ServiceMetrics& m) {
    return m.cache.misses;
  });
  report.Set("service.achieved_qps_" + name,
             static_cast<double>(latency.size()) / seconds);
  report.Set("service.mean_batch_size_" + name,
             Ratio(completed, grew([](const ServiceMetrics& m) {
                     return m.batches;
                   })));
  report.Set("service.coalesce_rate_" + name,
             Ratio(grew([](const ServiceMetrics& m) { return m.coalesced; }),
                   completed));
  report.Set("service.cache_hit_rate_" + name, Ratio(hits, hits + misses));
  if (name == "sat") return;
  report.Set("service.p50_ms_" + name, Median(latency));
  report.Set("service.p95_ms_" + name, Percentile(latency, 95));
  report.Set("service.submit_us_" + name, Median(submit));
  report.Set("gen.late_ms_max_" + name, late_ms_max);
}

}  // namespace

void RunServe(const Config& config, Report& report, Tracer& tracer) {
  const Scale& scale = config.smoke ? kSmoke : kFull;
  sdtw::data::GeneratorOptions index_options;
  index_options.length = scale.length;
  index_options.num_series = scale.index_series;
  index_options.seed = StreamSeed(config.seed, 1);  // the knn_sdtw index
  const sdtw::ts::Dataset index_set = sdtw::data::MakeTraceLike(index_options);
  sdtw::data::GeneratorOptions query_options = index_options;
  query_options.num_series = scale.distinct;
  query_options.seed = StreamSeed(config.seed, 3);
  const sdtw::ts::Dataset query_set = sdtw::data::MakeTraceLike(query_options);
  const std::vector<TimeSeries> distinct(query_set.begin(), query_set.end());

  sdtw::retrieval::ServiceOptions service_options;
  service_options.num_workers = kThreads;

  // Set-up: Index + service start, repeated; the last pair serves.
  std::unique_ptr<KnnEngine> engine;
  std::unique_ptr<QueryService> service;
  MeasureSetup(report, [&] {
    service.reset();
    engine.reset();
    const auto t0 = Clock::now();
    engine = std::make_unique<KnnEngine>();
    engine->Index(index_set);
    service = std::make_unique<QueryService>(*engine, service_options);
    return SecondsSince(t0);
  });
  report.Check(service->init_status().ok(), "service options are valid");

  ZipfPicker picker(distinct.size(), StreamSeed(config.seed, 4));
  std::uint64_t next_request = 0;
  std::vector<PhaseResult> results;
  for (const Phase& phase :
       Phases(config.seconds, config.smoke, config.traced())) {
    results.push_back(
        RunPhase(phase, *service, distinct, picker, tracer, next_request));
  }
  service->Shutdown();

  // Verification: every OK result equals a direct QueryBatch of its query.
  std::vector<bool> seen(distinct.size(), false);
  std::vector<std::size_t> seen_order;
  for (const PhaseResult& r : results) {
    for (const Outcome& o : r.outcomes) {
      if (!seen[o.query]) seen_order.push_back(o.query);
      seen[o.query] = true;
    }
  }
  std::vector<TimeSeries> seen_queries;
  for (const std::size_t q : seen_order) seen_queries.push_back(distinct[q]);
  sdtw::retrieval::BatchOptions threads;
  threads.num_threads = kThreads;
  const std::vector<std::vector<Hit>> direct =
      BatchKnnEngine(*engine, threads).QueryBatch(seen_queries, kTopK);
  std::vector<const std::vector<Hit>*> expected(distinct.size(), nullptr);
  for (std::size_t i = 0; i < seen_order.size(); ++i) {
    expected[seen_order[i]] = &direct[i];
  }
  for (std::size_t p = 0; p < results.size(); ++p) {
    const PhaseResult& r = results[p];
    report.attempted += r.outcomes.size() + r.refused;
    report.failed += r.refused;
    for (const Outcome& o : r.outcomes) {
      report.failed += !o.ok || !SameHits(o.hits, *expected[o.query]);
    }
  }
  report.Check(report.failed == 0,
               "every request completes with the direct QueryBatch hits");

  // End to end: closed-loop capacity from the bursts; open-loop latency at
  // 50 req/s. The tail is p90, not p99: queueing amplifies swings in
  // machine speed the more the further out the percentile, and hot Zipf
  // queries differ in cost per seed. At 100 req/s over 10 seeds, p99
  // spread by a quarter of its median, p95 by a sixth, p90 by an eighth.
  std::vector<double> burst_rates;
  for (const PhaseResult* b : Named(results, "sat")) {
    burst_rates.push_back(static_cast<double>(b->outcomes.size()) /
                          b->seconds);
  }
  const std::vector<double> latency = OkLatencies(Named(results, "r50"));
  report.Set("throughput", Median(burst_rates));
  report.Set("p50_ms", Median(latency));
  report.Set("tail_ms", Percentile(latency, 90));
  report.Note("tail_pct", 90);
  report.Note("latency_samples", static_cast<double>(latency.size()));

  // Retrieval accuracy of the served hits against exact DTW.
  sdtw::retrieval::KnnOptions exact_options;
  exact_options.distance = sdtw::retrieval::DistanceKind::kFullDtw;
  KnnEngine exact(exact_options);
  exact.Index(index_set);
  const std::size_t scored =
      std::min(scale.overlap_queries, seen_queries.size());
  const std::vector<TimeSeries> scored_queries(seen_queries.begin(),
                                               seen_queries.begin() + scored);
  const std::vector<std::vector<Hit>> scored_hits(direct.begin(),
                                                  direct.begin() + scored);
  report.Set("overlap_at5",
             MeanOverlap(BatchKnnEngine(exact, threads)
                             .QueryBatch(scored_queries, kTopK),
                         scored_hits, kTopK));
  report.Set("peak_rss_mb", PeakRssMb());
  if (!config.traced()) return;

  const std::vector<const PhaseResult*> r100 = Named(results, "r100");
  for (const char* name : {"r50", "r100", "sat"}) {
    ReportPhases(results, name, report);
  }
  // 1000 requests keep ten beyond p99 at 100 req/s; 300 at 50 do not.
  report.Set("service.p99_ms_r100", Percentile(OkLatencies(r100), 99));
  std::size_t shed = 0;
  std::size_t rejected = 0;
  std::size_t failed = 0;
  for (const PhaseResult& r : results) {
    shed += r.after.shed - r.before.shed;
    rejected += r.after.rejected - r.before.rejected;
    failed += r.after.failed - r.before.failed;
  }
  report.Set("service.shed", static_cast<double>(shed));
  report.Set("service.rejected", static_cast<double>(rejected));
  report.Set("service.failed", static_cast<double>(failed));

  std::vector<double> traced_ms, untraced_ms, coverage;
  for (const Outcome& o : r100.front()->outcomes) {
    if (!o.ok) continue;
    (o.traced ? traced_ms : untraced_ms).push_back(o.latency_ms);
    if (o.traced) coverage.push_back(o.submit_ms / o.latency_ms);
  }
  report.Set("trace.overhead", Median(traced_ms) / Median(untraced_ms) - 1);
  report.Set("trace.op_coverage", Median(coverage));

  // Exact cascade counts of the scan layer: the first 64 distinct queries
  // replayed on one worker.
  threads.num_threads = 1;
  std::vector<sdtw::retrieval::QueryStats> stats;
  const std::size_t replayed = std::min<std::size_t>(64, seen_queries.size());
  BatchKnnEngine(*engine, threads)
      .QueryBatch(std::span<const TimeSeries>(seen_queries.data(), replayed),
                  kTopK, &stats);
  ReportCascade(stats, /*builds_bands=*/true, report);

  ProbeInputs probe;
  std::vector<const TimeSeries*> candidates;
  for (const TimeSeries& s : index_set) candidates.push_back(&s);
  for (std::size_t i = 0; i < scored; ++i) {
    probe.series.push_back(&seen_queries[i]);
  }
  probe.pairs = SamplePairs(probe.series, candidates, scale.probe_pairs,
                            StreamSeed(config.seed, 6));
  RunProbes(probe, config.smoke, report, tracer);
}

}  // namespace sdtwbench
