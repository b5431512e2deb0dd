// knn_sdtw / knn_dtw: batched kNN retrieval through
// BatchKnnEngine::QueryBatch over a TraceLike index, in batches of fresh,
// distinct queries (no repeats, so no cache could help). knn_sdtw runs
// the sDTW query path (salient features, band build, banded DP); knn_dtw
// runs exact DTW behind the LB_Keogh cascade and bypasses sift, align and
// core at query time, which makes it the control for sDTW-path changes.

#include <algorithm>
#include <memory>

#include "common.h"
#include "data/generators.h"
#include "probes.h"
#include "retrieval/batch.h"
#include "ts/random.h"

namespace sdtwbench {

namespace {

using sdtw::retrieval::BatchKnnEngine;
using sdtw::retrieval::BatchOptions;
using sdtw::retrieval::DistanceKind;
using sdtw::retrieval::Hit;
using sdtw::retrieval::KnnEngine;
using sdtw::retrieval::KnnOptions;
using sdtw::retrieval::QueryContext;
using sdtw::retrieval::QueryStats;
using sdtw::ts::TimeSeries;
using HitLists = std::vector<std::vector<Hit>>;

struct Scale {
  std::size_t index_series;
  std::size_t length;
  std::size_t batch_size;
  std::size_t min_batches;
  std::size_t verify_queries;  ///< Brute-force-checked sample.
  /// Leading batches kept for the exact-DTW overlap, the one-worker
  /// replay and the probes.
  std::size_t kept_batches;
  std::size_t probe_pairs;
};

constexpr Scale kFull{1000, 128, 64, 4, 64, 4, 2000};
constexpr Scale kSmoke{60, 48, 8, 2, 8, 2, 40};

BatchOptions Threads(std::size_t n) {
  BatchOptions options;
  options.num_threads = n;
  return options;
}

}  // namespace

void RunKnn(const Config& config, DistanceKind kind, Report& report,
            Tracer& tracer) {
  const Scale& scale = config.smoke ? kSmoke : kFull;
  sdtw::data::GeneratorOptions index_options;
  index_options.length = scale.length;
  index_options.num_series = scale.index_series;
  index_options.seed = StreamSeed(config.seed, 1);
  const sdtw::ts::Dataset index_set = sdtw::data::MakeTraceLike(index_options);
  const auto make_batch = [&](std::size_t b) {
    sdtw::data::GeneratorOptions options = index_options;
    options.num_series = scale.batch_size;
    options.seed = StreamSeed(config.seed, 1000 + b);
    const sdtw::ts::Dataset batch = sdtw::data::MakeTraceLike(options);
    return std::vector<TimeSeries>(batch.begin(), batch.end());
  };

  KnnOptions options;  // default sDTW options: ac,aw, absolute cost
  options.distance = kind;

  // Set-up: engine construction + Index, repeated; the last one serves.
  std::unique_ptr<KnnEngine> engine;
  MeasureSetup(report, [&] {
    engine.reset();
    const auto t0 = Clock::now();
    engine = std::make_unique<KnnEngine>(options);
    engine->Index(index_set);
    return SecondsSince(t0);
  });

  const BatchKnnEngine batch(*engine, Threads(kThreads));
  batch.QueryBatch(make_batch(999'999), kTopK);  // warm-up, untimed

  // The timed run. In a traced run every other batch is split into its
  // two phases — per-query MakeQueryContext, then QueryBatchWithContexts
  // — with a span around each; the untraced batches in between measure
  // what the tracing costs.
  std::vector<std::vector<TimeSeries>> queries;
  std::vector<HitLists> hits;
  OpSamples ops;
  std::vector<double> traced_ms, phase1_ms, phase2_ms, coverage;
  // Only the first batches and a fixed-size verification sample are kept,
  // so the process's memory does not grow with the number of batches run.
  std::vector<TimeSeries> sample;  // uniform reservoir over the run
  HitLists sample_hits;
  sdtw::ts::Rng reservoir(StreamSeed(config.seed, 5));
  std::size_t seen = 0;
  const auto t_run = Clock::now();
  std::size_t b = 0;
  for (; b < scale.min_batches || SecondsSince(t_run) < config.seconds; ++b) {
    std::vector<TimeSeries> qs = make_batch(b);
    const double n = static_cast<double>(qs.size());
    report.attempted += qs.size();
    HitLists batch_hits;
    if (!config.traced() || b % 2 == 0) {
      const auto t0 = Clock::now();
      batch_hits = batch.QueryBatch(qs, kTopK);
      const double ms = Millis(Clock::now() - t0);
      ops.latency_ms.push_back(ms);
      ops.rate.push_back(n / (ms / 1e3));
    } else {
      const std::uint64_t batch_id = tracer.NewId();
      const auto t0 = Clock::now();
      std::vector<QueryContext> contexts;
      contexts.reserve(qs.size());
      for (const TimeSeries& q : qs) {
        const auto s0 = Clock::now();
        contexts.push_back(batch.MakeQueryContext(q));
        tracer.Record("MakeQueryContext", "retrieval.batch", s0, Clock::now(),
                      batch_id);
      }
      std::vector<const QueryContext*> context_ptrs;
      for (const QueryContext& c : contexts) context_ptrs.push_back(&c);
      const auto t1 = Clock::now();
      batch_hits = batch.QueryBatchWithContexts(qs, context_ptrs, kTopK);
      const auto t2 = Clock::now();
      tracer.Record("QueryBatchWithContexts", "retrieval.batch", t1, t2,
                    batch_id, 0, 0, {{"queries", n}});
      tracer.Record("batch", "bench", t0, t2, 0, batch_id, 0,
                    {{"queries", n}});
      traced_ms.push_back(Millis(t2 - t0));
      phase1_ms.push_back(Millis(t1 - t0));
      phase2_ms.push_back(Millis(t2 - t1));
      coverage.push_back((phase1_ms.back() + phase2_ms.back()) /
                         traced_ms.back());
    }
    for (std::size_t q = 0; q < qs.size(); ++q, ++seen) {
      if (sample.size() < scale.verify_queries) {
        sample.push_back(qs[q]);
        sample_hits.push_back(batch_hits[q]);
        continue;
      }
      const auto slot = static_cast<std::size_t>(
          reservoir.UniformInt(0, static_cast<std::int64_t>(seen)));
      if (slot < sample.size()) {
        sample[slot] = qs[q];
        sample_hits[slot] = batch_hits[q];
      }
    }
    if (b < scale.kept_batches) {
      queries.push_back(std::move(qs));
      hits.push_back(std::move(batch_hits));
    }
  }
  // The tail is the highest percentile with ten or more batches beyond it
  // in a 20 s run: ~65-90 sDTW batches, ~190-240 exact-DTW batches.
  ReportOps(ops, kind == DistanceKind::kSdtw ? 80.0 : 90.0, report);
  report.Note("batches", static_cast<double>(b));

  // Verification: the sample against a brute-force scan (no cascade, one
  // thread, index order).
  KnnOptions brute = options;
  brute.use_lb_kim = false;
  brute.use_lb_keogh = false;
  brute.use_early_abandon = false;
  brute.visit_order = sdtw::retrieval::VisitOrder::kIndexOrder;
  KnnEngine brute_engine(brute);
  brute_engine.Index(index_set);
  const HitLists expected =
      BatchKnnEngine(brute_engine, Threads(1)).QueryBatch(sample, kTopK);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    if (!SameHits(expected[i], sample_hits[i])) ++report.failed;
  }
  report.Check(report.failed == 0, "hits match the brute-force scan");

  // Retrieval accuracy: top-5 overlap with exact DTW (paper §4.2).
  KnnOptions exact_options;
  exact_options.distance = DistanceKind::kFullDtw;
  KnnEngine exact(exact_options);
  exact.Index(index_set);
  const BatchKnnEngine exact_batch(exact, Threads(kThreads));
  HitLists exact_hits, scored_hits;
  for (std::size_t k = 0; k < queries.size(); ++k) {
    for (auto& h : exact_batch.QueryBatch(queries[k], kTopK)) {
      exact_hits.push_back(std::move(h));
    }
    scored_hits.insert(scored_hits.end(), hits[k].begin(), hits[k].end());
  }
  report.Set("overlap_at5", MeanOverlap(exact_hits, scored_hits, kTopK));
  report.Set("peak_rss_mb", PeakRssMb());
  if (!config.traced()) return;

  // Exact cascade counts: batch 0 replayed on one worker, where the visit
  // order — and so every prune decision — is deterministic.
  std::vector<QueryStats> stats;
  const HitLists replay =
      BatchKnnEngine(*engine, Threads(1)).QueryBatch(queries[0], kTopK, &stats);
  report.Check(replay.size() == hits[0].size() &&
                   std::equal(replay.begin(), replay.end(), hits[0].begin(),
                              SameHits),
               "one-worker replay matches the timed batch");
  ReportCascade(stats, kind == DistanceKind::kSdtw, report);
  report.Set("batch.phase1_ms", Median(phase1_ms));
  report.Set("batch.phase2_ms", Median(phase2_ms));
  report.Set("trace.overhead", Median(traced_ms) / Median(ops.latency_ms) - 1);
  report.Set("trace.op_coverage", Median(coverage));

  ProbeInputs probe;
  std::vector<const TimeSeries*> candidates;
  for (const TimeSeries& s : index_set) candidates.push_back(&s);
  for (const std::vector<TimeSeries>& qs : queries) {
    for (const TimeSeries& q : qs) probe.series.push_back(&q);
  }
  probe.pairs = SamplePairs(probe.series, candidates, scale.probe_pairs,
                            StreamSeed(config.seed, 6));
  RunProbes(probe, config.smoke, report, tracer);
}

}  // namespace sdtwbench
