// Retrieval-engine demo: index a data set with cached salient features and
// envelopes, then run kNN queries through the lower-bound cascade — the
// deployment the paper's §3.4 cost model describes (extract once, reuse for
// every comparison).
//
//   $ ./build/examples/retrieval_engine_demo [num_series] [length]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "data/generators.h"
#include "retrieval/batch.h"
#include "retrieval/feature_store.h"
#include "retrieval/knn.h"

int main(int argc, char** argv) {
  using namespace sdtw;

  data::GeneratorOptions gopt;
  gopt.num_series = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 60;
  gopt.length = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 150;
  const ts::Dataset ds = data::MakeTraceLike(gopt);
  std::printf("indexed data set: %s, %zu series, %zu classes\n",
              ds.name().c_str(), ds.size(), ds.NumClasses());

  // Exact-DTW engine with the full pruning cascade.
  retrieval::KnnOptions exact;
  exact.distance = retrieval::DistanceKind::kFullDtw;
  retrieval::KnnEngine exact_engine(exact);
  exact_engine.Index(ds);

  // sDTW engine (features cached at indexing time).
  retrieval::KnnOptions sdtw_opts;
  sdtw_opts.distance = retrieval::DistanceKind::kSdtw;
  sdtw_opts.sdtw.constraint.type =
      core::ConstraintType::kAdaptiveCoreAdaptiveWidth;
  sdtw_opts.sdtw.constraint.width_average_radius = 1;
  retrieval::KnnEngine sdtw_engine(sdtw_opts);
  sdtw_engine.Index(ds);

  // One query with cascade statistics.
  retrieval::QueryStats stats;
  const auto hits = exact_engine.Query(ds[0], 5, 0, &stats);
  std::printf("\nexact-DTW query, top-5 neighbours of series 0:\n");
  for (const auto& h : hits) {
    std::printf("  #%zu (class %d) distance %.4f\n", h.index, h.label,
                h.distance);
  }
  std::printf("cascade: %zu candidates, %zu pruned by LB_Kim, %zu by "
              "LB_Keogh, %zu early-abandoned, %zu full DPs\n",
              stats.candidates, stats.pruned_by_kim, stats.pruned_by_keogh,
              stats.pruned_by_early_abandon, stats.dp_evaluations);

  // Leave-one-out classification accuracy, both engines — one batched
  // pass over the whole index (hardware-concurrency workers), timed.
  auto timed = [](const retrieval::KnnEngine& engine, const char* label) {
    const auto t0 = std::chrono::steady_clock::now();
    const double acc =
        retrieval::BatchKnnEngine(engine).LeaveOneOutAccuracy(1);
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("%-10s 1-NN leave-one-out accuracy %.3f  (%.0f ms)\n", label,
                acc, 1e3 * sec);
  };
  std::printf("\n");
  timed(exact_engine, "full DTW");
  timed(sdtw_engine, "sDTW");

  // The same workload phrased as an explicit batch: every indexed series
  // queried at once, per-query cascade counters merged across workers.
  const std::vector<ts::TimeSeries> queries(ds.begin(), ds.end());
  const retrieval::BatchKnnEngine batch(exact_engine);
  std::vector<retrieval::QueryStats> batch_stats;
  const auto t0 = std::chrono::steady_clock::now();
  const auto batch_hits = batch.QueryBatch(queries, 5, &batch_stats);
  const double batch_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  retrieval::QueryStats total;
  for (const retrieval::QueryStats& s : batch_stats) total.Merge(s);
  std::printf(
      "\nbatched top-5 over all %zu series: %.0f ms (%.0f queries/s), "
      "%zu of %zu candidate DPs executed (%.1f%% pruned)\n",
      batch_hits.size(), 1e3 * batch_sec,
      static_cast<double>(queries.size()) / batch_sec, total.dp_evaluations,
      total.candidates, 100.0 * total.prune_rate());

  // Candidate visit order: by default each work chunk is scanned in
  // ascending cached LB_Kim order, which tightens the best-so-far sooner
  // than index order and prunes more DPs — with bitwise-identical hits.
  retrieval::KnnOptions index_order_opts = exact;
  index_order_opts.visit_order = retrieval::VisitOrder::kIndexOrder;
  retrieval::KnnEngine index_order_engine(index_order_opts);
  index_order_engine.Index(ds);
  std::vector<retrieval::QueryStats> index_order_stats;
  retrieval::BatchKnnEngine(index_order_engine)
      .QueryBatch(queries, 5, &index_order_stats);
  retrieval::QueryStats index_order_total;
  for (const auto& s : index_order_stats) index_order_total.Merge(s);
  std::printf(
      "visit order: %zu DPs in index order vs %zu LB_Kim-ordered "
      "(identical hits by construction)\n",
      index_order_total.dp_evaluations, total.dp_evaluations);

  // Alignment recovery: the batch stays distance-only (full pruning), and
  // only the final k winners are re-aligned for their warp paths.
  const std::size_t shown = std::min<std::size_t>(3, queries.size());
  const auto aligned = batch.QueryBatchWithAlignments(
      std::span<const ts::TimeSeries>(queries.data(), shown), 3);
  std::printf("\nwarp paths of the top-3 neighbours (first %zu queries):\n",
              shown);
  for (std::size_t q = 0; q < aligned.size(); ++q) {
    for (const retrieval::AlignedHit& a : aligned[q]) {
      std::printf("  query %zu -> #%zu: distance %.4f, path %zu steps\n", q,
                  a.hit.index, a.hit.distance, a.path.size());
    }
  }
  return 0;
}
