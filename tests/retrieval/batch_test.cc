#include "retrieval/batch.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <gtest/gtest.h>
#include <optional>
#include <string>
#include <vector>

#include "data/generators.h"
#include "dtw/dtw.h"
#include "retrieval/service.h"

namespace sdtw {
namespace retrieval {
namespace {

ts::Dataset SmallGun(std::size_t n = 16, std::size_t len = 100,
                     bool z_normalize = true) {
  data::GeneratorOptions opt;
  opt.num_series = n;
  opt.length = len;
  opt.z_normalize = z_normalize;
  return data::MakeGunLike(opt);
}

std::vector<ts::TimeSeries> QueriesFrom(const ts::Dataset& ds,
                                        std::size_t count) {
  return std::vector<ts::TimeSeries>(ds.begin(), ds.begin() + count);
}

// The k smallest (distance, index) pairs of a brute-force scan — what a
// sequential in-order Query produces. `distance` defaults to exact DTW.
std::vector<Hit> BruteForceTopK(
    const ts::Dataset& ds, const ts::TimeSeries& query, std::size_t k,
    std::optional<std::size_t> exclude,
    const std::function<double(const ts::TimeSeries&,
                               const ts::TimeSeries&)>& distance = nullptr) {
  std::vector<Hit> all;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (exclude.has_value() && *exclude == i) continue;
    const double d = distance ? distance(query, ds[i])
                              : dtw::DtwDistance(query, ds[i]);
    if (std::isfinite(d)) all.push_back(Hit{i, d, ds[i].label()});
  }
  std::sort(all.begin(), all.end(), [](const Hit& a, const Hit& b) {
    return a.distance < b.distance ||
           (a.distance == b.distance && a.index < b.index);
  });
  if (all.size() > k) all.resize(k);
  return all;
}

// Bitwise hit-list equality (index, distance, label).
void ExpectSameHits(const std::vector<Hit>& actual,
                    const std::vector<Hit>& expected,
                    const std::string& where) {
  ASSERT_EQ(actual.size(), expected.size()) << where;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].index, expected[i].index) << where << " rank " << i;
    EXPECT_EQ(actual[i].distance, expected[i].distance)
        << where << " rank " << i;
    EXPECT_EQ(actual[i].label, expected[i].label) << where << " rank " << i;
  }
}

// The outcome partition, and band_builds = the candidates that reached the
// DP stage in sDTW mode (0 in every other mode).
void ExpectCounterInvariants(const QueryStats& s, DistanceKind kind,
                             const std::string& where) {
  EXPECT_EQ(s.pruned_by_kim + s.pruned_by_keogh + s.pruned_by_early_abandon +
                s.dp_evaluations,
            s.candidates)
      << where;
  EXPECT_EQ(s.band_builds,
            kind == DistanceKind::kSdtw
                ? s.candidates - s.pruned_by_kim - s.pruned_by_keogh
                : 0u)
      << where;
}

TEST(BatchKnnEngineTest, EmptyBatchAndEmptyIndex) {
  KnnEngine empty_engine;
  const BatchKnnEngine empty(empty_engine);
  EXPECT_TRUE(empty.QueryBatch({}, 3).empty());

  const ts::Dataset ds = SmallGun(4);
  KnnEngine engine;
  engine.Index(ds);
  const BatchKnnEngine batch(engine);
  const std::vector<ts::TimeSeries> queries = QueriesFrom(ds, 2);
  // Indexed engine, k == 0: empty hit lists, one per query.
  const auto hits = batch.QueryBatch(queries, 0);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_TRUE(hits[0].empty());
  EXPECT_TRUE(hits[1].empty());
}

TEST(BatchKnnEngineTest, BatchOfOneBitwiseIdenticalToQuery) {
  const ts::Dataset ds = SmallGun(14);
  for (const DistanceKind kind :
       {DistanceKind::kFullDtw, DistanceKind::kSdtw,
        DistanceKind::kEuclidean}) {
    KnnOptions opt;
    opt.distance = kind;
    KnnEngine engine(opt);
    engine.Index(ds);
    const BatchKnnEngine batch(engine);
    for (std::size_t q = 0; q < 4; ++q) {
      const auto single = engine.Query(ds[q], 3, q);
      const std::vector<ts::TimeSeries> one{ds[q]};
      const std::vector<std::optional<std::size_t>> excludes{q};
      const auto batched = batch.QueryBatch(one, 3, nullptr, excludes);
      ASSERT_EQ(batched.size(), 1u);
      ASSERT_EQ(batched[0].size(), single.size()) << q;
      for (std::size_t i = 0; i < single.size(); ++i) {
        EXPECT_EQ(batched[0][i].index, single[i].index) << q;
        // Bitwise equality, not approximate: both paths must run the
        // exact same kernels in the same order.
        EXPECT_EQ(batched[0][i].distance, single[i].distance) << q;
        EXPECT_EQ(batched[0][i].label, single[i].label) << q;
      }
    }
  }
}

TEST(BatchKnnEngineTest, SingleWorkerNeverSplitsAQuery) {
  // One worker has no load to balance, so a query alone must run as one
  // chunk, exactly as it does inside a multi-query batch: the schedule,
  // and with it every cascade counter, must not depend on how many other
  // queries share the call.
  for (const std::size_t n : {24u, 40u, 60u}) {
    const ts::Dataset ds = SmallGun(n, 100);
    for (const DistanceKind kind :
         {DistanceKind::kFullDtw, DistanceKind::kSdtw}) {
      KnnOptions opt;
      opt.distance = kind;
      KnnEngine engine(opt);
      engine.Index(ds);
      const std::vector<ts::TimeSeries> queries = QueriesFrom(ds, 8);
      std::vector<std::optional<std::size_t>> excludes;
      for (std::size_t q = 0; q < queries.size(); ++q) excludes.push_back(q);
      BatchOptions bopt;
      bopt.num_threads = 1;
      std::vector<QueryStats> batch_stats;
      BatchKnnEngine(engine, bopt).QueryBatch(queries, 3, &batch_stats,
                                              excludes);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        QueryStats single;
        engine.Query(queries[q], 3, excludes[q], &single);
        const QueryStats& batched = batch_stats[q];
        const std::string where = "n " + std::to_string(n) + " mode " +
                                  std::to_string(static_cast<int>(kind)) +
                                  " query " + std::to_string(q);
        EXPECT_EQ(single.candidates, batched.candidates) << where;
        EXPECT_EQ(single.pruned_by_kim, batched.pruned_by_kim) << where;
        EXPECT_EQ(single.pruned_by_keogh, batched.pruned_by_keogh) << where;
        EXPECT_EQ(single.pruned_by_early_abandon,
                  batched.pruned_by_early_abandon)
            << where;
        EXPECT_EQ(single.dp_evaluations, batched.dp_evaluations) << where;
        EXPECT_EQ(single.lb_keogh_abandoned, batched.lb_keogh_abandoned)
            << where;
        EXPECT_EQ(single.band_builds, batched.band_builds) << where;
      }
    }
  }
}

TEST(BatchKnnEngineTest, MultiThreadBitwiseIdenticalToBruteForce) {
  // Exact-DTW hits from the racing cascade must equal a brute-force scan
  // bit for bit, whatever the worker count and completion order.
  const ts::Dataset ds = SmallGun(20);
  KnnOptions opt;
  opt.distance = DistanceKind::kFullDtw;
  KnnEngine engine(opt);
  engine.Index(ds);
  const std::vector<ts::TimeSeries> queries = QueriesFrom(ds, 6);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    BatchOptions bopt;
    bopt.num_threads = threads;
    bopt.chunk_size = 3;  // many chunks -> real work stealing
    const BatchKnnEngine batch(engine, bopt);
    const auto hits = batch.QueryBatch(queries, 4);
    ASSERT_EQ(hits.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const auto expected = BruteForceTopK(ds, queries[q], 4, std::nullopt);
      ASSERT_EQ(hits[q].size(), expected.size()) << threads << " " << q;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(hits[q][i].index, expected[i].index)
            << threads << " " << q;
        EXPECT_EQ(hits[q][i].distance, expected[i].distance)
            << threads << " " << q;
      }
    }
  }
}

TEST(BatchKnnEngineTest, DuplicateCandidatesTieBreakByIndex) {
  // Several identical candidates produce exactly equal distances; the
  // reported neighbours must be the smallest indices, independent of
  // which worker finishes first.
  ts::Dataset ds;
  const std::vector<double> base{0.0, 1.0, 0.0, -1.0};
  for (int i = 0; i < 8; ++i) ds.Add(ts::TimeSeries(base, i % 2));
  ds.Add(ts::TimeSeries({5.0, 5.0, 5.0, 5.0}, 0));
  KnnOptions opt;
  opt.distance = DistanceKind::kFullDtw;
  KnnEngine engine(opt);
  engine.Index(ds);
  const ts::TimeSeries query({0.1, 1.1, 0.1, -0.9});
  const std::vector<ts::TimeSeries> queries{query};
  for (const std::size_t threads : {1u, 4u, 8u}) {
    BatchOptions bopt;
    bopt.num_threads = threads;
    bopt.chunk_size = 1;
    const BatchKnnEngine batch(engine, bopt);
    const auto hits = batch.QueryBatch(queries, 3);
    ASSERT_EQ(hits[0].size(), 3u);
    EXPECT_EQ(hits[0][0].index, 0u) << threads;
    EXPECT_EQ(hits[0][1].index, 1u) << threads;
    EXPECT_EQ(hits[0][2].index, 2u) << threads;
  }
}

TEST(BatchKnnEngineTest, SdtwBatchMatchesSequentialQueries) {
  const ts::Dataset ds = SmallGun(16, 80);
  KnnOptions opt;
  opt.distance = DistanceKind::kSdtw;
  KnnEngine engine(opt);
  engine.Index(ds);
  BatchOptions bopt;
  bopt.num_threads = 4;
  bopt.chunk_size = 2;
  const BatchKnnEngine batch(engine, bopt);
  const std::vector<ts::TimeSeries> queries = QueriesFrom(ds, 5);
  const auto batched = batch.QueryBatch(queries, 3);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto single = engine.Query(queries[q], 3);
    ASSERT_EQ(batched[q].size(), single.size()) << q;
    for (std::size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(batched[q][i].index, single[i].index) << q;
      EXPECT_EQ(batched[q][i].distance, single[i].distance) << q;
    }
  }
}

TEST(BatchKnnEngineTest, ExcludesHonoredPerQuery) {
  const ts::Dataset ds = SmallGun(10);
  KnnEngine engine;
  engine.Index(ds);
  BatchOptions bopt;
  bopt.num_threads = 4;
  const BatchKnnEngine batch(engine, bopt);
  const std::vector<ts::TimeSeries> queries = QueriesFrom(ds, 3);
  std::vector<std::optional<std::size_t>> excludes{0u, 1u, std::nullopt};
  const auto hits = batch.QueryBatch(queries, 9, nullptr, excludes);
  ASSERT_EQ(hits.size(), 3u);
  for (const Hit& h : hits[0]) EXPECT_NE(h.index, 0u);
  for (const Hit& h : hits[1]) EXPECT_NE(h.index, 1u);
  EXPECT_EQ(hits[0].size(), 9u);
  EXPECT_EQ(hits[1].size(), 9u);
  EXPECT_EQ(hits[2].size(), 9u);  // k == 9 < 10 candidates, none excluded
}

TEST(BatchKnnEngineTest, StatsCountersSumExactlyToCandidates) {
  // Every candidate must be accounted for by exactly one cascade outcome:
  // pruned by LB_Kim, pruned by LB_Keogh, early-abandoned, or fully
  // evaluated — across all modes, worker counts, visit orders, and both
  // the distance-only and alignment-recovering entry points. Only sDTW
  // mode builds bands, one per candidate that passed both bounds.
  const ts::Dataset ds = SmallGun(24);
  for (const DistanceKind kind : {DistanceKind::kFullDtw,
                                  DistanceKind::kSdtw,
                                  DistanceKind::kEuclidean}) {
    for (const VisitOrder order :
         {VisitOrder::kIndexOrder, VisitOrder::kLowerBound}) {
      KnnOptions opt;
      opt.distance = kind;
      opt.visit_order = order;
      KnnEngine engine(opt);
      engine.Index(ds);
      const std::vector<ts::TimeSeries> queries = QueriesFrom(ds, 6);
      std::vector<std::optional<std::size_t>> excludes;
      for (std::size_t q = 0; q < queries.size(); ++q) excludes.push_back(q);
      for (const std::size_t threads : {1u, 4u}) {
        BatchOptions bopt;
        bopt.num_threads = threads;
        bopt.chunk_size = 5;
        const BatchKnnEngine batch(engine, bopt);
        for (const bool with_alignments : {false, true}) {
          std::vector<QueryStats> stats;
          if (with_alignments) {
            batch.QueryBatchWithAlignments(queries, 3, &stats, excludes);
          } else {
            batch.QueryBatch(queries, 3, &stats, excludes);
          }
          ASSERT_EQ(stats.size(), queries.size());
          for (std::size_t q = 0; q < stats.size(); ++q) {
            EXPECT_EQ(stats[q].candidates, ds.size() - 1) << q;
            ExpectCounterInvariants(
                stats[q], kind,
                "mode " + std::to_string(static_cast<int>(kind)) +
                    " order " + std::to_string(static_cast<int>(order)) +
                    " threads " + std::to_string(threads) + " alignments " +
                    std::to_string(with_alignments) + " query " +
                    std::to_string(q));
          }
        }
      }
    }
  }
}

TEST(BatchKnnEngineTest, DpCellsCountEvaluatedWindowCells) {
  // dp_cells counts the window cells the cascade's DPs stepped through.
  // Without early abandoning every exact-DTW DP runs its whole n x m grid.
  // With it, the DPs prune every cell above the best-so-far, step through
  // fewer cells, and return bitwise the same hits.
  const ts::Dataset ds = SmallGun(24);  // equal lengths
  const std::size_t n = ds[0].size();
  const std::vector<ts::TimeSeries> queries = QueriesFrom(ds, 6);
  std::vector<std::optional<std::size_t>> excludes;
  for (std::size_t q = 0; q < queries.size(); ++q) excludes.push_back(q);
  BatchOptions bopt;
  bopt.num_threads = 1;
  std::vector<std::vector<Hit>> hits[2];
  QueryStats total[2];
  for (const bool abandon : {false, true}) {
    KnnOptions opt;
    opt.distance = DistanceKind::kFullDtw;
    opt.use_early_abandon = abandon;
    KnnEngine engine(opt);
    engine.Index(ds);
    std::vector<QueryStats> stats;
    hits[abandon] =
        BatchKnnEngine(engine, bopt).QueryBatch(queries, 3, &stats, excludes);
    for (const QueryStats& s : stats) total[abandon].Merge(s);
  }
  EXPECT_EQ(total[0].dp_cells, total[0].dp_evaluations * n * n);
  EXPECT_EQ(total[1].dp_evaluations + total[1].pruned_by_early_abandon,
            total[0].dp_evaluations);
  EXPECT_GT(total[1].dp_cells, 0u);
  EXPECT_LT(total[1].dp_cells, total[0].dp_cells);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ExpectSameHits(hits[1][q], hits[0][q], "query " + std::to_string(q));
  }
}

TEST(BatchKnnEngineTest, VisitOrdersReturnBitwiseIdenticalHits) {
  // The LB_Kim schedule is pure ordering: hit lists must equal the
  // index-order scan bit for bit under every thread count, while running
  // no more DPs than it.
  const ts::Dataset ds = SmallGun(24);
  for (const DistanceKind kind : {DistanceKind::kFullDtw,
                                  DistanceKind::kSdtw}) {
    KnnOptions opt;
    opt.distance = kind;
    opt.visit_order = VisitOrder::kIndexOrder;
    KnnEngine index_engine(opt);
    index_engine.Index(ds);
    opt.visit_order = VisitOrder::kLowerBound;
    KnnEngine lb_engine(opt);
    lb_engine.Index(ds);
    const std::vector<ts::TimeSeries> queries = QueriesFrom(ds, 6);
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      BatchOptions bopt;
      bopt.num_threads = threads;
      bopt.chunk_size = 5;  // several chunks -> per-chunk sorting matters
      std::vector<QueryStats> index_stats, lb_stats;
      const auto index_hits = BatchKnnEngine(index_engine, bopt)
                                  .QueryBatch(queries, 4, &index_stats);
      const auto lb_hits =
          BatchKnnEngine(lb_engine, bopt).QueryBatch(queries, 4, &lb_stats);
      ASSERT_EQ(index_hits.size(), lb_hits.size());
      for (std::size_t q = 0; q < index_hits.size(); ++q) {
        ASSERT_EQ(lb_hits[q].size(), index_hits[q].size())
            << threads << " " << q;
        for (std::size_t i = 0; i < index_hits[q].size(); ++i) {
          EXPECT_EQ(lb_hits[q][i].index, index_hits[q][i].index)
              << threads << " " << q;
          EXPECT_EQ(lb_hits[q][i].distance, index_hits[q][i].distance)
              << threads << " " << q;
        }
      }
      // Reordering moves work between the cascade outcomes (the DP saving
      // is workload-dependent and pinned by bench_batch_retrieval, not a
      // per-dataset theorem), but the outcome partition itself must stay
      // exact under every schedule.
      for (const auto* stats : {&index_stats, &lb_stats}) {
        for (const QueryStats& s : *stats) {
          EXPECT_EQ(s.pruned_by_kim + s.pruned_by_keogh +
                        s.pruned_by_early_abandon + s.dp_evaluations,
                    s.candidates)
              << threads;
        }
      }
    }
  }
}

TEST(BatchKnnEngineTest, ExecutorSuppliedWorkersMatchFreshThreads) {
  // A persistent WorkerPool plugged in via BatchOptions::executor must be
  // invisible in the results: same hits bit for bit as per-call thread
  // spawning, including on a second batch that reuses the pool's arenas.
  const ts::Dataset ds = SmallGun(20);
  KnnEngine engine;
  engine.Index(ds);
  const std::vector<ts::TimeSeries> queries = QueriesFrom(ds, 6);

  BatchOptions fresh_opt;
  fresh_opt.num_threads = 3;
  fresh_opt.chunk_size = 4;
  const auto expected = BatchKnnEngine(engine, fresh_opt).QueryBatch(queries, 3);

  WorkerPool pool(3);
  BatchOptions pooled_opt = fresh_opt;
  pooled_opt.executor = &pool;
  const BatchKnnEngine pooled(engine, pooled_opt);
  for (int round = 0; round < 2; ++round) {  // round 2: warm arenas
    const auto hits = pooled.QueryBatch(queries, 3);
    ASSERT_EQ(hits.size(), expected.size()) << round;
    for (std::size_t q = 0; q < expected.size(); ++q) {
      ASSERT_EQ(hits[q].size(), expected[q].size()) << round << " " << q;
      for (std::size_t i = 0; i < expected[q].size(); ++i) {
        EXPECT_EQ(hits[q][i].index, expected[q][i].index) << round << " " << q;
        EXPECT_EQ(hits[q][i].distance, expected[q][i].distance)
            << round << " " << q;
      }
    }
  }
}

TEST(BatchKnnEngineTest, PresetContextsReplayBitwiseIdentically) {
  // MakeQueryContext + QueryBatchWithContexts is the caching hook: a
  // replayed context must be indistinguishable from in-batch derivation,
  // including when only some queries have one.
  const ts::Dataset ds = SmallGun(16);
  for (const DistanceKind kind :
       {DistanceKind::kFullDtw, DistanceKind::kSdtw}) {
    KnnOptions opt;
    opt.distance = kind;
    KnnEngine engine(opt);
    engine.Index(ds);
    const std::vector<ts::TimeSeries> queries = QueriesFrom(ds, 4);
    const BatchKnnEngine batch(engine);
    const auto expected = batch.QueryBatch(queries, 3);

    std::vector<QueryContext> contexts;
    contexts.reserve(queries.size());
    for (const ts::TimeSeries& q : queries) {
      contexts.push_back(batch.MakeQueryContext(q));
    }
    std::vector<const QueryContext*> all{&contexts[0], &contexts[1],
                                         &contexts[2], &contexts[3]};
    std::vector<const QueryContext*> some{nullptr, &contexts[1], nullptr,
                                          &contexts[3]};
    for (const auto& preset : {all, some}) {
      const auto hits = batch.QueryBatchWithContexts(queries, preset, 3);
      ASSERT_EQ(hits.size(), expected.size());
      for (std::size_t q = 0; q < expected.size(); ++q) {
        ASSERT_EQ(hits[q].size(), expected[q].size()) << q;
        for (std::size_t i = 0; i < expected[q].size(); ++i) {
          EXPECT_EQ(hits[q][i].index, expected[q][i].index) << q;
          EXPECT_EQ(hits[q][i].distance, expected[q][i].distance) << q;
        }
      }
    }
  }
}

TEST(BatchKnnEngineTest, KeoghAbandoningCountsAndPreservesHits) {
  // Cumulative-bound abandoning changes how much of each LB_Keogh pass
  // runs, never its decision: hits stay brute-force exact, the outcome
  // partition stays exact, and on a workload where the Keogh stage prunes
  // at all, at least some of those bound passes must have stopped early.
  // Trace-like series have class-distinct levels, so the full-span Keogh
  // envelopes actually separate queries from far candidates (Gun-like
  // series share one value range and the full-span bound degenerates
  // toward zero).
  data::GeneratorOptions gopt;
  gopt.num_series = 32;
  gopt.length = 80;
  const ts::Dataset ds = data::MakeTraceLike(gopt);
  KnnOptions opt;
  opt.distance = DistanceKind::kFullDtw;
  opt.use_lb_kim = false;  // every candidate reaches the Keogh stage
  KnnEngine engine(opt);
  engine.Index(ds);
  const std::vector<ts::TimeSeries> queries = QueriesFrom(ds, 6);
  for (const std::size_t threads : {1u, 4u}) {
    BatchOptions bopt;
    bopt.num_threads = threads;
    std::vector<QueryStats> stats;
    const auto hits =
        BatchKnnEngine(engine, bopt).QueryBatch(queries, 3, &stats);
    QueryStats total;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::vector<Hit> expected =
          BruteForceTopK(ds, queries[q], 3, std::nullopt);
      ASSERT_EQ(hits[q].size(), expected.size()) << threads << " " << q;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(hits[q][i].index, expected[i].index) << threads << " " << q;
        EXPECT_EQ(hits[q][i].distance, expected[i].distance)
            << threads << " " << q;
      }
      EXPECT_EQ(stats[q].pruned_by_kim + stats[q].pruned_by_keogh +
                    stats[q].pruned_by_early_abandon +
                    stats[q].dp_evaluations,
                stats[q].candidates)
          << threads << " " << q;
      // At most two directed bound passes per Keogh-pruned candidate can
      // have abandoned.
      EXPECT_LE(stats[q].lb_keogh_abandoned, 2 * stats[q].pruned_by_keogh)
          << threads << " " << q;
      total.Merge(stats[q]);
    }
    EXPECT_GT(total.pruned_by_keogh, 0u) << threads;
    EXPECT_GT(total.lb_keogh_abandoned, 0u) << threads;
  }
}

TEST(BatchKnnEngineTest, MixedLengthIndexKeoghChecksEveryCandidate) {
  // The full-span bound needs no equal lengths — every warp path visits
  // every row of x and every column of y — so mixed-length candidates are
  // Keogh-checked like any other. A query whose length matches no indexed
  // series still gets candidates pruned by the stage, the outcome
  // partition stays exact, and hits stay brute-force exact.
  // Trace-like series: class-distinct levels give the full-span bound
  // something to separate.
  const auto trace = [](std::size_t n, std::size_t len) {
    data::GeneratorOptions gopt;
    gopt.num_series = n;
    gopt.length = len;
    return data::MakeTraceLike(gopt);
  };
  ts::Dataset ds;
  for (const auto& s : trace(8, 100)) ds.Add(s);
  for (const auto& s : trace(6, 60)) ds.Add(s);

  for (const VisitOrder order :
       {VisitOrder::kIndexOrder, VisitOrder::kLowerBound}) {
    KnnOptions opt;
    opt.distance = DistanceKind::kFullDtw;
    opt.use_lb_kim = false;  // every candidate reaches the Keogh stage
    opt.visit_order = order;
    KnnEngine engine(opt);
    engine.Index(ds);
    // Queries of length 100 (6 of 14 candidates differ in length) and of
    // length 80 (all 14 differ).
    std::vector<ts::TimeSeries> queries = QueriesFrom(ds, 2);
    queries.push_back(trace(1, 80)[0]);
    for (const std::size_t threads : {1u, 4u}) {
      BatchOptions bopt;
      bopt.num_threads = threads;
      bopt.chunk_size = 3;
      const BatchKnnEngine batch(engine, bopt);
      std::vector<QueryStats> stats;
      const auto hits = batch.QueryBatch(queries, 4, &stats);
      ASSERT_EQ(stats.size(), queries.size());
      if (threads == 1) {
        // The one schedule-independent run: the query that matches no
        // indexed length has candidates pruned by the Keogh stage.
        EXPECT_GT(stats[2].pruned_by_keogh, 0u)
            << "order " << static_cast<int>(order);
      }
      for (std::size_t q = 0; q < stats.size(); ++q) {
        const std::string where =
            std::to_string(threads) + " " + std::to_string(q);
        EXPECT_EQ(stats[q].candidates, ds.size()) << where;
        ExpectCounterInvariants(stats[q], opt.distance, where);
        ExpectSameHits(hits[q], BruteForceTopK(ds, queries[q], 4, std::nullopt),
                       where);
      }
    }
  }
}

TEST(BatchKnnEngineTest, SdtwKeoghStageKeepsHitsBitwise) {
  // sDTW >= DTW >= the full-span LB_Keogh for either cost, so running the
  // stage before BuildBand must leave every hit list bitwise equal to the
  // scan without it and to a brute-force sDTW scan, under every visit
  // order and thread count — while pruning candidates before any band is
  // built.
  // Raw amplitudes: z-normalised Gun-like series all span about the same
  // range, where the full-span bound is near zero and never prunes.
  const ts::Dataset ds = SmallGun(24, 100, /*z_normalize=*/false);
  const std::vector<ts::TimeSeries> queries = QueriesFrom(ds, 6);
  std::vector<std::optional<std::size_t>> excludes;
  for (std::size_t q = 0; q < queries.size(); ++q) excludes.push_back(q);
  for (const dtw::CostKind cost :
       {dtw::CostKind::kAbsolute, dtw::CostKind::kSquared}) {
    KnnOptions opt;
    opt.distance = DistanceKind::kSdtw;
    opt.sdtw.dtw.cost = cost;
    opt.sdtw.dtw.want_path = false;
    const core::Sdtw reference(opt.sdtw);
    std::vector<std::vector<Hit>> expected;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      expected.push_back(BruteForceTopK(
          ds, queries[q], 3, excludes[q],
          [&reference](const ts::TimeSeries& a, const ts::TimeSeries& b) {
            return reference.Compare(a, b).distance;
          }));
    }
    for (const VisitOrder order :
         {VisitOrder::kIndexOrder, VisitOrder::kLowerBound}) {
      opt.visit_order = order;
      opt.use_lb_keogh = true;
      KnnEngine keogh_engine(opt);
      keogh_engine.Index(ds);
      opt.use_lb_keogh = false;
      KnnEngine plain_engine(opt);
      plain_engine.Index(ds);
      QueryStats total;
      for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        BatchOptions bopt;
        bopt.num_threads = threads;
        bopt.chunk_size = 5;
        std::vector<QueryStats> stats;
        const auto keogh_hits = BatchKnnEngine(keogh_engine, bopt)
                                    .QueryBatch(queries, 3, &stats, excludes);
        const auto plain_hits = BatchKnnEngine(plain_engine, bopt)
                                    .QueryBatch(queries, 3, nullptr, excludes);
        for (std::size_t q = 0; q < queries.size(); ++q) {
          const std::string where =
              "cost " + std::to_string(static_cast<int>(cost)) + " order " +
              std::to_string(static_cast<int>(order)) + " threads " +
              std::to_string(threads) + " query " + std::to_string(q);
          ExpectSameHits(keogh_hits[q], plain_hits[q], where);
          ExpectSameHits(keogh_hits[q], expected[q], where);
          ExpectCounterInvariants(stats[q], DistanceKind::kSdtw, where);
          total.Merge(stats[q]);
        }
      }
      EXPECT_GT(total.pruned_by_keogh, 0u)
          << "cost " << static_cast<int>(cost) << " order "
          << static_cast<int>(order);
    }
  }
}

TEST(BatchKnnEngineTest, CascadeActuallyPrunesInBatch) {
  const ts::Dataset ds = SmallGun(24);
  KnnOptions opt;
  opt.distance = DistanceKind::kFullDtw;
  KnnEngine engine(opt);
  engine.Index(ds);
  BatchOptions bopt;
  bopt.num_threads = 4;
  const BatchKnnEngine batch(engine, bopt);
  const std::vector<ts::TimeSeries> queries = QueriesFrom(ds, 4);
  std::vector<QueryStats> stats;
  batch.QueryBatch(queries, 1, &stats);
  for (const QueryStats& s : stats) {
    EXPECT_LT(s.dp_evaluations, s.candidates);
  }
}

TEST(BatchKnnEngineTest, AlignmentsCarryIdenticalHitsAndOptimalPaths) {
  // QueryBatchWithAlignments must return the exact QueryBatch hits, each
  // with the optimal warp path: for exact DTW, the path's cost re-summed
  // in path order is bitwise the DP distance.
  const ts::Dataset ds = SmallGun(16);
  KnnOptions opt;
  opt.distance = DistanceKind::kFullDtw;
  KnnEngine engine(opt);
  engine.Index(ds);
  const std::vector<ts::TimeSeries> queries = QueriesFrom(ds, 4);
  for (const std::size_t threads : {1u, 4u}) {
    BatchOptions bopt;
    bopt.num_threads = threads;
    const BatchKnnEngine batch(engine, bopt);
    const auto plain = batch.QueryBatch(queries, 3);
    const auto aligned = batch.QueryBatchWithAlignments(queries, 3);
    ASSERT_EQ(aligned.size(), plain.size());
    for (std::size_t q = 0; q < plain.size(); ++q) {
      ASSERT_EQ(aligned[q].size(), plain[q].size()) << q;
      for (std::size_t i = 0; i < plain[q].size(); ++i) {
        const AlignedHit& a = aligned[q][i];
        EXPECT_EQ(a.hit.index, plain[q][i].index) << q;
        EXPECT_EQ(a.hit.distance, plain[q][i].distance) << q;
        EXPECT_EQ(a.hit.label, plain[q][i].label) << q;
        const ts::TimeSeries& target = ds[a.hit.index];
        EXPECT_TRUE(dtw::IsValidWarpPath(a.path, queries[q].size(),
                                         target.size()))
            << q << " " << i;
        EXPECT_EQ(dtw::PathCost(queries[q], target, a.path,
                                dtw::CostKind::kAbsolute),
                  a.hit.distance)
            << q << " " << i;
      }
    }
  }
}

TEST(BatchKnnEngineTest, SdtwAlignmentsNeverAbandonAndMatchDistances) {
  // The sDTW alignment re-run abandons at the already-known distance, so
  // it can never actually abandon: every winner keeps a non-empty path
  // whose banded DP distance equals the hit distance bitwise.
  const ts::Dataset ds = SmallGun(14, 80);
  KnnOptions opt;
  opt.distance = DistanceKind::kSdtw;
  KnnEngine engine(opt);
  engine.Index(ds);
  const std::vector<ts::TimeSeries> queries = QueriesFrom(ds, 4);
  BatchOptions bopt;
  bopt.num_threads = 4;
  const BatchKnnEngine batch(engine, bopt);
  std::vector<std::optional<std::size_t>> excludes{0u, 1u, 2u, 3u};
  const auto aligned =
      batch.QueryBatchWithAlignments(queries, 3, nullptr, excludes);
  core::SdtwOptions path_options = opt.sdtw;
  path_options.dtw.want_path = true;
  const core::Sdtw reference(path_options);
  for (std::size_t q = 0; q < aligned.size(); ++q) {
    ASSERT_EQ(aligned[q].size(), 3u);
    for (const AlignedHit& a : aligned[q]) {
      EXPECT_NE(a.hit.index, q);
      ASSERT_FALSE(a.path.empty()) << q;
      const ts::TimeSeries& target = ds[a.hit.index];
      EXPECT_TRUE(dtw::IsValidWarpPath(a.path, queries[q].size(),
                                       target.size()))
          << q;
      // The full (non-abandoning) path-mode comparison agrees on both
      // distance and path.
      const core::SdtwResult direct = reference.Compare(
          queries[q], reference.ExtractFeatures(queries[q]), target,
          reference.ExtractFeatures(target));
      EXPECT_EQ(direct.distance, a.hit.distance) << q;
      EXPECT_EQ(direct.path, a.path) << q;
    }
  }
}

TEST(BatchKnnEngineTest, PointwiseAlignmentsAreDiagonal) {
  const ts::Dataset ds = SmallGun(8, 20);
  KnnOptions opt;
  opt.distance = DistanceKind::kEuclidean;
  KnnEngine engine(opt);
  engine.Index(ds);
  const BatchKnnEngine batch(engine);
  const std::vector<ts::TimeSeries> queries = QueriesFrom(ds, 2);
  const auto aligned = batch.QueryBatchWithAlignments(queries, 2);
  for (const auto& per_query : aligned) {
    for (const AlignedHit& a : per_query) {
      ASSERT_EQ(a.path.size(), 20u);
      for (std::size_t i = 0; i < a.path.size(); ++i) {
        EXPECT_EQ(a.path[i], (dtw::PathPoint{i, i}));
      }
    }
  }
}

TEST(BatchKnnEngineTest, ClassifyBatchMatchesSequentialClassify) {
  const ts::Dataset ds = SmallGun(20);
  KnnEngine engine;
  engine.Index(ds);
  BatchOptions bopt;
  bopt.num_threads = 4;
  const BatchKnnEngine batch(engine, bopt);
  const std::vector<ts::TimeSeries> queries = QueriesFrom(ds, 8);
  // Batch classification is VoteLabel over the QueryBatch hits.
  const auto hits = batch.QueryBatch(queries, 3);
  ASSERT_EQ(hits.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(VoteLabel(hits[q]), engine.Classify(queries[q], 3)) << q;
  }
}

TEST(BatchKnnEngineTest, ClassifyTieBreaksBySummedDistanceDeterministically) {
  // Two classes with equal votes at k = 4. Class 1's two hits sum to the
  // smaller total distance, so it must win under every worker count and
  // completion order. Constant series under Euclidean give exact control:
  // distance = 2 * |offset| at length 4.
  ts::Dataset ds;
  ds.Add(ts::TimeSeries(std::vector<double>(4, 0.5), 0));   // d = 1.0
  ds.Add(ts::TimeSeries(std::vector<double>(4, 2.0), 0));   // d = 4.0
  ds.Add(ts::TimeSeries(std::vector<double>(4, 1.0), 1));   // d = 2.0
  ds.Add(ts::TimeSeries(std::vector<double>(4, 1.25), 1));  // d = 2.5
  ds.Add(ts::TimeSeries(std::vector<double>(4, 9.0), 2));   // never in top-4
  KnnOptions opt;
  opt.distance = DistanceKind::kEuclidean;
  opt.use_lb_kim = false;
  KnnEngine engine(opt);
  engine.Index(ds);
  const std::vector<ts::TimeSeries> queries{
      ts::TimeSeries(std::vector<double>(4, 0.0))};
  for (const std::size_t threads : {1u, 2u, 8u}) {
    BatchOptions bopt;
    bopt.num_threads = threads;
    bopt.chunk_size = 1;
    const BatchKnnEngine batch(engine, bopt);
    for (int rep = 0; rep < 10; ++rep) {
      // Class 0 sums to 5.0, class 1 to 4.5: class 1 wins the vote tie.
      EXPECT_EQ(VoteLabel(batch.QueryBatch(queries, 4)[0]), 1)
          << threads << " rep " << rep;
    }
  }
  EXPECT_EQ(engine.Classify(queries[0], 4), 1);
}

TEST(BatchKnnEngineTest, LeaveOneOutAccuracyMatchesSequentialLoop) {
  const ts::Dataset ds = SmallGun(20);
  KnnEngine engine;
  engine.Index(ds);
  // Reference: the classic serial loop.
  std::size_t correct = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (engine.Classify(ds[i], 1, i) == ds[i].label()) ++correct;
  }
  const double expected =
      static_cast<double>(correct) / static_cast<double>(ds.size());
  for (const std::size_t threads : {1u, 4u}) {
    BatchOptions bopt;
    bopt.num_threads = threads;
    const BatchKnnEngine batch(engine, bopt);
    EXPECT_DOUBLE_EQ(batch.LeaveOneOutAccuracy(1), expected) << threads;
  }
}

TEST(BatchKnnEngineTest, LeaveOneOutNeverScoresAnUnlabelledQueryCorrect) {
  // An unlabelled query "predicts" -1 when it has no hits or only
  // unlabelled neighbours; that must not count as matching its own -1.
  ts::Dataset lone;
  lone.Add(ts::TimeSeries({0.0, 1.0, 0.5, 2.0}));  // no candidate at all
  KnnEngine lone_engine;
  lone_engine.Index(lone);
  EXPECT_EQ(BatchKnnEngine(lone_engine).LeaveOneOutAccuracy(1), 0.0);

  ts::Dataset stripped;
  for (ts::TimeSeries s : SmallGun(20)) {
    s.set_label(-1);
    stripped.Add(std::move(s));
  }
  KnnEngine stripped_engine;
  stripped_engine.Index(stripped);
  EXPECT_EQ(BatchKnnEngine(stripped_engine).LeaveOneOutAccuracy(1), 0.0);
}

TEST(BatchKnnEngineTest, KLargerThanIndexReturnsAllSorted) {
  const ts::Dataset ds = SmallGun(5);
  KnnEngine engine;
  engine.Index(ds);
  BatchOptions bopt;
  bopt.num_threads = 4;
  const BatchKnnEngine batch(engine, bopt);
  const std::vector<ts::TimeSeries> queries = QueriesFrom(ds, 2);
  const auto hits = batch.QueryBatch(queries, 100);
  for (const auto& h : hits) {
    ASSERT_EQ(h.size(), 5u);
    for (std::size_t i = 1; i < h.size(); ++i) {
      EXPECT_GE(h[i].distance, h[i - 1].distance);
    }
  }
}

TEST(ScratchArenaTest, SizingIsMonotone) {
  ScratchArena arena;
  EXPECT_EQ(arena.dp_width(), 0u);
  arena.SizeForTargets(10);
  EXPECT_EQ(arena.dp_width(), 11u);
  arena.SizeForTargets(5);  // never shrinks
  EXPECT_EQ(arena.dp_width(), 11u);
}

TEST(ScratchArenaTest, VisitOrderBufferKeepsCapacityAcrossChunks) {
  ScratchArena arena;
  auto& order = arena.visit_order();
  for (std::size_t i = 0; i < 64; ++i) order.emplace_back(0.0, i);
  const std::size_t capacity = order.capacity();
  order.clear();  // what the chunk loop does between chunks
  EXPECT_EQ(arena.visit_order().capacity(), capacity);
  EXPECT_TRUE(arena.visit_order().empty());
}

TEST(VoteLabelTest, EmptyAndMajorityAndTies) {
  EXPECT_EQ(VoteLabel({}), -1);
  EXPECT_EQ(VoteLabel({{0, 1.0, 7}}), 7);
  // Clear majority.
  EXPECT_EQ(VoteLabel({{0, 1.0, 2}, {1, 2.0, 2}, {2, 0.5, 3}}), 2);
  // Vote tie -> smaller summed distance.
  EXPECT_EQ(VoteLabel({{0, 1.0, 5}, {1, 4.0, 5}, {2, 2.0, 6}, {3, 2.5, 6}}),
            6);
  // Full tie (votes and sums) -> smaller label.
  EXPECT_EQ(VoteLabel({{0, 2.0, 9}, {1, 2.0, 4}}), 4);
}

}  // namespace
}  // namespace retrieval
}  // namespace sdtw
