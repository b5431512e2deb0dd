#include "retrieval/knn.h"

#include <cmath>
#include <gtest/gtest.h>

#include "data/generators.h"
#include "dtw/dtw.h"
#include "retrieval/batch.h"

namespace sdtw {
namespace retrieval {
namespace {

ts::Dataset SmallGun(std::size_t n = 16, std::size_t len = 100) {
  data::GeneratorOptions opt;
  opt.num_series = n;
  opt.length = len;
  return data::MakeGunLike(opt);
}

TEST(KnnEngineTest, EmptyIndexReturnsNothing) {
  KnnEngine engine;
  EXPECT_TRUE(engine.Query(ts::TimeSeries({1.0, 2.0}), 3).empty());
  EXPECT_EQ(engine.Classify(ts::TimeSeries({1.0, 2.0}), 3), -1);
}

TEST(KnnEngineTest, SelfQueryFindsSelfFirst) {
  const ts::Dataset ds = SmallGun();
  KnnEngine engine;
  engine.Index(ds);
  const auto hits = engine.Query(ds[3], 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].index, 3u);
  EXPECT_NEAR(hits[0].distance, 0.0, 1e-9);
}

TEST(KnnEngineTest, ExcludeSupportsLeaveOneOut) {
  const ts::Dataset ds = SmallGun();
  KnnEngine engine;
  engine.Index(ds);
  const auto hits = engine.Query(ds[3], 3, 3);
  ASSERT_EQ(hits.size(), 3u);
  for (const Hit& h : hits) EXPECT_NE(h.index, 3u);
}

TEST(KnnEngineTest, HitsSortedAscending) {
  const ts::Dataset ds = SmallGun();
  KnnEngine engine;
  engine.Index(ds);
  const auto hits = engine.Query(ds[0], 5, 0);
  ASSERT_EQ(hits.size(), 5u);
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i].distance, hits[i - 1].distance);
  }
}

TEST(KnnEngineTest, FullDtwModeMatchesDirectComputation) {
  const ts::Dataset ds = SmallGun(10);
  KnnOptions opt;
  opt.distance = DistanceKind::kFullDtw;
  opt.use_lb_kim = false;
  opt.use_lb_keogh = false;
  opt.use_early_abandon = false;
  KnnEngine engine(opt);
  engine.Index(ds);
  const auto hits = engine.Query(ds[0], 1, 0);
  ASSERT_EQ(hits.size(), 1u);
  // Verify against brute force.
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_idx = 0;
  for (std::size_t j = 1; j < ds.size(); ++j) {
    const double d = dtw::DtwDistance(ds[0], ds[j]);
    if (d < best) {
      best = d;
      best_idx = j;
    }
  }
  EXPECT_EQ(hits[0].index, best_idx);
  EXPECT_NEAR(hits[0].distance, best, 1e-9);
}

TEST(KnnEngineTest, CascadePreservesExactResults) {
  // The LB cascade and early abandoning must not change the top-k result
  // for the exact-DTW distance.
  const ts::Dataset ds = SmallGun(14);
  KnnOptions plain;
  plain.distance = DistanceKind::kFullDtw;
  plain.use_lb_kim = false;
  plain.use_lb_keogh = false;
  plain.use_early_abandon = false;
  KnnOptions cascade;
  cascade.distance = DistanceKind::kFullDtw;
  KnnEngine a(plain), b(cascade);
  a.Index(ds);
  b.Index(ds);
  for (std::size_t q = 0; q < 5; ++q) {
    const auto ha = a.Query(ds[q], 3, q);
    const auto hb = b.Query(ds[q], 3, q);
    ASSERT_EQ(ha.size(), hb.size()) << q;
    for (std::size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i].index, hb[i].index) << q;
      EXPECT_NEAR(ha[i].distance, hb[i].distance, 1e-9) << q;
    }
  }
}

TEST(KnnEngineTest, CascadeActuallyPrunes) {
  const ts::Dataset ds = SmallGun(20);
  KnnOptions opt;
  opt.distance = DistanceKind::kFullDtw;
  KnnEngine engine(opt);
  engine.Index(ds);
  QueryStats stats;
  engine.Query(ds[0], 1, 0, &stats);
  EXPECT_EQ(stats.candidates, 19u);
  EXPECT_GT(stats.pruned_by_kim + stats.pruned_by_keogh +
                stats.pruned_by_early_abandon,
            0u);
  EXPECT_LT(stats.dp_evaluations, stats.candidates);
}

TEST(KnnEngineTest, ClassifyMajorityVote) {
  const ts::Dataset ds = SmallGun(20);
  KnnEngine engine;
  engine.Index(ds);
  // Self-classification with k=3 including self should recover the label.
  int correct = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    if (engine.Classify(ds[i], 3) == ds[i].label()) ++correct;
  }
  EXPECT_GE(correct, 5);
}

TEST(KnnEngineTest, LeaveOneOutAccuracyReasonable) {
  const ts::Dataset ds = SmallGun(20, 100);
  KnnEngine engine;
  engine.Index(ds);
  const double acc = BatchKnnEngine(engine).LeaveOneOutAccuracy(1);
  EXPECT_GE(acc, 0.5);  // two balanced classes; random is 0.5
  EXPECT_LE(acc, 1.0);
}

TEST(KnnEngineTest, SdtwModeUpperBoundsFullDtwDistances) {
  const ts::Dataset ds = SmallGun(10);
  KnnOptions opt;
  opt.distance = DistanceKind::kSdtw;
  KnnEngine engine(opt);
  engine.Index(ds);
  const auto hits = engine.Query(ds[0], 3, 0);
  for (const Hit& h : hits) {
    EXPECT_GE(h.distance, dtw::DtwDistance(ds[0], ds[h.index]) - 1e-9);
  }
}

TEST(KnnEngineTest, EuclideanAndL1ArePinnedOnKnownPair) {
  // Regression: kEuclidean used to compute pointwise L1. Pin both
  // distances on a known pair — diffs (1, 2, 3):
  //   L1 = 1 + 2 + 3 = 6,  Euclidean = sqrt(1 + 4 + 9) = sqrt(14).
  ts::Dataset ds;
  ds.Add(ts::TimeSeries({1.0, 1.0, 1.0}, 0));
  const ts::TimeSeries query({2.0, 3.0, 4.0});

  KnnOptions euclid;
  euclid.distance = DistanceKind::kEuclidean;
  euclid.use_lb_kim = false;
  KnnEngine e(euclid);
  e.Index(ds);
  const auto eh = e.Query(query, 1);
  ASSERT_EQ(eh.size(), 1u);
  EXPECT_DOUBLE_EQ(eh[0].distance, std::sqrt(14.0));

  KnnOptions l1;
  l1.distance = DistanceKind::kL1;
  l1.use_lb_kim = false;
  KnnEngine l(l1);
  l.Index(ds);
  const auto lh = l.Query(query, 1);
  ASSERT_EQ(lh.size(), 1u);
  EXPECT_DOUBLE_EQ(lh[0].distance, 6.0);
}

TEST(KnnEngineTest, L1AndEuclideanRejectLengthMismatch) {
  // Both pointwise baselines are undefined across lengths and must yield
  // +inf (no hit) for a mismatched candidate.
  ts::Dataset ds;
  ds.Add(ts::TimeSeries({0.0, 0.0}, 0));  // length mismatch vs query
  const ts::TimeSeries query({1.0, 1.0, 1.0});
  for (const DistanceKind kind : {DistanceKind::kL1,
                                  DistanceKind::kEuclidean}) {
    KnnOptions opt;
    opt.distance = kind;
    opt.use_lb_kim = false;
    KnnEngine engine(opt);
    engine.Index(ds);
    EXPECT_TRUE(engine.Query(query, 1).empty());
  }
}

TEST(KnnEngineTest, L1AndEuclideanAgreeOnRankingOfOffsetSeries) {
  // Candidates at constant offsets from the query: both norms are
  // monotone in the offset, so the rankings must be identical.
  ts::Dataset ds;
  ds.Add(ts::TimeSeries({5.0, 5.0, 5.0, 5.0}, 0));
  ds.Add(ts::TimeSeries({1.0, 1.0, 1.0, 1.0}, 1));
  ds.Add(ts::TimeSeries({3.0, 3.0, 3.0, 3.0}, 2));
  const ts::TimeSeries query({0.0, 0.0, 0.0, 0.0});
  std::vector<std::vector<std::size_t>> orders;
  for (const DistanceKind kind : {DistanceKind::kL1,
                                  DistanceKind::kEuclidean}) {
    KnnOptions opt;
    opt.distance = kind;
    KnnEngine engine(opt);
    engine.Index(ds);
    const auto hits = engine.Query(query, 3);
    ASSERT_EQ(hits.size(), 3u);
    std::vector<std::size_t> order;
    for (const Hit& h : hits) order.push_back(h.index);
    orders.push_back(std::move(order));
  }
  EXPECT_EQ(orders[0], (std::vector<std::size_t>{1, 2, 0}));
  EXPECT_EQ(orders[1], orders[0]);
}

TEST(KnnEngineTest, EuclideanModeOnEqualLengths) {
  ts::Dataset ds;
  ds.Add(ts::TimeSeries({0.0, 0.0, 0.0}, 0));
  ds.Add(ts::TimeSeries({1.0, 1.0, 1.0}, 1));
  ds.Add(ts::TimeSeries({5.0, 5.0, 5.0}, 2));
  KnnOptions opt;
  opt.distance = DistanceKind::kEuclidean;
  opt.use_lb_kim = false;
  KnnEngine engine(opt);
  engine.Index(ds);
  const auto hits = engine.Query(ts::TimeSeries({0.9, 0.9, 0.9}), 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].index, 1u);
}

TEST(KnnEngineTest, LbKimDoesNotPruneUnderSquaredCostSdtw) {
  // Regression: LB_Kim (absolute differences) is not a lower bound for
  // squared-cost distances when diffs are < 1. Candidate 1 has the
  // smaller squared-cost sDTW distance but the larger LB_Kim value; an
  // unsound prune would return candidate 0.
  // Candidate 0: diff 0.20 -> squared distance 4 * 0.04   = 0.16 (= bsf).
  // Candidate 1: diff 0.18 -> squared distance 4 * 0.0324 = 0.1296, yet
  // LB_Kim = 0.18 > 0.16 would (unsoundly) prune it.
  ts::Dataset ds;
  ds.Add(ts::TimeSeries(std::vector<double>(4, 0.20), 0));
  ds.Add(ts::TimeSeries(std::vector<double>(4, 0.18), 1));
  const ts::TimeSeries query(std::vector<double>(4, 0.0));
  KnnOptions opt;
  opt.distance = DistanceKind::kSdtw;
  opt.sdtw.dtw.cost = dtw::CostKind::kSquared;
  KnnEngine engine(opt);
  engine.Index(ds);
  const auto hits = engine.Query(query, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].index, 1u);
  EXPECT_NEAR(hits[0].distance, 4 * 0.18 * 0.18, 1e-9);
}

TEST(KnnEngineTest, KeoghStagePreservesExactnessUnderLargeShifts) {
  // Regression: LB_Keogh used to be evaluated against 10%-radius
  // envelopes, which only lower-bound *window-constrained* DTW — on a
  // large time shift the bound exceeded the true unconstrained distance
  // and the nearest neighbour was wrongly pruned. With full-span
  // envelopes the stage is sound. Ramps shifted by 35 (index 0, DTW
  // 35*36 = 1260) and by 30 (index 1, DTW 30*31 = 930): index 0 is
  // scanned first and sets best-so-far; index 1 must still win.
  const std::size_t n = 100;
  std::vector<double> q(n), far(n), near(n);
  for (std::size_t i = 0; i < n; ++i) {
    q[i] = static_cast<double>(i);
    far[i] = static_cast<double>(i) - 35.0;
    near[i] = static_cast<double>(i) - 30.0;
  }
  ts::Dataset ds;
  ds.Add(ts::TimeSeries(far, 0));
  ds.Add(ts::TimeSeries(near, 1));
  const ts::TimeSeries query(q);
  KnnOptions opt;
  opt.distance = DistanceKind::kFullDtw;  // full cascade on
  KnnEngine engine(opt);
  engine.Index(ds);
  const auto hits = engine.Query(query, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].index, 1u);
  EXPECT_EQ(hits[0].distance, dtw::DtwDistance(query, ds[1]));
}

TEST(KnnEngineTest, KLargerThanIndexReturnsAll) {
  const ts::Dataset ds = SmallGun(5);
  KnnEngine engine;
  engine.Index(ds);
  EXPECT_EQ(engine.Query(ds[0], 100).size(), 5u);
}

}  // namespace
}  // namespace retrieval
}  // namespace sdtw
