#include "align/consistency.h"

#include <cmath>
#include <gtest/gtest.h>

namespace sdtw {
namespace align {
namespace {

sift::Keypoint MakeKp(double pos, double sigma, double amp = 0.0) {
  sift::Keypoint kp;
  kp.position = pos;
  kp.sigma = sigma;
  kp.amplitude = amp;
  kp.descriptor = {1.0, 0.0};
  return kp;
}

// ScorePair of keypoint a of x and keypoint b of y, each staged as a
// one-keypoint block of its series.
PairScores ScoreOne(const ts::TimeSeries& x, const ts::TimeSeries& y,
                    const sift::Keypoint& a, const sift::Keypoint& b,
                    double descriptor_distance) {
  return ScorePair(sift::FeatureBlock(std::vector<sift::Keypoint>{a}, x), 0,
                   sift::FeatureBlock(std::vector<sift::Keypoint>{b}, y), 0,
                   descriptor_distance);
}

ts::TimeSeries Ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i) * 0.01;
  return ts::TimeSeries(std::move(v));
}

TEST(ScorePairTest, AlignmentPrefersLargeCloseFeatures) {
  const ts::TimeSeries x = Ramp(100), y = Ramp(100);
  const sift::Keypoint big_near = MakeKp(50, 5);
  const sift::Keypoint big_near_y = MakeKp(52, 5);
  const sift::Keypoint small_far_y = MakeKp(90, 1);
  const PairScores close = ScoreOne(x, y, big_near, big_near_y, 0.0);
  const PairScores far = ScoreOne(x, y, big_near, small_far_y, 0.0);
  EXPECT_GT(close.mu_align, far.mu_align);
}

TEST(ScorePairTest, DescriptorScoreDecreasesWithDistance) {
  const ts::TimeSeries x = Ramp(100), y = Ramp(100);
  const sift::Keypoint a = MakeKp(50, 5), b = MakeKp(52, 5);
  EXPECT_GT(ScoreOne(x, y, a, b, 0.0).mu_desc,
            ScoreOne(x, y, a, b, 2.0).mu_desc);
}

TEST(ScorePairTest, DeltaAmpZeroForIdenticalScopes) {
  const ts::TimeSeries x = Ramp(100), y = Ramp(100);
  const sift::Keypoint a = MakeKp(50, 5), b = MakeKp(50, 5);
  EXPECT_NEAR(ScoreOne(x, y, a, b, 0.0).delta_amp, 0.0, 1e-9);
}

TEST(ScorePairTest, DeltaAmpBoundedByOne) {
  const ts::TimeSeries x = Ramp(100);
  const ts::TimeSeries y = ts::TimeSeries::Zeros(100);
  const sift::Keypoint a = MakeKp(80, 5), b = MakeKp(80, 5);
  const PairScores s = ScoreOne(x, y, a, b, 0.0);
  EXPECT_GE(s.delta_amp, 0.0);
  EXPECT_LE(s.delta_amp, 1.0);
}

TEST(PruneTest, EmptyPairsYieldEmptyResult) {
  const ts::TimeSeries x = Ramp(50), y = Ramp(50);
  EXPECT_TRUE(PruneInconsistent(x, y, {}, {}, {}).empty());
}

TEST(PruneTest, SinglePairAlwaysSurvives) {
  const ts::TimeSeries x = Ramp(100), y = Ramp(100);
  std::vector<sift::Keypoint> kx{MakeKp(30, 3)};
  std::vector<sift::Keypoint> ky{MakeKp(35, 3)};
  std::vector<MatchPair> pairs{{0, 0, 0.1}};
  const auto result = PruneInconsistent(x, y, kx, ky, pairs);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].index_x, 0u);
  EXPECT_EQ(result[0].index_y, 0u);
}

TEST(PruneTest, ConsistentPairsAllSurvive) {
  const ts::TimeSeries x = Ramp(200), y = Ramp(200);
  std::vector<sift::Keypoint> kx{MakeKp(30, 3), MakeKp(100, 3),
                                 MakeKp(170, 3)};
  std::vector<sift::Keypoint> ky{MakeKp(35, 3), MakeKp(105, 3),
                                 MakeKp(175, 3)};
  std::vector<MatchPair> pairs{{0, 0, 0.1}, {1, 1, 0.1}, {2, 2, 0.1}};
  EXPECT_EQ(PruneInconsistent(x, y, kx, ky, pairs).size(), 3u);
}

TEST(PruneTest, CrossingPairsPruned) {
  // Features at (30 -> 150) and (150 -> 30): order is swapped across the
  // series, so only one can survive.
  const ts::TimeSeries x = Ramp(200), y = Ramp(200);
  std::vector<sift::Keypoint> kx{MakeKp(30, 3), MakeKp(150, 3)};
  std::vector<sift::Keypoint> ky{MakeKp(30, 3), MakeKp(150, 3)};
  std::vector<MatchPair> pairs{{0, 1, 0.1}, {1, 0, 0.1}};
  const auto result = PruneInconsistent(x, y, kx, ky, pairs);
  EXPECT_EQ(result.size(), 1u);
}

TEST(PruneTest, HigherCombinedScoreWinsConflict) {
  const ts::TimeSeries x = Ramp(200), y = Ramp(200);
  // Pair A: large scope, aligned (strong). Pair B: crosses A, small & far
  // (weak). A must win.
  std::vector<sift::Keypoint> kx{MakeKp(100, 8), MakeKp(40, 1)};
  std::vector<sift::Keypoint> ky{MakeKp(102, 8), MakeKp(160, 1)};
  std::vector<MatchPair> pairs{{0, 0, 0.05}, {1, 1, 0.5}};
  const auto result = PruneInconsistent(x, y, kx, ky, pairs);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].index_x, 0u);
}

TEST(PruneTest, NestedScopesAreInconsistent) {
  // Pair 1 scope in X: [70,130]; pair 2 in X: [85,115] (nested inside) but
  // in Y pair 2 sits entirely AFTER pair 1's scope -> ranks disagree.
  const ts::TimeSeries x = Ramp(300), y = Ramp(300);
  std::vector<sift::Keypoint> kx{MakeKp(100, 10), MakeKp(100, 5)};
  std::vector<sift::Keypoint> ky{MakeKp(100, 10), MakeKp(200, 5)};
  std::vector<MatchPair> pairs{{0, 0, 0.01}, {1, 1, 0.3}};
  const auto result = PruneInconsistent(x, y, kx, ky, pairs);
  EXPECT_EQ(result.size(), 1u);
}

TEST(PruneTest, UniqueFeaturesPreventsReuse) {
  const ts::TimeSeries x = Ramp(200), y = Ramp(200);
  // Two X features matched to the SAME Y feature.
  std::vector<sift::Keypoint> kx{MakeKp(50, 3), MakeKp(60, 3)};
  std::vector<sift::Keypoint> ky{MakeKp(55, 3)};
  std::vector<MatchPair> pairs{{0, 0, 0.1}, {1, 0, 0.2}};
  ConsistencyOptions opt;
  opt.unique_features = true;
  EXPECT_EQ(PruneInconsistent(x, y, kx, ky, pairs, opt).size(), 1u);
}

TEST(PruneTest, ResultsSortedByXPosition) {
  const ts::TimeSeries x = Ramp(300), y = Ramp(300);
  std::vector<sift::Keypoint> kx{MakeKp(200, 3), MakeKp(50, 3)};
  std::vector<sift::Keypoint> ky{MakeKp(210, 3), MakeKp(55, 3)};
  std::vector<MatchPair> pairs{{0, 0, 0.1}, {1, 1, 0.1}};
  const auto result = PruneInconsistent(x, y, kx, ky, pairs);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_LT(result[0].start_x, result[1].start_x);
}

TEST(PruneTest, ScopesClampedToSeries) {
  const ts::TimeSeries x = Ramp(100), y = Ramp(100);
  std::vector<sift::Keypoint> kx{MakeKp(2, 10)};
  std::vector<sift::Keypoint> ky{MakeKp(98, 10)};
  std::vector<MatchPair> pairs{{0, 0, 0.1}};
  const auto result = PruneInconsistent(x, y, kx, ky, pairs);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_GE(result[0].start_x, 0.0);
  EXPECT_LE(result[0].end_x, 99.0);
  EXPECT_GE(result[0].start_y, 0.0);
  EXPECT_LE(result[0].end_y, 99.0);
}

TEST(BuildIntervalsTest, NoPairsGivesSingleFullInterval) {
  const auto intervals = BuildIntervals(100, 80, {});
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0].begin_x, 0u);
  EXPECT_EQ(intervals[0].end_x, 99u);
  EXPECT_EQ(intervals[0].begin_y, 0u);
  EXPECT_EQ(intervals[0].end_y, 79u);
}

TEST(BuildIntervalsTest, OnePairGivesThreeIntervals) {
  AlignedPair p;
  p.start_x = 40;
  p.end_x = 60;
  p.start_y = 30;
  p.end_y = 50;
  const auto intervals = BuildIntervals(100, 100, {p});
  // Cuts at {0,40,60,99}: three intervals.
  ASSERT_EQ(intervals.size(), 3u);
  EXPECT_EQ(intervals[0].begin_x, 0u);
  EXPECT_EQ(intervals[1].begin_x, 40u);
  EXPECT_EQ(intervals[1].end_x, 60u);
  EXPECT_EQ(intervals[1].begin_y, 30u);
  EXPECT_EQ(intervals[1].end_y, 50u);
  EXPECT_EQ(intervals[2].end_x, 99u);
  EXPECT_EQ(intervals[2].end_y, 99u);
}

TEST(BuildIntervalsTest, IntervalsAreContiguousAndMonotone) {
  AlignedPair p1;
  p1.start_x = 10;
  p1.end_x = 30;
  p1.start_y = 15;
  p1.end_y = 35;
  AlignedPair p2;
  p2.start_x = 50;
  p2.end_x = 70;
  p2.start_y = 55;
  p2.end_y = 80;
  const auto intervals = BuildIntervals(100, 100, {p1, p2});
  ASSERT_EQ(intervals.size(), 5u);
  for (std::size_t k = 1; k < intervals.size(); ++k) {
    EXPECT_GE(intervals[k].begin_x, intervals[k - 1].begin_x);
    EXPECT_GE(intervals[k].begin_y, intervals[k - 1].begin_y);
  }
  EXPECT_EQ(intervals.front().begin_x, 0u);
  EXPECT_EQ(intervals.back().end_x, 99u);
}

TEST(BuildIntervalsTest, EmptyLengthsGiveNoIntervals) {
  EXPECT_TRUE(BuildIntervals(0, 10, {}).empty());
  EXPECT_TRUE(BuildIntervals(10, 0, {}).empty());
}

TEST(BuildIntervalsTest, DegenerateBoundariesProduceEmptyIntervals) {
  // Boundaries at the same spot in X but spread in Y: X-side intervals
  // collapse but the structure stays aligned (same count both sides).
  AlignedPair p;
  p.start_x = 50;
  p.end_x = 50;
  p.start_y = 20;
  p.end_y = 70;
  const auto intervals = BuildIntervals(100, 100, {p});
  ASSERT_EQ(intervals.size(), 3u);
  EXPECT_EQ(intervals[1].begin_x, 50u);
  EXPECT_EQ(intervals[1].end_x, 50u);
  EXPECT_EQ(intervals[1].begin_y, 20u);
  EXPECT_EQ(intervals[1].end_y, 70u);
}

}  // namespace
}  // namespace align
}  // namespace sdtw
