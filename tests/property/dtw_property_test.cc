// Property-based tests on DTW invariants, swept over random inputs with
// parameterized gtest (TEST_P / INSTANTIATE_TEST_SUITE_P).

#include <cmath>
#include <gtest/gtest.h>

#include "dtw/dtw.h"
#include "dtw/lower_bounds.h"
#include "ts/random.h"
#include "ts/transforms.h"

namespace sdtw {
namespace dtw {
namespace {

struct Sizes {
  std::size_t n;
  std::size_t m;
  std::uint64_t seed;
};

ts::TimeSeries RandomWalk(std::size_t n, std::uint64_t seed) {
  ts::Rng rng(seed);
  std::vector<double> v(n);
  double x = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x += rng.Gaussian(0.0, 0.3);
    v[i] = x;
  }
  return ts::TimeSeries(std::move(v));
}

class DtwPropertyTest : public ::testing::TestWithParam<Sizes> {};

TEST_P(DtwPropertyTest, SymmetryOfDistance) {
  const Sizes p = GetParam();
  const ts::TimeSeries x = RandomWalk(p.n, p.seed);
  const ts::TimeSeries y = RandomWalk(p.m, p.seed + 1000);
  EXPECT_NEAR(DtwDistance(x, y), DtwDistance(y, x), 1e-9);
}

TEST_P(DtwPropertyTest, NonNegativityAndIdentity) {
  const Sizes p = GetParam();
  const ts::TimeSeries x = RandomWalk(p.n, p.seed);
  EXPECT_GE(DtwDistance(x, RandomWalk(p.m, p.seed + 5)), 0.0);
  EXPECT_NEAR(DtwDistance(x, x), 0.0, 1e-12);
}

TEST_P(DtwPropertyTest, PathIsValidAndCostConsistent) {
  const Sizes p = GetParam();
  const ts::TimeSeries x = RandomWalk(p.n, p.seed);
  const ts::TimeSeries y = RandomWalk(p.m, p.seed + 1);
  const DtwResult r = Dtw(x, y);
  EXPECT_TRUE(IsValidWarpPath(r.path, p.n, p.m));
  EXPECT_NEAR(PathCost(x, y, r.path), r.distance, 1e-9);
}

TEST_P(DtwPropertyTest, DtwLowerBoundsEuclideanOnEqualLengths) {
  // DTW is the min over all paths including the diagonal path, so it never
  // exceeds the pointwise (L1) cost on equal-length series.
  const Sizes p = GetParam();
  const ts::TimeSeries x = RandomWalk(p.n, p.seed + 2);
  const ts::TimeSeries y = RandomWalk(p.n, p.seed + 3);
  double l1 = 0.0;
  for (std::size_t i = 0; i < p.n; ++i) l1 += std::abs(x[i] - y[i]);
  EXPECT_LE(DtwDistance(x, y), l1 + 1e-9);
}

TEST_P(DtwPropertyTest, BandWideningNeverIncreasesDistance) {
  const Sizes p = GetParam();
  const ts::TimeSeries x = RandomWalk(p.n, p.seed + 4);
  const ts::TimeSeries y = RandomWalk(p.m, p.seed + 5);
  double prev = std::numeric_limits<double>::infinity();
  for (double w : {0.05, 0.1, 0.3, 0.6, 1.0, 2.0}) {
    Band band = SakoeChibaBand(p.n, p.m, w);
    const double d = DtwBandedDistance(x, y, band);
    EXPECT_LE(d, prev + 1e-9) << "w=" << w;
    prev = d;
  }
  // w = 2 covers the whole grid, recovering the exact distance.
  EXPECT_NEAR(prev, DtwDistance(x, y), 1e-9);
}

TEST_P(DtwPropertyTest, BandedNeverBelowOptimal) {
  const Sizes p = GetParam();
  const ts::TimeSeries x = RandomWalk(p.n, p.seed + 6);
  const ts::TimeSeries y = RandomWalk(p.m, p.seed + 7);
  const double optimal = DtwDistance(x, y);
  for (double w : {0.0, 0.1, 0.4}) {
    const Band band = SakoeChibaBand(p.n, p.m, w);
    EXPECT_GE(DtwBandedDistance(x, y, band), optimal - 1e-9);
  }
}

TEST_P(DtwPropertyTest, ItakuraBandGivesFiniteDistance) {
  const Sizes p = GetParam();
  const ts::TimeSeries x = RandomWalk(p.n, p.seed + 8);
  const ts::TimeSeries y = RandomWalk(p.m, p.seed + 9);
  const Band band = ItakuraBand(p.n, p.m, 2.0);
  EXPECT_TRUE(std::isfinite(DtwBandedDistance(x, y, band)));
}

TEST_P(DtwPropertyTest, LbKimBoundsOptimal) {
  const Sizes p = GetParam();
  const ts::TimeSeries x = RandomWalk(p.n, p.seed + 10);
  const ts::TimeSeries y = RandomWalk(p.m, p.seed + 11);
  EXPECT_LE(LbKim(x, y), DtwDistance(x, y) + 1e-9);
}

TEST_P(DtwPropertyTest, ReversalInvariance) {
  // DTW(x, y) == DTW(reverse(x), reverse(y)) — the grid is mirrored.
  const Sizes p = GetParam();
  const ts::TimeSeries x = RandomWalk(p.n, p.seed + 12);
  const ts::TimeSeries y = RandomWalk(p.m, p.seed + 13);
  EXPECT_NEAR(DtwDistance(x, y),
              DtwDistance(ts::Reverse(x), ts::Reverse(y)), 1e-9);
}

TEST_P(DtwPropertyTest, ConstantShiftOfBothSeriesInvariant) {
  const Sizes p = GetParam();
  const ts::TimeSeries x = RandomWalk(p.n, p.seed + 14);
  const ts::TimeSeries y = RandomWalk(p.m, p.seed + 15);
  EXPECT_NEAR(DtwDistance(x, y),
              DtwDistance(ts::Shift(x, 5.0), ts::Shift(y, 5.0)), 1e-9);
}

TEST_P(DtwPropertyTest, ScalingScalesAbsoluteCost) {
  const Sizes p = GetParam();
  const ts::TimeSeries x = RandomWalk(p.n, p.seed + 16);
  const ts::TimeSeries y = RandomWalk(p.m, p.seed + 17);
  EXPECT_NEAR(DtwDistance(ts::Scale(x, 2.0), ts::Scale(y, 2.0)),
              2.0 * DtwDistance(x, y), 1e-6);
}

TEST_P(DtwPropertyTest, EarlyAbandonAgreesWhenNotAbandoning) {
  const Sizes p = GetParam();
  const ts::TimeSeries x = RandomWalk(p.n, p.seed + 18);
  const ts::TimeSeries y = RandomWalk(p.m, p.seed + 19);
  const double d = DtwDistance(x, y);
  DtwScratch scratch;
  EXPECT_NEAR(DtwDistance(x, y, CostKind::kAbsolute, scratch, d * 2.0 + 1.0),
              d, 1e-9);
}

TEST_P(DtwPropertyTest, SquaredCostAlsoSymmetricAndBounded) {
  const Sizes p = GetParam();
  const ts::TimeSeries x = RandomWalk(p.n, p.seed + 20);
  const ts::TimeSeries y = RandomWalk(p.m, p.seed + 21);
  const double dxy = DtwDistance(x, y, CostKind::kSquared);
  EXPECT_NEAR(dxy, DtwDistance(y, x, CostKind::kSquared), 1e-9);
  const Band full = Band::Full(p.n, p.m);
  DtwOptions opt;
  opt.cost = CostKind::kSquared;
  EXPECT_NEAR(DtwBanded(x, y, full, opt).distance, dxy, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SizeSweep, DtwPropertyTest,
    ::testing::Values(Sizes{8, 8, 1}, Sizes{16, 24, 2}, Sizes{31, 17, 3},
                      Sizes{50, 50, 4}, Sizes{64, 100, 5}, Sizes{100, 64, 6},
                      Sizes{128, 128, 7}, Sizes{5, 150, 8}, Sizes{150, 5, 9},
                      Sizes{2, 2, 10}, Sizes{1, 40, 11}, Sizes{40, 1, 12}),
    [](const ::testing::TestParamInfo<Sizes>& info) {
      return "n" + std::to_string(info.param.n) + "_m" +
             std::to_string(info.param.m) + "_s" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace dtw
}  // namespace sdtw
