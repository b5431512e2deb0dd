#include "core/sdtw.h"

#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <vector>

#include "data/generators.h"
#include "dtw/band_matrix.h"
#include "dtw/row_kernel.h"
#include "ts/random.h"
#include "ts/transforms.h"

namespace sdtw {
namespace core {
namespace {

ts::TimeSeries Smooth(std::size_t n, std::uint64_t seed, std::size_t k = 10) {
  ts::Rng rng(seed);
  return ts::ZNormalize(data::patterns::RandomSmooth(n, k, rng));
}

TEST(SdtwTest, SelfComparisonIsZero) {
  Sdtw engine;
  const ts::TimeSeries x = Smooth(150, 1);
  const SdtwResult r = engine.Compare(x, x);
  EXPECT_NEAR(r.distance, 0.0, 1e-9);
}

TEST(SdtwTest, DistanceUpperBoundsOptimalDtw) {
  Sdtw engine;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const ts::TimeSeries x = Smooth(150, 100 + seed);
    const ts::TimeSeries y = Smooth(150, 200 + seed);
    const double optimal = dtw::DtwDistance(x, y);
    const double approx = engine.Compare(x, y).distance;
    EXPECT_GE(approx, optimal - 1e-9) << seed;
    EXPECT_TRUE(std::isfinite(approx)) << seed;
  }
}

TEST(SdtwTest, AlwaysFiniteThanksToBridging) {
  // Even pathological inputs must produce a finite distance: the band is
  // repaired to feasibility.
  Sdtw engine;
  const ts::TimeSeries x = Smooth(80, 3);
  const ts::TimeSeries spiky = ts::TimeSeries::Constant(120, 0.0);
  EXPECT_TRUE(std::isfinite(engine.Compare(x, spiky).distance));
}

TEST(SdtwTest, PathValidWhenRequested) {
  SdtwOptions opt;
  opt.dtw.want_path = true;
  Sdtw engine(opt);
  const ts::TimeSeries x = Smooth(100, 5);
  const ts::TimeSeries y = Smooth(120, 6);
  const SdtwResult r = engine.Compare(x, y);
  EXPECT_TRUE(dtw::IsValidWarpPath(r.path, 100, 120));
  for (const dtw::PathPoint& p : r.path) {
    EXPECT_TRUE(r.band.Contains(p.first, p.second));
  }
}

TEST(SdtwTest, BandFeasibleForAllConstraintTypes) {
  const ts::TimeSeries x = Smooth(150, 7);
  const ts::TimeSeries y = Smooth(150, 8);
  for (ConstraintType type :
       {ConstraintType::kFixedCoreFixedWidth,
        ConstraintType::kFixedCoreAdaptiveWidth,
        ConstraintType::kAdaptiveCoreFixedWidth,
        ConstraintType::kAdaptiveCoreAdaptiveWidth}) {
    SdtwOptions opt;
    opt.constraint.type = type;
    Sdtw engine(opt);
    const SdtwResult r = engine.Compare(x, y);
    EXPECT_TRUE(r.band.IsFeasible()) << ConstraintTypeName(type);
    EXPECT_TRUE(std::isfinite(r.distance)) << ConstraintTypeName(type);
  }
}

// The cells a banded DP pruned at `threshold` evaluates when it does not
// abandon: the scalar oracle's count, row by row over the band
// (dtw/row_kernel.h).
std::size_t OracleCells(const ts::TimeSeries& x, const ts::TimeSeries& y,
                        const dtw::Band& band, double threshold) {
  std::vector<double> prev = {0.0};
  std::size_t plo = 0;
  std::size_t phi = 0;
  std::size_t cells = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto [lo, hi] = dtw::DpWindow(band.row(i), y.size());
    std::vector<double> cur(lo <= hi ? hi - lo + 1 : 0);
    dtw::internal::FillBandRowScalar(prev.data(), plo, phi, cur.data(), lo,
                                     hi, x[i], y.values().data(),
                                     dtw::AbsCost{}, &cells, threshold);
    prev = std::move(cur);
    plo = lo;
    phi = hi;
  }
  return cells;
}

TEST(SdtwTest, CompareAbandonAboveUnderThresholdMatchesCompare) {
  SdtwOptions opt;
  opt.dtw.want_path = true;
  Sdtw engine(opt);
  const ts::TimeSeries x = Smooth(100, 11);
  const ts::TimeSeries y = Smooth(110, 12);
  const auto fx = engine.ExtractFeatures(x);
  const auto fy = engine.ExtractFeatures(y);
  const SdtwResult full = engine.Compare(x, fx, y, fy);
  // An inclusive threshold (the exact distance) must change neither the
  // distance, the alignment path nor the band. Neither must a NaN one,
  // which is non-finite and so never abandons or prunes. The cells are
  // those the oracle counts at the threshold.
  for (const double threshold :
       {full.distance, std::numeric_limits<double>::quiet_NaN()}) {
    const SdtwResult ea = engine.Compare(x, fx, y, fy, threshold);
    EXPECT_EQ(ea.distance, full.distance) << threshold;
    EXPECT_EQ(ea.path, full.path) << threshold;
    EXPECT_EQ(ea.band, full.band) << threshold;
    EXPECT_EQ(ea.cells_filled, OracleCells(x, y, full.band, threshold))
        << threshold;
  }
  EXPECT_EQ(full.cells_filled,
            OracleCells(x, y, full.band, dtw::kNoAbandon));
}

TEST(SdtwTest, CompareAbandonAboveAbandonsBelowThreshold) {
  SdtwOptions opt;
  opt.dtw.want_path = true;
  Sdtw engine(opt);
  const ts::TimeSeries x = Smooth(100, 13);
  const ts::TimeSeries y = Smooth(110, 14);
  const auto fx = engine.ExtractFeatures(x);
  const auto fy = engine.ExtractFeatures(y);
  const SdtwResult full = engine.Compare(x, fx, y, fy);
  ASSERT_GT(full.distance, 0.0);
  const SdtwResult ea = engine.Compare(x, fx, y, fy, full.distance / 2.0);
  EXPECT_TRUE(std::isinf(ea.distance));
  EXPECT_TRUE(ea.path.empty());
  EXPECT_LE(ea.cells_filled, full.cells_filled);
  // A NaN threshold is non-finite: the comparison runs to the end.
  const SdtwResult nan =
      engine.Compare(x, fx, y, fy, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(nan.distance, full.distance);
  EXPECT_EQ(nan.path, full.path);
}

TEST(SdtwTest, PrunesWorkOnStructuredSeries) {
  // ac,aw on feature-rich series should fill fewer cells than full DTW.
  SdtwOptions opt;
  opt.constraint.type = ConstraintType::kAdaptiveCoreAdaptiveWidth;
  Sdtw engine(opt);
  const ts::TimeSeries x = Smooth(256, 9, 14);
  const ts::TimeSeries y = Smooth(256, 10, 14);
  const SdtwResult r = engine.Compare(x, y);
  EXPECT_LT(r.cells_filled, 256u * 256u);
  EXPECT_GT(r.cells_filled, 0u);
}

TEST(SdtwTest, WarpedCopyAlignsWell) {
  // y is a warped copy of x: the adaptive band should keep the distance
  // close to optimal.
  const ts::TimeSeries x = Smooth(200, 11, 12);
  data::DeformationOptions deform;
  deform.noise_sigma = 0.0;
  deform.amplitude_jitter = 0.0;
  ts::Rng rng(99);
  const ts::TimeSeries y = data::Deform(x, deform, rng);
  const double optimal = dtw::DtwDistance(x, y);
  SdtwOptions opt;
  opt.constraint.type = ConstraintType::kAdaptiveCoreAdaptiveWidth;
  Sdtw engine(opt);
  const double approx = engine.Compare(x, y).distance;
  EXPECT_GE(approx, optimal - 1e-9);
  // Error within 50% on a structurally-identical pair.
  if (optimal > 1e-6) {
    EXPECT_LT((approx - optimal) / optimal, 0.5);
  }
}

TEST(SdtwTest, ExtractFeaturesDeterministic) {
  Sdtw engine;
  const ts::TimeSeries x = Smooth(150, 13);
  const auto f1 = engine.ExtractFeatures(x);
  const auto f2 = engine.ExtractFeatures(x);
  ASSERT_EQ(f1.size(), f2.size());
  for (std::size_t i = 0; i < f1.size(); ++i) {
    EXPECT_DOUBLE_EQ(f1[i].position, f2[i].position);
    EXPECT_DOUBLE_EQ(f1[i].sigma, f2[i].sigma);
  }
}

TEST(SdtwTest, PreExtractedFeaturesMatchOnTheFly) {
  Sdtw engine;
  const ts::TimeSeries x = Smooth(150, 14);
  const ts::TimeSeries y = Smooth(150, 15);
  const SdtwResult a = engine.Compare(x, y);
  const SdtwResult b =
      engine.Compare(x, engine.ExtractFeatures(x), y,
                     engine.ExtractFeatures(y));
  EXPECT_DOUBLE_EQ(a.distance, b.distance);
}

TEST(SdtwTest, TimingsPopulated) {
  Sdtw engine;
  const ts::TimeSeries x = Smooth(150, 16);
  const ts::TimeSeries y = Smooth(150, 17);
  const SdtwResult r = engine.Compare(x, y);
  EXPECT_GE(r.timing.matching_seconds, 0.0);
  EXPECT_GE(r.timing.dp_seconds, 0.0);
  EXPECT_GT(r.timing.total(), 0.0);
}

TEST(SdtwTest, BuildBandMatchesCompareBand) {
  Sdtw engine;
  const ts::TimeSeries x = Smooth(120, 20);
  const ts::TimeSeries y = Smooth(120, 21);
  const auto fx = engine.ExtractFeatures(x);
  const auto fy = engine.ExtractFeatures(y);
  const dtw::Band band = engine.BuildBand(x, fx, y, fy);
  const SdtwResult r = engine.Compare(x, fx, y, fy);
  EXPECT_EQ(band, r.band);
}

TEST(SdtwTest, SymmetricModeDistanceIsSymmetric) {
  SdtwOptions opt;
  opt.constraint.type = ConstraintType::kAdaptiveCoreAdaptiveWidth;
  opt.constraint.symmetric = true;
  Sdtw engine(opt);
  const ts::TimeSeries x = Smooth(130, 22);
  const ts::TimeSeries y = Smooth(130, 23);
  const double dxy = engine.Compare(x, y).distance;
  const double dyx = engine.Compare(y, x).distance;
  // The combined band makes the measure symmetric (paper §3.3.3).
  EXPECT_NEAR(dxy, dyx, 1e-9);
}

TEST(SdtwTest, DifferentLengthSeries) {
  Sdtw engine;
  const ts::TimeSeries x = Smooth(100, 24);
  const ts::TimeSeries y = Smooth(175, 25);
  const SdtwResult r = engine.Compare(x, y);
  EXPECT_TRUE(std::isfinite(r.distance));
  EXPECT_EQ(r.band.n(), 100u);
  EXPECT_EQ(r.band.m(), 175u);
}

TEST(PaperRosterTest, ContainsAllPaperAlgorithms) {
  const auto roster = PaperAlgorithmRoster();
  ASSERT_EQ(roster.size(), 10u);
  EXPECT_STREQ(roster[0].label, "dtw");
  EXPECT_TRUE(roster[0].full_dtw);
  EXPECT_STREQ(roster[1].label, "fc,fw 6%");
  EXPECT_STREQ(roster[4].label, "fc,aw");
  EXPECT_STREQ(roster[8].label, "ac,aw");
  EXPECT_STREQ(roster[9].label, "ac2,aw");
  EXPECT_EQ(roster[9].options.constraint.width_average_radius, 1u);
}

TEST(PaperRosterTest, DescriptorLengthPropagates) {
  const auto roster = PaperAlgorithmRoster(16);
  for (const NamedConfig& c : roster) {
    if (!c.full_dtw) {
      EXPECT_EQ(c.options.extractor.descriptor_length, 16u);
    }
  }
}

TEST(PaperRosterTest, FcAwHasTwentyPercentLowerBound) {
  const auto roster = PaperAlgorithmRoster();
  const NamedConfig& fcaw = roster[4];
  EXPECT_DOUBLE_EQ(fcaw.options.constraint.adaptive_width_min_fraction, 0.20);
}

}  // namespace
}  // namespace core
}  // namespace sdtw
