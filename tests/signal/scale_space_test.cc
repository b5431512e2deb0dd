#include "signal/scale_space.h"

#include <cmath>
#include <gtest/gtest.h>

#include "data/generators.h"
#include "ts/random.h"

namespace sdtw {
namespace signal {
namespace {

ts::TimeSeries MakeBumpySeries(std::size_t n) {
  ts::Rng rng(11);
  return data::patterns::RandomSmooth(n, 8, rng);
}

TEST(AutoOctavesTest, PaperFormulaWithThreeTierFloor) {
  // o = floor(log2(N)) - 6, floored at 3 so that the fine/medium/rough
  // tiers of Table 2 all exist (see AutoOctaves doc comment).
  EXPECT_EQ(AutoOctaves(150), 3u);   // formula gives 1 -> floored to 3
  EXPECT_EQ(AutoOctaves(275), 3u);   // formula gives 2 -> floored to 3
  EXPECT_EQ(AutoOctaves(1024), 4u);  // formula takes over past 2^9
  EXPECT_EQ(AutoOctaves(4096), 6u);
  EXPECT_EQ(AutoOctaves(1), 1u);     // degenerate input
}

TEST(ScaleSpaceTest, KappaSatisfiesDoublingIdentity) {
  ScaleSpaceOptions opt;
  opt.levels_per_octave = 2;
  ScaleSpace space(MakeBumpySeries(256), opt);
  // κ^s == 2 (paper §3.1.2).
  EXPECT_NEAR(std::pow(space.kappa(), 2.0), 2.0, 1e-12);
}

TEST(ScaleSpaceTest, OctaveCountMatchesOptions) {
  ScaleSpaceOptions opt;
  opt.num_octaves = 3;
  ScaleSpace space(MakeBumpySeries(512), opt);
  EXPECT_EQ(space.num_octaves(), 3u);
}

TEST(ScaleSpaceTest, AutoOctavesUsed) {
  ScaleSpaceOptions opt;  // num_octaves = 0 -> auto
  ScaleSpace space(MakeBumpySeries(275), opt);
  EXPECT_EQ(space.num_octaves(), AutoOctaves(275));
}

TEST(ScaleSpaceTest, LevelsPerOctave) {
  ScaleSpaceOptions opt;
  opt.num_octaves = 2;
  opt.levels_per_octave = 3;
  ScaleSpace space(MakeBumpySeries(256), opt);
  EXPECT_EQ(space.num_levels(), 6u);  // s + 3
  EXPECT_EQ(space.num_dogs(), 5u);    // s + 2
}

TEST(ScaleSpaceTest, OctaveLengthsHalve) {
  ScaleSpaceOptions opt;
  opt.num_octaves = 3;
  ScaleSpace space(MakeBumpySeries(256), opt);
  ASSERT_GE(space.num_octaves(), 2u);
  const std::size_t l0 = space.length(0);
  const std::size_t l1 = space.length(1);
  EXPECT_NEAR(static_cast<double>(l0) / static_cast<double>(l1), 2.0, 0.1);
}

TEST(ScaleSpaceTest, DogIsDifferenceOfAdjacentGaussians) {
  ScaleSpaceOptions opt;
  opt.num_octaves = 1;
  ScaleSpace space(MakeBumpySeries(128), opt);
  for (std::size_t l = 0; l < space.num_dogs(); ++l) {
    for (std::size_t i = 0; i < space.dog(0, l).size(); i += 13) {
      EXPECT_NEAR(space.dog(0, l)[i],
                  space.gaussian(0, l + 1)[i] - space.gaussian(0, l)[i],
                  1e-12);
    }
  }
}

TEST(ScaleSpaceTest, SigmasIncreaseWithinOctave) {
  ScaleSpaceOptions opt;
  opt.num_octaves = 2;
  ScaleSpace space(MakeBumpySeries(256), opt);
  for (std::size_t o = 0; o < space.num_octaves(); ++o) {
    for (std::size_t l = 1; l < space.num_levels(); ++l) {
      EXPECT_GT(space.AbsoluteSigma(o, l), space.AbsoluteSigma(o, l - 1));
    }
  }
}

TEST(ScaleSpaceTest, AbsoluteSigmaDoublesAcrossOctaves) {
  ScaleSpaceOptions opt;
  opt.num_octaves = 2;
  ScaleSpace space(MakeBumpySeries(256), opt);
  EXPECT_NEAR(space.AbsoluteSigma(1, 0) / space.AbsoluteSigma(0, 0), 2.0,
              1e-12);
  EXPECT_NEAR(space.AbsoluteSigma(1, 1) / space.AbsoluteSigma(0, 1), 2.0,
              1e-12);
}

TEST(ScaleSpaceTest, ToOriginalPositionScalesByOctave) {
  ScaleSpaceOptions opt;
  opt.num_octaves = 2;
  ScaleSpace space(MakeBumpySeries(256), opt);
  EXPECT_DOUBLE_EQ(space.ToOriginalPosition(0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(space.ToOriginalPosition(1, 10.0), 20.0);
}

TEST(ScaleSpaceTest, ShortSeriesGetsOneOctave) {
  ScaleSpaceOptions opt;
  opt.num_octaves = 5;
  opt.min_length = 8;
  ScaleSpace space(ts::TimeSeries({1.0, 2.0, 3.0, 2.0, 1.0, 2.0, 3.0, 2.0,
                                   1.0, 2.0}),
                   opt);
  // 10 samples: octave 0 builds, downsampled 5 < min_length stops there.
  EXPECT_EQ(space.num_octaves(), 1u);
}

TEST(ScaleSpaceTest, DegenerateTinyInputStillProvidesOctave) {
  ScaleSpaceOptions opt;
  ScaleSpace space(ts::TimeSeries({1.0, 2.0}), opt);
  EXPECT_GE(space.num_octaves(), 1u);
}

TEST(ScaleSpaceTest, ConstantSeriesHasZeroDog) {
  ScaleSpaceOptions opt;
  opt.num_octaves = 1;
  ScaleSpace space(ts::TimeSeries::Constant(64, 3.0), opt);
  for (std::size_t l = 0; l < space.num_dogs(); ++l) {
    for (double v : space.dog(0, l)) EXPECT_NEAR(v, 0.0, 1e-9);
  }
}

}  // namespace
}  // namespace signal
}  // namespace sdtw
