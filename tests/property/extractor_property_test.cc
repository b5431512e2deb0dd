// Property tests of salient-feature extraction against the frozen
// reference extractor (tests/sift/reference_extractor.h): every field of
// every keypoint and every descriptor element must be bitwise equal, over
// the generator families at lengths 1–1024, several seeds and option
// sets, and at the pinned cases that steer the keypoint cap onto its
// fallback (a tie at the cap boundary, a (position, σ) collision), as well
// as constant, too-short and non-finite series. signal::Convolve is
// checked against the frozen per-tap convolution too.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/extra_families.h"
#include "data/generators.h"
#include "sift/extractor.h"
#include "sift/reference_extractor.h"
#include "signal/gaussian.h"
#include "ts/random.h"

namespace sdtw {
namespace {

using sift::ExtractorOptions;
using sift::Keypoint;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Bitwise comparison of two keypoint lists; reports the first difference.
void ExpectBitwiseEqual(const std::vector<Keypoint>& got,
                        const std::vector<Keypoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    SCOPED_TRACE("keypoint " + std::to_string(k));
    const Keypoint& a = got[k];
    const Keypoint& b = want[k];
    ASSERT_TRUE(SameBits(a.position, b.position))
        << a.position << " vs " << b.position;
    ASSERT_TRUE(SameBits(a.sigma, b.sigma)) << a.sigma << " vs " << b.sigma;
    ASSERT_EQ(a.octave, b.octave);
    ASSERT_EQ(a.level, b.level);
    ASSERT_TRUE(SameBits(a.response, b.response))
        << a.response << " vs " << b.response;
    ASSERT_TRUE(SameBits(a.amplitude, b.amplitude))
        << a.amplitude << " vs " << b.amplitude;
    ASSERT_EQ(a.descriptor.size(), b.descriptor.size());
    ASSERT_EQ(std::memcmp(a.descriptor.data(), b.descriptor.data(),
                          a.descriptor.size() * sizeof(double)),
              0);
  }
}

void ExpectMatchesReference(const ts::TimeSeries& series,
                            const ExtractorOptions& options) {
  ExpectBitwiseEqual(sift::SalientExtractor(options).Extract(series),
                     reference::Extract(series, options));
}

// The default options plus nine variations, one knob each (two for the
// contrast and pyramid sets).
std::vector<std::pair<std::string, ExtractorOptions>> OptionSets() {
  std::vector<std::pair<std::string, ExtractorOptions>> sets;
  sets.emplace_back("default", ExtractorOptions{});
  ExtractorOptions o;
  o.descriptor_length = 8;
  sets.emplace_back("descriptor8", o);
  o = {};
  o.descriptor_length = 128;
  sets.emplace_back("descriptor128", o);
  o = {};
  o.cell_width = 3.0;
  sets.emplace_back("cell_width3", o);
  o = {};
  o.epsilon = 0.0;
  sets.emplace_back("epsilon0", o);
  o = {};
  o.max_keypoints_fraction = 0.0;
  sets.emplace_back("no_cap", o);
  o = {};
  o.max_keypoints = 5;
  sets.emplace_back("max_keypoints5", o);
  o = {};
  o.min_contrast = 0.0;
  o.detect_minima = false;
  sets.emplace_back("no_contrast_maxima_only", o);
  o = {};
  o.scale_space.levels_per_octave = 3;
  o.scale_space.num_octaves = 4;
  sets.emplace_back("levels3_octaves4", o);
  o = {};
  o.normalize_descriptor = false;
  sets.emplace_back("unnormalised", o);
  return sets;
}

using Family = std::function<ts::Dataset(data::GeneratorOptions)>;

struct FamilyCase {
  const char* name;
  Family make;
};

class ExtractorPropertyTest : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(ExtractorPropertyTest, BitwiseEqualToReference) {
  const auto sets = OptionSets();
  for (const std::size_t length :
       {1u, 2u, 7u, 8u, 9u, 16u, 33u, 48u, 128u, 150u, 270u, 275u, 512u,
        1024u}) {
    for (const std::uint64_t seed : {3u, 29u}) {
      data::GeneratorOptions gen;
      gen.length = length;
      gen.num_series = 2;
      gen.seed = seed;
      const ts::Dataset ds = GetParam().make(gen);
      ASSERT_EQ(ds.size(), 2u);
      for (std::size_t s = 0; s < ds.size(); ++s) {
        ASSERT_EQ(ds[s].size(), length);
        for (const auto& [label, options] : sets) {
          SCOPED_TRACE(std::string(GetParam().name) + " length " +
                       std::to_string(length) + " seed " +
                       std::to_string(seed) + " series " +
                       std::to_string(s) + " options " + label);
          ExpectMatchesReference(ds[s], options);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, ExtractorPropertyTest,
    ::testing::Values(FamilyCase{"trace", data::MakeTraceLike},
                      FamilyCase{"words", data::MakeWordsLike},
                      FamilyCase{"gun", data::MakeGunLike},
                      FamilyCase{"cbf", data::MakeCbf},
                      FamilyCase{"two_patterns", data::MakeTwoPatterns}),
    [](const ::testing::TestParamInfo<FamilyCase>& info) {
      return std::string(info.param.name);
    });

ts::TimeSeries UnitSpike(std::size_t length) {
  std::vector<double> v(length, 0.0);
  v[length / 2] = 1.0;
  return ts::TimeSeries(std::move(v));
}

// True when the cap-th and (cap+1)-th strongest candidates tie in
// |response|: the cap's boundary is not strict.
bool BoundaryTie(const ts::TimeSeries& series, const ExtractorOptions& options,
                 std::size_t cap) {
  std::vector<double> strength;
  for (const Keypoint& kp : reference::Detect(series, options)) {
    strength.push_back(std::abs(kp.response));
  }
  if (strength.size() <= cap) return false;
  std::sort(strength.begin(), strength.end(), std::greater<>());
  return strength[cap - 1] == strength[cap];
}

// True when two kept keypoints share (position, σ).
bool Collision(const std::vector<Keypoint>& keypoints) {
  for (std::size_t k = 1; k < keypoints.size(); ++k) {
    if (keypoints[k].position == keypoints[k - 1].position &&
        keypoints[k].sigma == keypoints[k - 1].sigma) {
      return true;
    }
  }
  return false;
}

TEST(ExtractorPinnedTest, SpikeWithTieAtTheCapBoundary) {
  ExtractorOptions options;
  options.max_keypoints = 8;
  std::size_t ties = 0;
  for (std::size_t length = 32; length <= 128; ++length) {
    SCOPED_TRACE("length " + std::to_string(length));
    const ts::TimeSeries spike = UnitSpike(length);
    if (BoundaryTie(spike, options, 8)) ++ties;
    ExpectMatchesReference(spike, options);
  }
  // The fallback of the cap is exercised, not just allowed.
  EXPECT_GT(ties, 0u);
}

TEST(ExtractorPinnedTest, SpikeWithPositionSigmaCollision) {
  ExtractorOptions options;
  options.max_keypoints = 8;
  const ts::TimeSeries spike = UnitSpike(150);
  ASSERT_TRUE(Collision(reference::Extract(spike, options)));
  ExpectMatchesReference(spike, options);
}

TEST(ExtractorPinnedTest, GunLike512Collision) {
  std::size_t collisions = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    data::GeneratorOptions gen;
    gen.length = 512;
    gen.seed = seed;
    const ts::Dataset ds = data::MakeGunLike(gen);
    for (std::size_t s = 0; s < ds.size(); ++s) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " series " +
                   std::to_string(s));
      if (Collision(reference::Extract(ds[s], {}))) ++collisions;
      ExpectMatchesReference(ds[s], {});
    }
  }
  EXPECT_GT(collisions, 0u);
}

TEST(ExtractorPinnedTest, ConstantSeries) {
  for (const std::size_t length : {1u, 5u, 64u, 300u}) {
    for (const auto& [label, options] : OptionSets()) {
      SCOPED_TRACE(label + " length " + std::to_string(length));
      ExpectMatchesReference(ts::TimeSeries::Constant(length, 2.5), options);
    }
  }
}

TEST(ExtractorPinnedTest, ShorterThanMinLength) {
  ts::Rng rng(5);
  for (std::size_t length = 0; length < 12; ++length) {
    std::vector<double> v(length);
    for (double& x : v) x = rng.Gaussian(0.0, 1.0);
    const ts::TimeSeries series(std::move(v));
    for (const std::size_t min_length : {0u, 1u, 8u, 16u}) {
      ExtractorOptions options;
      options.scale_space.min_length = min_length;
      options.max_keypoints_fraction = 0.0;
      SCOPED_TRACE("length " + std::to_string(length) + " min_length " +
                   std::to_string(min_length));
      ExpectMatchesReference(series, options);
    }
  }
}

TEST(ExtractorPinnedTest, NonFiniteSamples) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  data::GeneratorOptions gen;
  gen.length = 270;
  gen.num_series = 2;
  gen.seed = 13;
  const ts::Dataset ds = data::MakeWordsLike(gen);
  const std::vector<std::vector<std::pair<std::size_t, double>>> patches = {
      {{40, nan}},
      {{0, nan}, {269, nan}},
      {{100, inf}},
      {{100, -inf}},
      {{60, inf}, {61, -inf}},
      {{30, nan}, {150, inf}, {200, -inf}},
      {{135, 1e300}, {136, -1e300}},
  };
  std::size_t nan_positions = 0;
  std::size_t infinite_responses = 0;
  for (std::size_t p = 0; p < patches.size(); ++p) {
    for (std::size_t s = 0; s < ds.size(); ++s) {
      ts::TimeSeries series = ds[s];
      for (const auto& [at, value] : patches[p]) series[at] = value;
      for (const auto& [label, options] : OptionSets()) {
        SCOPED_TRACE("patch " + std::to_string(p) + " series " +
                     std::to_string(s) + " options " + label);
        for (const Keypoint& kp : reference::Extract(series, options)) {
          if (std::isnan(kp.position)) ++nan_positions;
          if (std::isinf(kp.response)) ++infinite_responses;
        }
        ExpectMatchesReference(series, options);
      }
    }
  }
  // The patches do reach a kept keypoint at a NaN position (next to NaN
  // samples: the cap must order it as the three steps do) and an infinite
  // response.
  EXPECT_GT(nan_positions, 0u);
  EXPECT_GT(infinite_responses, 0u);
}

TEST(ConvolvePropertyTest, BitwiseEqualToReference) {
  ts::Rng rng(9);
  for (const double sigma : {0.0, 0.4, 1.0, 1.52, 2.26, 4.53, 10.0}) {
    const signal::GaussianKernel kernel = signal::MakeGaussianKernel(sigma);
    // n = 1 and 2, kernels wider than the signal, both sides of the
    // 8-output blocks.
    for (const std::size_t n : {1u, 2u, 3u, 5u, 7u, 8u, 9u, 16u, 17u, 31u,
                                64u, 130u}) {
      std::vector<double> x(n);
      for (double& v : x) v = rng.Gaussian(0.0, 1.0);
      const std::vector<double> got = signal::Convolve(x, kernel);
      const std::vector<double> want = reference::Convolve(x, kernel);
      SCOPED_TRACE("sigma " + std::to_string(sigma) + " n " +
                   std::to_string(n));
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(double)), 0);
    }
  }
  EXPECT_TRUE(signal::Convolve({}, signal::MakeGaussianKernel(1.0)).empty());
}

}  // namespace
}  // namespace sdtw
