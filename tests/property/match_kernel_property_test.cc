// Every matching-kernel variant the host runs against the frozen
// reference matcher (tests/core/reference_band.h): bitwise-equal pairs —
// indices and descriptor_distance — on seeded keypoint sets across
// keypoint counts around the vector widths, descriptor lengths, ties,
// thresholds exactly at their bounds, mixed descriptor lengths and
// non-finite inputs. Also pins the sift::FeatureBlock layout the kernels
// read.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "align/match_kernel.h"
#include "align/matching.h"
#include "core/reference_band.h"
#include "sift/feature_block.h"
#include "ts/random.h"

namespace sdtw {
namespace align {
namespace {

using Keypoints = std::vector<sift::Keypoint>;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

const std::size_t kCounts[] = {0, 1, 7, 8, 9, 13, 16, 17, 27, 33, 64};
const std::size_t kLengths[] = {2, 6, 8, 10, 64, 66};

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult SameMatches(const std::vector<MatchPair>& got,
                                       const std::vector<MatchPair>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " pairs, reference " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].index_x != want[i].index_x ||
        got[i].index_y != want[i].index_y ||
        !SameBits(got[i].descriptor_distance, want[i].descriptor_distance)) {
      return ::testing::AssertionFailure()
             << "pair " << i << ": (" << got[i].index_x << ", "
             << got[i].index_y << ", " << got[i].descriptor_distance
             << ") vs reference (" << want[i].index_x << ", "
             << want[i].index_y << ", " << want[i].descriptor_distance << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// `count` keypoints over a series of `span` samples whose amplitudes and
// scales mostly pass the default thresholds, so the kernels see many
// candidates per row.
Keypoints RandomSet(ts::Rng& rng, std::size_t count, std::size_t length,
                    double span) {
  Keypoints set(count);
  for (sift::Keypoint& kp : set) {
    kp.position = rng.Uniform(0.0, span);
    kp.sigma = rng.Uniform(0.5, 4.0);
    kp.amplitude = rng.Uniform(-1.0, 1.0);
    kp.descriptor.resize(length);
    for (double& v : kp.descriptor) v = rng.Uniform(0.0, 0.3);
  }
  return set;
}

std::vector<MatchPair> RunKernel(const MatchKernelOps* ops,
                                 const Keypoints& x, const Keypoints& y,
                                 const MatchingOptions& options,
                                 std::size_t len_x, std::size_t len_y) {
  // Matching reads no scope data, so the blocks need no series.
  const ts::TimeSeries none;
  MatchScratch scratch;
  scratch.kernel = ops;
  std::vector<MatchPair> pairs;
  FindDominantPairs(sift::FeatureBlock(x, none), sift::FeatureBlock(y, none),
                    options, len_x, len_y, scratch, &pairs);
  return pairs;
}

// Checks every supported variant against the reference on (x, y) with
// `options`, with and without series lengths.
void ExpectAllVariantsMatch(const Keypoints& x, const Keypoints& y,
                            const MatchingOptions& options,
                            const std::string& label) {
  for (const MatchKernelOps* ops : SupportedMatchKernels()) {
    for (const auto& [len_x, len_y] :
         {std::pair<std::size_t, std::size_t>{128, 128}, {0, 0}}) {
      SCOPED_TRACE(label + " kernel " + ops->name + " lengths " +
                   std::to_string(len_x) + "x" + std::to_string(len_y));
      ASSERT_TRUE(SameMatches(
          RunKernel(ops, x, y, options, len_x, len_y),
          reference::FindDominantPairs(x, y, options, len_x, len_y)));
    }
  }
}

std::vector<std::pair<std::string, MatchingOptions>> OptionSets() {
  std::vector<std::pair<std::string, MatchingOptions>> out;
  out.emplace_back("default", MatchingOptions{});
  MatchingOptions mutual;
  mutual.require_mutual = true;
  out.emplace_back("mutual", mutual);
  MatchingOptions no_position;
  no_position.tau_position = 0.0;
  out.emplace_back("tau_position 0", no_position);
  MatchingOptions negative_position;
  negative_position.tau_position = -0.5;
  negative_position.require_mutual = true;
  out.emplace_back("tau_position <0 mutual", negative_position);
  return out;
}

TEST(MatchKernelPropertyTest, EveryVariantIsSupported) {
  // Portable always runs, each table is listed once, and the active
  // table is the one the active row kernel's variant selects.
  const std::vector<const MatchKernelOps*> supported =
      SupportedMatchKernels();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.front()->variant, dtw::KernelVariant::kPortable);
  for (std::size_t a = 0; a < supported.size(); ++a) {
    for (std::size_t b = a + 1; b < supported.size(); ++b) {
      EXPECT_NE(supported[a], supported[b]);
    }
  }
  EXPECT_EQ(&ActiveMatchKernelOps(),
            FindMatchKernelOps(dtw::ActiveRowKernelOps().variant));
  EXPECT_NE(std::find(supported.begin(), supported.end(),
                      &ActiveMatchKernelOps()),
            supported.end());
  // There is no AVX2 matching variant; AVX2 runs the portable table.
  EXPECT_EQ(FindMatchKernelOps(dtw::KernelVariant::kAvx2),
            FindMatchKernelOps(dtw::KernelVariant::kPortable));
}

TEST(MatchKernelPropertyTest, RandomSetsMatchReference) {
  ts::Rng rng(17);
  for (const std::size_t length : kLengths) {
    for (const std::size_t fx : kCounts) {
      for (const std::size_t fy : kCounts) {
        const Keypoints x = RandomSet(rng, fx, length, 128.0);
        const Keypoints y = RandomSet(rng, fy, length, 160.0);
        for (const auto& [name, options] : OptionSets()) {
          ExpectAllVariantsMatch(
              x, y, options,
              name + " F " + std::to_string(fx) + "x" + std::to_string(fy) +
                  " D " + std::to_string(length));
        }
      }
    }
  }
}

TEST(MatchKernelPropertyTest, DuplicateDescriptorsTie) {
  // Every keypoint twice on both sides, and Y a copy of X: best and
  // second-best tie exactly, at zero distance and above it.
  ts::Rng rng(23);
  for (const std::size_t count : {1, 4, 9, 16}) {
    Keypoints x = RandomSet(rng, count, 8, 128.0);
    const Keypoints once = x;
    x.insert(x.end(), once.begin(), once.end());
    Keypoints y = RandomSet(rng, count, 8, 128.0);
    y.insert(y.end(), once.begin(), once.end());
    for (const auto& [name, options] : OptionSets()) {
      ExpectAllVariantsMatch(x, y, options,
                             name + " twins " + std::to_string(count));
      ExpectAllVariantsMatch(x, x, options,
                             name + " self " + std::to_string(count));
    }
  }
}

TEST(MatchKernelPropertyTest, ThresholdsAtTheirBounds) {
  // One X keypoint against Y keypoints placed exactly at, and one ulp on
  // either side of, each bound.
  sift::Keypoint base;
  base.position = 40.0;
  base.sigma = 1.0;
  base.amplitude = 0.25;
  base.descriptor = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
  MatchingOptions options;
  options.tau_amplitude = 0.75;
  options.tau_position = 0.25;  // max shift 0.25 × 128 = 32 samples
  options.tau_scale = 2.5;
  Keypoints y;
  const auto near = [](double v) {
    return std::vector<double>{std::nextafter(v, -kInf), v,
                               std::nextafter(v, kInf)};
  };
  for (const double amplitude : near(1.0)) {  // |0.25 − 1.0| = 0.75
    sift::Keypoint kp = base;
    kp.amplitude = amplitude;
    y.push_back(kp);
  }
  for (const double position : near(72.0)) {  // |40 − 72| = 32
    sift::Keypoint kp = base;
    kp.position = position;
    y.push_back(kp);
  }
  for (const double sigma : near(2.5)) {  // 2.5 / 1 = 2.5
    sift::Keypoint kp = base;
    kp.sigma = sigma;
    y.push_back(kp);
  }
  for (const double sigma : near(0.4)) {  // 1 / 0.4 rounds to 2.5
    sift::Keypoint kp = base;
    kp.sigma = sigma;
    y.push_back(kp);
  }
  for (std::size_t k = 0; k < y.size(); ++k) {
    // Distinct descriptors, so every passing candidate can win alone.
    y[k].descriptor[k % y[k].descriptor.size()] += 0.01 * (k + 1);
  }
  for (std::size_t k = 0; k < y.size(); ++k) {
    SCOPED_TRACE("candidate " + std::to_string(k));
    ExpectAllVariantsMatch({base}, {y[k]}, options, "bound");
  }
  ExpectAllVariantsMatch({base}, y, options, "bounds together");

  // τ_s equal to a pair's exact ratio, and one ulp either side: the
  // vector kernels' division-free scale test must decide like the
  // division.
  ts::Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    const Keypoints x = RandomSet(rng, 9, 6, 64.0);
    const Keypoints ys = RandomSet(rng, 17, 6, 64.0);
    const double s1 = std::max(x[trial % 9].sigma, 1e-9);
    const double s2 = std::max(ys[trial % 17].sigma, 1e-9);
    const double ratio = s1 > s2 ? s1 / s2 : s2 / s1;
    for (const double tau : near(ratio)) {
      MatchingOptions at = options;
      at.tau_scale = tau;
      ExpectAllVariantsMatch(x, ys, at, "ratio bound " + std::to_string(trial));
    }
  }
}

TEST(MatchKernelPropertyTest, ExtremeThresholds) {
  ts::Rng rng(31);
  const Keypoints x = RandomSet(rng, 13, 10, 128.0);
  const Keypoints y = RandomSet(rng, 17, 10, 128.0);
  for (const double tau : {0.0, -1.0, kNaN, kInf, 1e-300, 5e-324,
                           std::numeric_limits<double>::max(), 1.0}) {
    MatchingOptions scale;
    scale.tau_scale = tau;
    ExpectAllVariantsMatch(x, y, scale, "tau_scale " + std::to_string(tau));
    MatchingOptions amplitude;
    amplitude.tau_amplitude = tau;
    ExpectAllVariantsMatch(x, y, amplitude,
                           "tau_amplitude " + std::to_string(tau));
    MatchingOptions position;
    position.tau_position = tau;
    ExpectAllVariantsMatch(x, y, position,
                           "tau_position " + std::to_string(tau));
    MatchingOptions distinct;
    distinct.tau_distinct = tau;
    distinct.require_mutual = true;
    ExpectAllVariantsMatch(x, y, distinct,
                           "tau_distinct " + std::to_string(tau));
  }
}

TEST(MatchKernelPropertyTest, MixedDescriptorLengths) {
  // Hand-built or file-loaded sets may mix lengths within one set; a
  // pair of different lengths has an infinite distance.
  ts::Rng rng(37);
  for (const std::size_t length : {2, 8, 64}) {
    for (const std::size_t fx : {1, 9, 17}) {
      Keypoints x = RandomSet(rng, fx, length, 128.0);
      Keypoints y = RandomSet(rng, 13, length, 128.0);
      for (std::size_t k = 0; k < x.size(); k += 2) {
        x[k].descriptor.resize(length + 2, 0.05);
      }
      for (std::size_t k = 0; k < y.size(); k += 3) {
        y[k].descriptor.resize(k % 2 == 0 ? length - 1 : length + 2, 0.05);
      }
      y.back().descriptor.clear();
      for (const auto& [name, options] : OptionSets()) {
        ExpectAllVariantsMatch(x, y, options,
                               name + " mixed D " + std::to_string(length));
      }
      // Uniform within each set, different across them.
      const Keypoints longer = RandomSet(rng, 13, length + 2, 128.0);
      ExpectAllVariantsMatch(RandomSet(rng, fx, length, 128.0), longer,
                             MatchingOptions{}, "D mismatch");
    }
  }
}

TEST(MatchKernelPropertyTest, NonFiniteInputs) {
  // NaN passes the amplitude and position tests and fails the scale
  // test; ±inf descriptor elements give inf or NaN sums, which are never
  // a best match.
  ts::Rng rng(41);
  const double specials[] = {kNaN, kInf, -kInf};
  for (int trial = 0; trial < 60; ++trial) {
    Keypoints x = RandomSet(rng, 9 + trial % 9, 8, 128.0);
    Keypoints y = RandomSet(rng, 13 + trial % 5, 8, 128.0);
    for (Keypoints* set : {&x, &y}) {
      for (std::size_t k = 0; k < set->size(); ++k) {
        const double v = specials[(trial + k) % 3];
        switch ((trial + 3 * k) % 7) {
          case 0:
            (*set)[k].amplitude = v;
            break;
          case 1:
            (*set)[k].position = v;
            break;
          case 2:
            (*set)[k].sigma = v;
            break;
          case 3:
            (*set)[k].descriptor[k % 8] = v;
            break;
          default:
            break;  // most keypoints stay finite
        }
      }
    }
    for (const auto& [name, options] : OptionSets()) {
      ExpectAllVariantsMatch(x, y, options,
                             name + " non-finite " + std::to_string(trial));
    }
  }
}

// --- the block -------------------------------------------------------------

ts::TimeSeries Wave(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = std::sin(0.1 * i) - 0.3;
  return ts::TimeSeries(std::move(v));
}

TEST(FeatureBlockTest, FieldsRoundTripBitwise) {
  ts::Rng rng(43);
  for (const std::size_t count : kCounts) {
    for (const std::size_t length : {0, 2, 64, 66}) {
      const Keypoints kps = RandomSet(rng, count, length, 100.0);
      const sift::FeatureBlock block(kps, Wave(100));
      ASSERT_EQ(block.size(), count);
      ASSERT_EQ(block.empty(), count == 0);
      ASSERT_TRUE(block.uniform());
      ASSERT_EQ(block.descriptor_length(), count == 0 ? 0 : length);
      ASSERT_EQ(block.series_length(), 100u);
      ASSERT_EQ(block.stride() % sift::FeatureBlock::kLanes, 0u);
      ASSERT_GE(block.stride(), count);
      ASSERT_LT(block.stride(), count + sift::FeatureBlock::kLanes);
      if (count > 0) {
        ASSERT_EQ(std::bit_cast<std::uintptr_t>(block.descriptors()) % 64, 0u);
      }
      for (std::size_t k = 0; k < count; ++k) {
        ASSERT_TRUE(SameBits(block.position()[k], kps[k].position));
        ASSERT_TRUE(SameBits(block.sigma()[k], kps[k].sigma));
        ASSERT_TRUE(SameBits(block.amplitude()[k], kps[k].amplitude));
        ASSERT_EQ(block.descriptor_length(k), length);
        for (std::size_t t = 0; t < length; ++t) {
          ASSERT_TRUE(SameBits(block.descriptor(k, t), kps[k].descriptor[t]));
          ASSERT_TRUE(SameBits(block.descriptors()[t * block.stride() + k],
                               kps[k].descriptor[t]));
        }
      }
      // Padding lanes read as zero.
      for (std::size_t k = count; k < block.stride(); ++k) {
        for (std::size_t t = 0; t < length; ++t) {
          ASSERT_EQ(block.descriptor(k, t), 0.0);
        }
      }
    }
  }
}

TEST(FeatureBlockTest, ScopeDataEqualsClampScopeAndScopeAmplitude) {
  ts::Rng rng(47);
  for (const std::size_t n : {0, 1, 37, 128}) {
    const ts::TimeSeries series = Wave(n);
    Keypoints kps = RandomSet(rng, 27, 4, static_cast<double>(n) + 20.0);
    kps[0].position = -5.0;    // scope before the series
    kps[1].sigma = 100.0;      // scope wider than the series
    kps[2].position = kNaN;    // no defined scope
    kps[3].sigma = kInf;
    const sift::FeatureBlock block(kps, series);
    for (std::size_t k = 0; k < kps.size(); ++k) {
      SCOPED_TRACE("n " + std::to_string(n) + " keypoint " +
                   std::to_string(k));
      double start = 0.0;
      double end = 0.0;
      sift::ClampScope(kps[k].position, kps[k].sigma, n, &start, &end);
      ASSERT_TRUE(SameBits(block.scope_start()[k], start));
      ASSERT_TRUE(SameBits(block.scope_end()[k], end));
      ASSERT_TRUE(SameBits(block.scope_amplitude()[k],
                           sift::ScopeAmplitude(series, start, end)));
      if (std::isfinite(kps[k].position) && std::isfinite(kps[k].sigma)) {
        // Keypoint's own scope, clamped.
        const double maxi = n > 0 ? static_cast<double>(n - 1) : 0.0;
        ASSERT_TRUE(SameBits(
            start, std::clamp(kps[k].scope_start(), 0.0, maxi)));
        ASSERT_TRUE(SameBits(end, std::clamp(kps[k].scope_end(), 0.0, maxi)));
      }
    }
  }
  // The scope amplitude is the mean |value| over the clamped samples.
  const ts::TimeSeries s({1.0, -2.0, 3.0, -4.0});
  EXPECT_EQ(sift::ScopeAmplitude(s, 1.0, 2.9), 2.5);
  EXPECT_EQ(sift::ScopeAmplitude(s, -3.0, 10.0), 2.5);
  EXPECT_EQ(sift::ScopeAmplitude(s, 2.0, 1.0), 0.0);
  EXPECT_EQ(sift::ScopeAmplitude(s, kNaN, 2.0), 0.0);
  EXPECT_EQ(sift::ScopeAmplitude(ts::TimeSeries(), 0.0, 2.0), 0.0);
}

TEST(FeatureBlockTest, MixedLengthsAreRecorded) {
  Keypoints kps(3);
  kps[0].descriptor = {1.0, 2.0};
  kps[1].descriptor = {3.0, 4.0, 5.0};
  const sift::FeatureBlock block(kps, ts::TimeSeries());
  EXPECT_FALSE(block.uniform());
  EXPECT_EQ(block.descriptor_length(), 3u);
  EXPECT_EQ(block.descriptor_length(0), 2u);
  EXPECT_EQ(block.descriptor_length(1), 3u);
  EXPECT_EQ(block.descriptor_length(2), 0u);
  EXPECT_EQ(block.descriptor(0, 2), 0.0);  // past its own length
  EXPECT_EQ(block.descriptor(1, 2), 5.0);
}

TEST(FeatureBlockTest, AssignReusesItsStorage) {
  ts::Rng rng(53);
  const ts::TimeSeries series = Wave(64);
  sift::FeatureBlock block(RandomSet(rng, 17, 64, 64.0), series);
  const double* storage = block.descriptors();
  const Keypoints smaller = RandomSet(rng, 9, 64, 64.0);
  block.Assign(smaller, series);
  EXPECT_EQ(block.size(), 9u);
  EXPECT_EQ(block.descriptor(8, 63), smaller[8].descriptor[63]);
  // Same allocation: the data start is unchanged (descriptors() moved
  // with the smaller stride).
  EXPECT_EQ(block.position(), storage - 6 * 24);
  const sift::FeatureBlock copy = block;
  EXPECT_EQ(copy.descriptor(8, 63), smaller[8].descriptor[63]);
  EXPECT_EQ(std::bit_cast<std::uintptr_t>(copy.descriptors()) % 64, 0u);
}

}  // namespace
}  // namespace align
}  // namespace sdtw
