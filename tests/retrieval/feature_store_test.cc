#include "retrieval/feature_store.h"

#include <gtest/gtest.h>

#include <sstream>

#include "data/generators.h"
#include "sift/extractor.h"

namespace sdtw {
namespace retrieval {
namespace {

FeatureSets ExtractSome() {
  data::GeneratorOptions opt;
  opt.num_series = 4;
  opt.length = 100;
  const ts::Dataset ds = data::MakeGunLike(opt);
  sift::SalientExtractor extractor;
  FeatureSets features;
  for (const auto& s : ds) features.push_back(extractor.Extract(s));
  return features;
}

TEST(FeatureStoreTest, RoundTripPreservesEverything) {
  const FeatureSets original = ExtractSome();
  std::ostringstream out;
  WriteFeatures(out, original);
  std::istringstream in(out.str());
  const auto back = ReadFeatures(in);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ((*back)[i].size(), original[i].size()) << i;
    for (std::size_t k = 0; k < original[i].size(); ++k) {
      const sift::Keypoint& a = original[i][k];
      const sift::Keypoint& b = (*back)[i][k];
      EXPECT_DOUBLE_EQ(a.position, b.position);
      EXPECT_DOUBLE_EQ(a.sigma, b.sigma);
      EXPECT_EQ(a.octave, b.octave);
      EXPECT_EQ(a.level, b.level);
      EXPECT_DOUBLE_EQ(a.response, b.response);
      EXPECT_DOUBLE_EQ(a.amplitude, b.amplitude);
      ASSERT_EQ(a.descriptor.size(), b.descriptor.size());
      for (std::size_t d = 0; d < a.descriptor.size(); ++d) {
        EXPECT_DOUBLE_EQ(a.descriptor[d], b.descriptor[d]);
      }
    }
  }
}

TEST(FeatureStoreTest, EmptySetsRoundTrip) {
  FeatureSets empty;
  std::ostringstream out;
  WriteFeatures(out, empty);
  std::istringstream in(out.str());
  const auto back = ReadFeatures(in);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
}

TEST(FeatureStoreTest, SeriesWithNoKeypointsRoundTrip) {
  FeatureSets sets(3);  // three series, all featureless
  std::ostringstream out;
  WriteFeatures(out, sets);
  std::istringstream in(out.str());
  const auto back = ReadFeatures(in);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 3u);
  for (const auto& f : *back) EXPECT_TRUE(f.empty());
}

TEST(FeatureStoreTest, RejectsBadHeader) {
  std::istringstream in("not-a-feature-file\nseries 0 0\nend\n");
  EXPECT_FALSE(ReadFeatures(in).has_value());
}

TEST(FeatureStoreTest, RejectsTruncatedSeries) {
  std::istringstream in(
      "sdtw-features v1\nseries 0 2\nkp 1 1 0 1 0.5 0.1 1 0\nend\n");
  EXPECT_FALSE(ReadFeatures(in).has_value());
}

TEST(FeatureStoreTest, RejectsMissingEnd) {
  std::istringstream in("sdtw-features v1\nseries 0 0\n");
  EXPECT_FALSE(ReadFeatures(in).has_value());
}

TEST(FeatureStoreTest, RejectsOutOfOrderSeries) {
  std::istringstream in("sdtw-features v1\nseries 1 0\nend\n");
  EXPECT_FALSE(ReadFeatures(in).has_value());
}

TEST(FeatureStoreTest, RejectsMalformedKeypoint) {
  std::istringstream in(
      "sdtw-features v1\nseries 0 1\nkp 1 abc 0 1 0.5 0.1\nend\n");
  EXPECT_FALSE(ReadFeatures(in).has_value());
}

TEST(FeatureStoreTest, RejectsHugeKeypointCountWithoutThrowing) {
  // 18446744073709551615 is also what "-1" parses to; neither count may
  // reach an allocation.
  for (const char* count : {"18446744073709551615", "-1", "100000000000"}) {
    SCOPED_TRACE(count);
    std::istringstream in(std::string("sdtw-features v1\nseries 0 ") + count +
                          "\nkp 1 1 0 1 0.5 0.1 1 0\nend\n");
    std::optional<FeatureSets> read;
    EXPECT_NO_THROW(read = ReadFeatures(in));
    EXPECT_FALSE(read.has_value());
  }
}

TEST(FeatureStoreTest, RejectsUnknownTag) {
  std::istringstream in("sdtw-features v1\nbogus\nend\n");
  EXPECT_FALSE(ReadFeatures(in).has_value());
}

TEST(FeatureStoreTest, FileRoundTrip) {
  const FeatureSets original = ExtractSome();
  const std::string path = ::testing::TempDir() + "/features_test.txt";
  ASSERT_TRUE(WriteFeaturesFile(path, original));
  const auto back = ReadFeaturesFile(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), original.size());
}

TEST(FeatureStoreTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(ReadFeaturesFile("/nonexistent/dir/features.txt").has_value());
}

TEST(FeatureStoreTest, UnwritableFileReturnsFalse) {
  EXPECT_FALSE(WriteFeaturesFile("/nonexistent/dir/features.txt", {}));
}

}  // namespace
}  // namespace retrieval
}  // namespace sdtw
