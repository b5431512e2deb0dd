// Build-sanity smoke test: links the whole sdtw library and round-trips one
// end-to-end pipeline (generate -> extract salient features -> sDTW distance
// -> 1-NN classify) so future link regressions fail fast.

#include <gtest/gtest.h>

#include "core/sdtw.h"
#include "data/generators.h"
#include "retrieval/batch.h"
#include "retrieval/knn.h"
#include "ts/time_series.h"

namespace sdtw {
namespace {

TEST(BuildSanityTest, EndToEndPipelineLinksAndRuns) {
  // 1. Generate a small labelled data set.
  data::GeneratorOptions gen;
  gen.num_series = 12;
  gen.seed = 42;
  const ts::Dataset dataset = data::MakeGunLike(gen);
  ASSERT_EQ(dataset.size(), 12u);

  // 2. Extract salient features and compute an sDTW distance.
  core::Sdtw engine;
  const auto fx = engine.ExtractFeatures(dataset[0]);
  const auto fy = engine.ExtractFeatures(dataset[1]);
  const core::SdtwResult r =
      engine.Compare(dataset[0], fx, dataset[1], fy);
  EXPECT_GE(r.distance, 0.0);
  EXPECT_TRUE(std::isfinite(r.distance));

  // 3. 1-NN classification over the indexed set (leave-one-out).
  retrieval::KnnEngine knn;
  knn.Index(dataset);
  ASSERT_EQ(knn.size(), dataset.size());
  const int predicted = knn.Classify(dataset[0], 1, 0);
  EXPECT_GE(predicted, 0);
  const double accuracy =
      retrieval::BatchKnnEngine(knn).LeaveOneOutAccuracy(1);
  EXPECT_GE(accuracy, 0.0);
  EXPECT_LE(accuracy, 1.0);
}

}  // namespace
}  // namespace sdtw
