// Cross-module system tests: persistence feeding the retrieval engine,
// constraint bands feeding the multiscale solver, subsequence search over
// generated data, and the config parser driving the full pipeline.

#include <cmath>
#include <gtest/gtest.h>

#include <sstream>

#include "core/config.h"
#include "core/sdtw.h"
#include "data/extra_families.h"
#include "data/generators.h"
#include "dtw/multiscale.h"
#include "dtw/path_analysis.h"
#include "dtw/subsequence.h"
#include "eval/confusion.h"
#include "retrieval/batch.h"
#include "retrieval/feature_store.h"
#include "retrieval/knn.h"
#include "ts/random.h"
#include "ts/transforms.h"

namespace sdtw {
namespace {

TEST(SystemTest, ConfigDrivenPipelineMatchesHandBuilt) {
  data::GeneratorOptions gopt;
  gopt.num_series = 6;
  gopt.length = 120;
  const ts::Dataset ds = data::MakeTraceLike(gopt);

  const auto parsed = core::ParseOptions(
      "constraint=ac2,aw descriptor=32 tau_d=1.3");
  ASSERT_TRUE(parsed.has_value());
  core::SdtwOptions manual;
  manual.constraint.type = core::ConstraintType::kAdaptiveCoreAdaptiveWidth;
  manual.constraint.width_average_radius = 1;
  manual.extractor.descriptor_length = 32;
  manual.matching.tau_distinct = 1.3;
  core::Sdtw a(*parsed), b(manual);
  for (std::size_t j = 1; j < ds.size(); ++j) {
    EXPECT_DOUBLE_EQ(a.Compare(ds[0], ds[j]).distance,
                     b.Compare(ds[0], ds[j]).distance);
  }
}

TEST(SystemTest, PersistedFeaturesDriveKnnIdentically) {
  data::GeneratorOptions gopt;
  gopt.num_series = 10;
  gopt.length = 100;
  const ts::Dataset ds = data::MakeGunLike(gopt);

  // Extract, persist, restore.
  core::Sdtw engine;
  retrieval::FeatureSets features;
  for (const auto& s : ds) features.push_back(engine.ExtractFeatures(s));
  std::ostringstream out;
  retrieval::WriteFeatures(out, features);
  std::istringstream in(out.str());
  const auto restored = retrieval::ReadFeatures(in);
  ASSERT_TRUE(restored.has_value());

  // Pairwise matrices from fresh vs restored features agree exactly.
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      const double fresh =
          engine.Compare(ds[i], features[i], ds[j], features[j]).distance;
      const double persisted =
          engine.Compare(ds[i], (*restored)[i], ds[j], (*restored)[j])
              .distance;
      EXPECT_DOUBLE_EQ(fresh, persisted);
    }
  }
}

TEST(SystemTest, SdtwBandTightensMultiscaleSearch) {
  data::GeneratorOptions gopt;
  gopt.num_series = 2;
  gopt.length = 256;
  const ts::Dataset ds = data::MakeWordsLike(gopt);
  core::Sdtw engine;
  const auto fx = engine.ExtractFeatures(ds[0]);
  const auto fy = engine.ExtractFeatures(ds[1]);
  const dtw::Band band = engine.BuildBand(ds[0], fx, ds[1], fy);
  const dtw::DtwResult plain = dtw::MultiscaleDtw(ds[0], ds[1]);
  const dtw::DtwResult constrained =
      dtw::MultiscaleDtwConstrained(ds[0], ds[1], band);
  EXPECT_TRUE(std::isfinite(constrained.distance));
  // The combined search never fills more cells than the unconstrained one.
  EXPECT_LE(constrained.cells_filled, plain.cells_filled);
}

TEST(SystemTest, SubsequenceSearchOnGeneratedTransients) {
  // Locate one TraceLike transient inside a longer series of another
  // instance of the same class.
  data::GeneratorOptions gopt;
  gopt.num_series = 8;
  gopt.length = 200;
  const ts::Dataset ds = data::MakeTraceLike(gopt);
  // Use the middle chunk (holding the transient) of series 0 as the query.
  const ts::TimeSeries query = ds[0].Slice(60, 80);
  const auto same_class = ds.IndicesOfClass(ds[0].label());
  ASSERT_GE(same_class.size(), 2u);
  const std::size_t other = same_class[1];
  const dtw::SubsequenceMatch m =
      dtw::FindBestSubsequence(query, ds[other]);
  EXPECT_TRUE(std::isfinite(m.distance));
  // The matched window must be a proper sub-window, not the whole series.
  EXPECT_LT(m.end - m.begin + 1, ds[other].size());
}

TEST(SystemTest, ConfusionMatrixAgreesWithKnnAccuracy) {
  data::GeneratorOptions gopt;
  gopt.num_series = 18;
  gopt.length = 90;
  const ts::Dataset ds = data::MakeCbf(gopt);
  retrieval::KnnEngine engine;
  engine.Index(ds);
  eval::ConfusionMatrix cm;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    cm.Add(ds[i].label(), engine.Classify(ds[i], 1, i));
  }
  EXPECT_NEAR(cm.Accuracy(),
              retrieval::BatchKnnEngine(engine).LeaveOneOutAccuracy(1),
              1e-12);
  EXPECT_EQ(cm.total(), ds.size());
}

TEST(SystemTest, ObservedCoreFollowsAdaptiveCorePrediction) {
  // On a warped copy, the adaptive core should predict the observed core
  // (mean matched column of the true optimal path) better than the
  // diagonal does.
  ts::Rng rng(31);
  ts::TimeSeries x =
      ts::ZNormalize(data::patterns::RandomSmooth(180, 10, rng));
  data::DeformationOptions deform;
  deform.warp_strength = 0.35;
  deform.shift_fraction = 0.08;
  deform.noise_sigma = 0.0;
  const ts::TimeSeries y = ts::ZNormalize(data::Deform(x, deform, rng));

  const dtw::DtwResult exact = dtw::Dtw(x, y);
  const std::vector<double> observed =
      dtw::ObservedCore(exact.path, x.size());

  core::Sdtw engine;
  const core::SdtwResult r = engine.Compare(x, y);
  const std::vector<double> predicted =
      core::AdaptiveCore(x.size(), y.size(), r.intervals);
  const std::vector<double> diagonal =
      core::DiagonalCore(x.size(), y.size());

  auto mean_abs_err = [&observed](const std::vector<double>& core) {
    double sum = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
      sum += std::abs(core[i] - observed[i]);
    }
    return sum / static_cast<double>(observed.size());
  };
  // Only meaningful when alignments were actually found.
  if (!r.alignments.empty()) {
    EXPECT_LE(mean_abs_err(predicted), mean_abs_err(diagonal) + 1.0);
  }
}

}  // namespace
}  // namespace sdtw
