// Integration tests running the whole sDTW pipeline end to end on the
// synthetic paper data sets: extraction -> matching -> pruning -> band ->
// banded DP, plus the evaluation harness on top.

#include <cmath>
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "align/matching.h"
#include "core/sdtw.h"
#include "ts/io.h"
#include "data/generators.h"
#include "dtw/multiscale.h"
#include "eval/experiment.h"
#include "ts/transforms.h"

namespace sdtw {
namespace {

data::GeneratorOptions SmallOpts(std::size_t n_series, std::size_t length) {
  data::GeneratorOptions opt;
  opt.num_series = n_series;
  opt.length = length;
  return opt;
}

TEST(PipelineTest, GunLikePairEndToEnd) {
  const ts::Dataset ds = data::MakeGunLike(SmallOpts(4, 150));
  core::Sdtw engine;
  const core::SdtwResult r = engine.Compare(ds[0], ds[2]);
  EXPECT_TRUE(std::isfinite(r.distance));
  EXPECT_TRUE(r.band.IsFeasible());
  EXPECT_GE(r.intervals.size(), 1u);
}

TEST(PipelineTest, SameClassPairsProduceAlignments) {
  // Two instances of the same Gun class share salient structure, so at
  // least one aligned pair should usually survive pruning.
  const ts::Dataset ds = data::MakeGunLike(SmallOpts(10, 150));
  core::Sdtw engine;
  std::size_t with_alignments = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (std::size_t j = i + 1; j < ds.size(); ++j) {
      if (ds[i].label() != ds[j].label()) continue;
      const core::SdtwResult r = engine.Compare(ds[i], ds[j]);
      ++total;
      if (!r.alignments.empty()) ++with_alignments;
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(with_alignments * 2, total);  // majority of same-class pairs
}

TEST(PipelineTest, AlignmentsAreOrderConsistent) {
  const ts::Dataset ds = data::MakeTraceLike(SmallOpts(6, 200));
  core::Sdtw engine;
  for (std::size_t i = 0; i + 1 < ds.size(); ++i) {
    const core::SdtwResult r = engine.Compare(ds[i], ds[i + 1]);
    // Committed scope boundaries must be similarly ordered in both series:
    // sorting by start_x must also sort start_y.
    for (std::size_t a = 1; a < r.alignments.size(); ++a) {
      EXPECT_LE(r.alignments[a - 1].start_x, r.alignments[a].start_x);
      EXPECT_LE(r.alignments[a - 1].start_y, r.alignments[a].start_y + 1e-9);
    }
  }
}

TEST(PipelineTest, IntervalsPartitionBothSeries) {
  const ts::Dataset ds = data::MakeTraceLike(SmallOpts(6, 200));
  core::Sdtw engine;
  const core::SdtwResult r = engine.Compare(ds[0], ds[3]);
  ASSERT_FALSE(r.intervals.empty());
  EXPECT_EQ(r.intervals.front().begin_x, 0u);
  EXPECT_EQ(r.intervals.front().begin_y, 0u);
  EXPECT_EQ(r.intervals.back().end_x, ds[0].size() - 1);
  EXPECT_EQ(r.intervals.back().end_y, ds[3].size() - 1);
  for (std::size_t k = 1; k < r.intervals.size(); ++k) {
    EXPECT_EQ(r.intervals[k].begin_x, r.intervals[k - 1].end_x);
    EXPECT_EQ(r.intervals[k].begin_y, r.intervals[k - 1].end_y);
  }
}

TEST(PipelineTest, AdaptiveBeatsNarrowFixedOnShiftedData) {
  // On shifted TraceLike data, ac,fw 6% should estimate distances more
  // accurately than fc,fw 6% (the paper's central claim).
  data::GeneratorOptions gopt = SmallOpts(12, 150);
  gopt.deform.shift_fraction = 0.15;
  const ts::Dataset ds = data::MakeTraceLike(gopt);
  const eval::DistanceMatrix ref = eval::ComputeFullDtwMatrix(ds);

  core::SdtwOptions fixed;
  fixed.constraint.type = core::ConstraintType::kFixedCoreFixedWidth;
  fixed.constraint.fixed_width_fraction = 0.06;
  core::SdtwOptions adaptive;
  adaptive.constraint.type = core::ConstraintType::kAdaptiveCoreFixedWidth;
  adaptive.constraint.fixed_width_fraction = 0.06;

  const auto mf = eval::ComputeSdtwMatrix(ds, fixed);
  const auto ma = eval::ComputeSdtwMatrix(ds, adaptive);
  const auto metric_f = eval::ComputeMetrics("fc", ds, ref, mf);
  const auto metric_a = eval::ComputeMetrics("ac", ds, ref, ma);
  EXPECT_LT(metric_a.distance_error, metric_f.distance_error);
}

TEST(PipelineTest, SdtwBandCombinesWithMultiscale) {
  // §2.1.4: the sDTW constraint can ride on top of the reduced-representation
  // solver. The combination must stay finite and upper-bound banded DTW.
  const ts::Dataset ds = data::MakeWordsLike(SmallOpts(4, 270));
  core::Sdtw engine;
  const auto fx = engine.ExtractFeatures(ds[0]);
  const auto fy = engine.ExtractFeatures(ds[1]);
  const dtw::Band band = engine.BuildBand(ds[0], fx, ds[1], fy);
  const double banded = dtw::DtwBanded(ds[0], ds[1], band).distance;
  const double combined =
      dtw::MultiscaleDtwConstrained(ds[0], ds[1], band).distance;
  EXPECT_TRUE(std::isfinite(combined));
  EXPECT_GE(combined, banded - 1e-9);
}

TEST(PipelineTest, DescriptorLengthSweepStaysFinite) {
  const ts::Dataset ds = data::MakeGunLike(SmallOpts(4, 150));
  for (std::size_t len : {4u, 16u, 64u, 128u}) {
    core::SdtwOptions opt;
    opt.extractor.descriptor_length = len;
    core::Sdtw engine(opt);
    const double d = engine.Compare(ds[0], ds[1]).distance;
    EXPECT_TRUE(std::isfinite(d)) << len;
  }
}

TEST(PipelineTest, FeatureReuseAcrossComparisons) {
  // Extract once, compare against many: results identical to fresh
  // extraction every time (paper §3.4's one-time extraction).
  const ts::Dataset ds = data::MakeTraceLike(SmallOpts(5, 150));
  core::Sdtw engine;
  const auto f0 = engine.ExtractFeatures(ds[0]);
  for (std::size_t j = 1; j < ds.size(); ++j) {
    const double cached =
        engine.Compare(ds[0], f0, ds[j], engine.ExtractFeatures(ds[j]))
            .distance;
    const double fresh = engine.Compare(ds[0], ds[j]).distance;
    EXPECT_DOUBLE_EQ(cached, fresh) << j;
  }
}

TEST(PipelineTest, MatchingWorkSmallFractionOfTotal) {
  // Figure 17's shape: matching + inconsistency removal is a small share
  // of the pairwise cost relative to the DP on the paper-size sets.
  // Counted in deterministic work, not wall time (two wall times taken in
  // one run are too noisy to compare): every keypoint pair that passes
  // the amplitude, scale and position thresholds costs one pass over the
  // descriptor elements, against one DP cell filled.
  const ts::Dataset ds = data::MakeTraceLike(SmallOpts(8, 275));
  core::SdtwOptions opt;
  opt.constraint.type = core::ConstraintType::kAdaptiveCoreAdaptiveWidth;
  const eval::DistanceMatrix m = eval::ComputeSdtwMatrix(ds, opt);

  const core::Sdtw engine(opt);
  std::vector<sift::FeatureBlock> blocks;
  for (const ts::TimeSeries& s : ds) {
    blocks.emplace_back(engine.ExtractFeatures(s), s);
  }
  align::MatchScratch scratch;
  std::vector<align::MatchPair> pairs;
  std::size_t descriptor_ops = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (std::size_t j = i + 1; j < ds.size(); ++j) {
      ASSERT_FALSE(blocks[i].empty());
      align::FindDominantPairs(blocks[i], blocks[j], opt.matching,
                               ds[i].size(), ds[j].size(), scratch, &pairs);
      // row_end holds the cumulative count of scored pairs per X keypoint.
      const std::size_t scored =
          scratch.forward.row_end[blocks[i].size() - 1];
      descriptor_ops += scored * opt.extractor.descriptor_length;
    }
  }
  ASSERT_GT(descriptor_ops, 0u);
  ASSERT_GT(m.cells_filled, 0u);
  EXPECT_LT(static_cast<double>(descriptor_ops),
            static_cast<double>(m.cells_filled) * 2.0);
}

TEST(PipelineTest, UcrRoundTripFeedsPipeline) {
  // Write a generated set in UCR format, read it back, run sDTW on it.
  const ts::Dataset ds = data::MakeGunLike(SmallOpts(4, 100));
  std::ostringstream out;
  ts::WriteUcr(out, ds);
  std::istringstream in(out.str());
  const ts::Dataset back = ts::ReadUcr(in, "roundtrip");
  ASSERT_EQ(back.size(), 4u);
  core::Sdtw engine;
  EXPECT_TRUE(std::isfinite(engine.Compare(back[0], back[1]).distance));
}

}  // namespace
}  // namespace sdtw
