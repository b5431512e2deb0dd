// Property-based tests over the retrieval engine and subsequence search,
// parameterized over data profiles and engine configurations.

#include <cmath>
#include <gtest/gtest.h>

#include "data/extra_families.h"
#include "data/generators.h"
#include "dtw/subsequence.h"
#include "retrieval/batch.h"
#include "retrieval/feature_store.h"
#include "retrieval/knn.h"

namespace sdtw {
namespace retrieval {
namespace {

struct EngineParam {
  DistanceKind distance;
  bool lb_kim;
  bool lb_keogh;
  bool early_abandon;
  const char* dataset;
};

ts::Dataset MakeSet(const char* name) {
  data::GeneratorOptions opt;
  opt.num_series = 14;
  opt.length = 80;
  if (std::string(name) == "cbf") return data::MakeCbf(opt);
  if (std::string(name) == "twopatterns") return data::MakeTwoPatterns(opt);
  return data::MakeByName(name, opt);
}

class RetrievalPropertyTest : public ::testing::TestWithParam<EngineParam> {};

TEST_P(RetrievalPropertyTest, QueriesReturnSortedFiniteHits) {
  const EngineParam p = GetParam();
  KnnOptions opt;
  opt.distance = p.distance;
  opt.use_lb_kim = p.lb_kim;
  opt.use_lb_keogh = p.lb_keogh;
  opt.use_early_abandon = p.early_abandon;
  KnnEngine engine(opt);
  const ts::Dataset ds = MakeSet(p.dataset);
  engine.Index(ds);
  for (std::size_t q = 0; q < 4; ++q) {
    const auto hits = engine.Query(ds[q], 4, q);
    ASSERT_EQ(hits.size(), 4u);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_TRUE(std::isfinite(hits[i].distance));
      EXPECT_NE(hits[i].index, q);
      if (i > 0) {
        EXPECT_GE(hits[i].distance, hits[i - 1].distance);
      }
    }
  }
}

TEST_P(RetrievalPropertyTest, TopOneIsGlobalMinimum) {
  const EngineParam p = GetParam();
  if (p.distance == DistanceKind::kEuclidean) return;  // covered in unit
  KnnOptions opt;
  opt.distance = p.distance;
  opt.use_lb_kim = p.lb_kim;
  opt.use_lb_keogh = p.lb_keogh;
  opt.use_early_abandon = p.early_abandon;
  KnnEngine engine(opt);
  // Reference engine with all pruning off.
  KnnOptions plain = opt;
  plain.use_lb_kim = false;
  plain.use_lb_keogh = false;
  plain.use_early_abandon = false;
  KnnEngine reference(plain);
  const ts::Dataset ds = MakeSet(p.dataset);
  engine.Index(ds);
  reference.Index(ds);
  for (std::size_t q = 0; q < 4; ++q) {
    const auto fast = engine.Query(ds[q], 1, q);
    const auto ref = reference.Query(ds[q], 1, q);
    ASSERT_EQ(fast.size(), 1u);
    ASSERT_EQ(ref.size(), 1u);
    EXPECT_NEAR(fast[0].distance, ref[0].distance, 1e-9) << q;
  }
}

TEST_P(RetrievalPropertyTest, VisitOrdersBitwiseIdenticalAcrossThreads) {
  // LB-ordered visiting is pure scheduling: over every engine config and
  // data profile of the sweep, batch hit lists must equal the
  // index-ordered ones bit for bit at 1/2/4/8 worker threads.
  const EngineParam p = GetParam();
  KnnOptions opt;
  opt.distance = p.distance;
  opt.use_lb_kim = p.lb_kim;
  opt.use_lb_keogh = p.lb_keogh;
  opt.use_early_abandon = p.early_abandon;
  const ts::Dataset ds = MakeSet(p.dataset);
  opt.visit_order = VisitOrder::kIndexOrder;
  KnnEngine index_engine(opt);
  index_engine.Index(ds);
  opt.visit_order = VisitOrder::kLowerBound;
  KnnEngine lb_engine(opt);
  lb_engine.Index(ds);
  const std::vector<ts::TimeSeries> queries(ds.begin(), ds.begin() + 5);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    BatchOptions bopt;
    bopt.num_threads = threads;
    bopt.chunk_size = 4;
    const auto index_hits =
        BatchKnnEngine(index_engine, bopt).QueryBatch(queries, 4);
    const auto lb_hits =
        BatchKnnEngine(lb_engine, bopt).QueryBatch(queries, 4);
    ASSERT_EQ(index_hits.size(), lb_hits.size());
    for (std::size_t q = 0; q < index_hits.size(); ++q) {
      ASSERT_EQ(lb_hits[q].size(), index_hits[q].size())
          << threads << " " << q;
      for (std::size_t i = 0; i < index_hits[q].size(); ++i) {
        EXPECT_EQ(lb_hits[q][i].index, index_hits[q][i].index)
            << threads << " " << q << " " << i;
        EXPECT_EQ(lb_hits[q][i].distance, index_hits[q][i].distance)
            << threads << " " << q << " " << i;
      }
    }
  }
}

TEST_P(RetrievalPropertyTest, AlignmentRecoveryEqualsDirectComparePaths) {
  // The winners' recovered warp paths must equal what a direct path-mode
  // comparison produces — the abandon-at-known-distance re-run adds no
  // approximation.
  const EngineParam p = GetParam();
  KnnOptions opt;
  opt.distance = p.distance;
  opt.use_lb_kim = p.lb_kim;
  opt.use_lb_keogh = p.lb_keogh;
  opt.use_early_abandon = p.early_abandon;
  KnnEngine engine(opt);
  const ts::Dataset ds = MakeSet(p.dataset);
  engine.Index(ds);
  BatchOptions bopt;
  bopt.num_threads = 4;
  const BatchKnnEngine batch(engine, bopt);
  const std::vector<ts::TimeSeries> queries(ds.begin(), ds.begin() + 3);
  std::vector<std::optional<std::size_t>> excludes{0u, 1u, 2u};
  const auto aligned =
      batch.QueryBatchWithAlignments(queries, 3, nullptr, excludes);
  core::SdtwOptions path_options = opt.sdtw;
  path_options.dtw.want_path = true;
  const core::Sdtw reference(path_options);
  for (std::size_t q = 0; q < aligned.size(); ++q) {
    for (const AlignedHit& a : aligned[q]) {
      const ts::TimeSeries& target = ds[a.hit.index];
      ASSERT_FALSE(a.path.empty()) << q;
      EXPECT_TRUE(dtw::IsValidWarpPath(a.path, queries[q].size(),
                                       target.size()))
          << q;
      if (p.distance == DistanceKind::kSdtw) {
        const core::SdtwResult direct = reference.Compare(
            queries[q], reference.ExtractFeatures(queries[q]), target,
            reference.ExtractFeatures(target));
        EXPECT_EQ(direct.distance, a.hit.distance) << q;
        EXPECT_EQ(direct.path, a.path) << q;
      } else if (p.distance == DistanceKind::kFullDtw) {
        EXPECT_EQ(dtw::PathCost(queries[q], target, a.path,
                                dtw::CostKind::kAbsolute),
                  a.hit.distance)
            << q;
      }
    }
  }
}

TEST_P(RetrievalPropertyTest, FeatureStoreRoundTripKeepsDistances) {
  const EngineParam p = GetParam();
  if (p.distance != DistanceKind::kSdtw) return;
  const ts::Dataset ds = MakeSet(p.dataset);
  core::Sdtw engine;
  FeatureSets features;
  for (const auto& s : ds) features.push_back(engine.ExtractFeatures(s));
  std::ostringstream out;
  WriteFeatures(out, features);
  std::istringstream in(out.str());
  const auto back = ReadFeatures(in);
  ASSERT_TRUE(back.has_value());
  // Distances computed from restored features are identical.
  for (std::size_t j = 1; j < 4; ++j) {
    const double a =
        engine.Compare(ds[0], features[0], ds[j], features[j]).distance;
    const double b =
        engine.Compare(ds[0], (*back)[0], ds[j], (*back)[j]).distance;
    EXPECT_DOUBLE_EQ(a, b) << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, RetrievalPropertyTest,
    ::testing::Values(
        EngineParam{DistanceKind::kFullDtw, true, true, true, "gun"},
        EngineParam{DistanceKind::kFullDtw, true, false, false, "trace"},
        EngineParam{DistanceKind::kFullDtw, false, true, false, "cbf"},
        EngineParam{DistanceKind::kFullDtw, false, false, true,
                    "twopatterns"},
        EngineParam{DistanceKind::kSdtw, true, false, false, "gun"},
        EngineParam{DistanceKind::kSdtw, false, false, false, "trace"},
        EngineParam{DistanceKind::kSdtw, true, false, false, "50words"}),
    [](const ::testing::TestParamInfo<EngineParam>& info) {
      std::string name =
          info.param.distance == DistanceKind::kFullDtw ? "dtw" : "sdtw";
      name += std::string("_") + info.param.dataset;
      if (info.param.lb_kim) name += "_kim";
      if (info.param.lb_keogh) name += "_keogh";
      if (info.param.early_abandon) name += "_ea";
      return name;
    });

// Subsequence-search property sweep over query/series lengths.
struct SubSizes {
  std::size_t query_len;
  std::size_t series_len;
  std::uint64_t seed;
};

class SubsequencePropertyTest : public ::testing::TestWithParam<SubSizes> {};

TEST_P(SubsequencePropertyTest, MatchWithinBoundsAndBelowGlobal) {
  const SubSizes p = GetParam();
  ts::Rng rng(p.seed);
  const ts::TimeSeries q =
      data::patterns::RandomSmooth(p.query_len, 4, rng);
  const ts::TimeSeries s =
      data::patterns::RandomSmooth(p.series_len, 8, rng);
  const dtw::SubsequenceMatch m = dtw::FindBestSubsequence(q, s);
  EXPECT_TRUE(std::isfinite(m.distance));
  EXPECT_LE(m.begin, m.end);
  EXPECT_LT(m.end, p.series_len);
  EXPECT_LE(m.distance, dtw::Dtw(q, s).distance + 1e-9);
  // Window distance equals the DTW of the window under matched endpoints.
  const ts::TimeSeries window = s.Slice(m.begin, m.end - m.begin + 1);
  EXPECT_LE(m.distance, dtw::Dtw(q, window).distance + 1e-9);
}

TEST_P(SubsequencePropertyTest, PathMonotoneAndAnchored) {
  const SubSizes p = GetParam();
  ts::Rng rng(p.seed + 100);
  const ts::TimeSeries q =
      data::patterns::RandomSmooth(p.query_len, 4, rng);
  const ts::TimeSeries s =
      data::patterns::RandomSmooth(p.series_len, 8, rng);
  const dtw::SubsequenceMatch m = dtw::FindBestSubsequence(q, s);
  ASSERT_FALSE(m.path.empty());
  EXPECT_EQ(m.path.front().first, 0u);
  EXPECT_EQ(m.path.back().first, p.query_len - 1);
  for (std::size_t k = 1; k < m.path.size(); ++k) {
    EXPECT_GE(m.path[k].first, m.path[k - 1].first);
    EXPECT_GE(m.path[k].second, m.path[k - 1].second);
    EXPECT_LE(m.path[k].first - m.path[k - 1].first, 1u);
    EXPECT_LE(m.path[k].second - m.path[k - 1].second, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizeSweep, SubsequencePropertyTest,
    ::testing::Values(SubSizes{5, 50, 1}, SubSizes{20, 100, 2},
                      SubSizes{30, 30, 3}, SubSizes{40, 400, 4},
                      SubSizes{2, 80, 5}, SubSizes{64, 65, 6}),
    [](const ::testing::TestParamInfo<SubSizes>& info) {
      return "q" + std::to_string(info.param.query_len) + "_s" +
             std::to_string(info.param.series_len);
    });

}  // namespace
}  // namespace retrieval
}  // namespace sdtw
