// Equivalence of the band-building stages with a frozen reference copy of
// their earlier implementation (reference_band.h). Every stage, and the
// whole Sdtw pipeline, must reproduce the reference exactly: bands ==,
// doubles bitwise. An oracle rather than golden hashes, because feature
// extraction goes through libm and its bits may differ across platforms.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "align/consistency.h"
#include "align/matching.h"
#include "core/constraints.h"
#include "core/sdtw.h"
#include "data/generators.h"
#include "dtw/dtw.h"
#include "reference_band.h"

namespace sdtw {
namespace core {
namespace {

using Features = std::vector<sift::Keypoint>;

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult SameMatches(
    const std::vector<align::MatchPair>& got,
    const std::vector<align::MatchPair>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " pairs, reference " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].index_x != want[i].index_x ||
        got[i].index_y != want[i].index_y ||
        !SameBits(got[i].descriptor_distance, want[i].descriptor_distance)) {
      return ::testing::AssertionFailure() << "pair " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameAlignments(
    const std::vector<align::AlignedPair>& got,
    const std::vector<align::AlignedPair>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " alignments, reference " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const align::AlignedPair& a = got[i];
    const align::AlignedPair& b = want[i];
    if (a.index_x != b.index_x || a.index_y != b.index_y ||
        !SameBits(a.start_x, b.start_x) || !SameBits(a.end_x, b.end_x) ||
        !SameBits(a.start_y, b.start_y) || !SameBits(a.end_y, b.end_y) ||
        !SameBits(a.mu_align, b.mu_align) || !SameBits(a.mu_sim, b.mu_sim) ||
        !SameBits(a.mu_comb, b.mu_comb)) {
      return ::testing::AssertionFailure() << "alignment " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameIntervals(
    const std::vector<align::IntervalPair>& got,
    const std::vector<align::IntervalPair>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " intervals, reference " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].begin_x != want[i].begin_x || got[i].end_x != want[i].end_x ||
        got[i].begin_y != want[i].begin_y || got[i].end_y != want[i].end_y) {
      return ::testing::AssertionFailure() << "interval " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// Seeded series from the three paper generators, at their default lengths
// and at a second length each, so pairs mix lengths within and across
// families.
struct Corpus {
  std::vector<ts::TimeSeries> series;
  std::vector<Features> features;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
};

const Corpus& TheCorpus() {
  static const Corpus corpus = [] {
    Corpus c;
    const struct {
      const char* name;
      std::size_t length;
      std::uint64_t seed;
    } sets[] = {{"gun", 150, 11},   {"gun", 110, 12},
                {"trace", 275, 13}, {"trace", 190, 14},
                {"50words", 270, 15}, {"50words", 160, 16}};
    std::vector<std::size_t> first_of_set;
    constexpr std::size_t kPerSet = 4;
    for (const auto& set : sets) {
      data::GeneratorOptions options;
      options.length = set.length;
      options.num_series = kPerSet;
      options.seed = set.seed;
      const ts::Dataset ds = data::MakeByName(set.name, options);
      first_of_set.push_back(c.series.size());
      for (std::size_t i = 0; i < kPerSet && i < ds.size(); ++i) {
        c.series.push_back(ds[i]);
      }
    }
    const Sdtw engine;  // the roster shares the default extractor
    for (const ts::TimeSeries& s : c.series) {
      c.features.push_back(engine.ExtractFeatures(s));
    }
    const std::size_t sets_count = first_of_set.size();
    for (std::size_t s = 0; s < sets_count; ++s) {
      const std::size_t a = first_of_set[s];
      // Within a set (equal lengths).
      c.pairs.emplace_back(a, a + 1);
      c.pairs.emplace_back(a + 2, a + 3);
      c.pairs.emplace_back(a + 3, a);
      // Against the next set: the same family at another length, or the
      // next family.
      const std::size_t b = first_of_set[(s + 1) % sets_count];
      c.pairs.emplace_back(a + 1, b + 2);
      c.pairs.emplace_back(b + 3, a + 2);
    }
    return c;
  }();
  return corpus;
}

// Every roster config, with symmetric and require_mutual on and off and
// both costs; the symmetric variants also recover the warp path.
std::vector<std::pair<std::string, SdtwOptions>> Variants(
    const NamedConfig& config) {
  std::vector<std::pair<std::string, SdtwOptions>> out;
  for (const bool symmetric : {false, true}) {
    for (const bool mutual : {false, true}) {
      for (const dtw::CostKind cost :
           {dtw::CostKind::kAbsolute, dtw::CostKind::kSquared}) {
        SdtwOptions options = config.options;
        options.constraint.symmetric = symmetric;
        options.matching.require_mutual = mutual;
        options.dtw.cost = cost;
        options.dtw.want_path = symmetric;
        out.emplace_back(std::string(config.label) +
                             (symmetric ? " sym" : "") +
                             (mutual ? " mutual" : "") +
                             (cost == dtw::CostKind::kSquared ? " sq" : ""),
                         options);
      }
    }
  }
  return out;
}

class BandOracleTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BandOracleTest, StagesAndPipelineMatchReference) {
  const NamedConfig config = PaperAlgorithmRoster()[GetParam()];
  const Corpus& corpus = TheCorpus();
  for (const auto& [label, options] : Variants(config)) {
    const Sdtw engine(options);
    for (const auto& [ix, iy] : corpus.pairs) {
      SCOPED_TRACE(label + " pair " + std::to_string(ix) + "," +
                   std::to_string(iy));
      const ts::TimeSeries& x = corpus.series[ix];
      const ts::TimeSeries& y = corpus.series[iy];
      const Features& fx = corpus.features[ix];
      const Features& fy = corpus.features[iy];

      // Stage by stage, on the X-driven direction.
      const auto pairs = align::FindDominantPairs(fx, fy, options.matching,
                                                  x.size(), y.size());
      ASSERT_TRUE(SameMatches(pairs,
                              reference::FindDominantPairs(
                                  fx, fy, options.matching, x.size(),
                                  y.size())));
      const auto kept = align::PruneInconsistent(x, y, fx, fy, pairs,
                                                 options.consistency);
      ASSERT_TRUE(SameAlignments(
          kept, reference::PruneInconsistent(x, y, fx, fy, pairs,
                                             options.consistency)));
      const auto intervals = align::BuildIntervals(x.size(), y.size(), kept);
      ASSERT_TRUE(SameIntervals(
          intervals, reference::BuildIntervals(x.size(), y.size(), kept)));
      // BuildConstraintBand's own symmetric mode (transposed intervals).
      ASSERT_EQ(BuildConstraintBand(x.size(), y.size(), intervals,
                                    options.constraint),
                reference::BuildConstraintBand(x.size(), y.size(), intervals,
                                               options.constraint));

      // The whole pipeline, including Sdtw's symmetric union.
      const reference::Alignment want =
          reference::Align(x, fx, y, fy, options);
      ASSERT_EQ(engine.BuildBand(x, fx, y, fy), want.band);
      const SdtwResult got = engine.Compare(x, fx, y, fy);
      ASSERT_EQ(got.band, want.band);
      ASSERT_TRUE(SameAlignments(got.alignments, want.alignments));
      ASSERT_TRUE(SameIntervals(got.intervals, want.intervals));
      const dtw::DtwResult dp = dtw::DtwBanded(x, y, want.band, options.dtw);
      ASSERT_TRUE(SameBits(got.distance, dp.distance))
          << got.distance << " vs " << dp.distance;
      ASSERT_EQ(got.path, dp.path);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Roster, BandOracleTest,
    ::testing::Range<std::size_t>(0, PaperAlgorithmRoster().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      std::string name = PaperAlgorithmRoster()[info.param].label;
      for (char& ch : name) {
        if (!((ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9'))) {
          ch = '_';
        }
      }
      return name + "_" + std::to_string(info.param);
    });

TEST(BandOracleTiesTest, DuplicatedFeaturesMatchReference) {
  // Every X feature twice: twins tie on descriptor distance, on µ_comb
  // and on their scope boundaries, so the order-sensitive steps (best and
  // second-best, the stable commit order, the mutual back-check, the
  // final sort) are all exercised on exact ties.
  const Corpus& corpus = TheCorpus();
  for (const NamedConfig& config : PaperAlgorithmRoster()) {
    for (const auto& [label, options] : Variants(config)) {
      const Sdtw engine(options);
      for (std::size_t p = 0; p < corpus.pairs.size(); p += 3) {
        const auto [ix, iy] = corpus.pairs[p];
        SCOPED_TRACE(label + " pair " + std::to_string(ix) + "," +
                     std::to_string(iy));
        const ts::TimeSeries& x = corpus.series[ix];
        const ts::TimeSeries& y = corpus.series[iy];
        Features fx = corpus.features[ix];
        fx.insert(fx.end(), corpus.features[ix].begin(),
                  corpus.features[ix].end());
        const Features& fy = corpus.features[iy];
        const auto pairs = align::FindDominantPairs(
            fx, fy, options.matching, x.size(), y.size());
        ASSERT_TRUE(SameMatches(
            pairs, reference::FindDominantPairs(fx, fy, options.matching,
                                                x.size(), y.size())));
        ASSERT_TRUE(SameAlignments(
            align::PruneInconsistent(x, y, fx, fy, pairs,
                                     options.consistency),
            reference::PruneInconsistent(x, y, fx, fy, pairs,
                                         options.consistency)));
        const reference::Alignment want =
            reference::Align(x, fx, y, fy, options);
        const SdtwResult got = engine.Compare(x, fx, y, fy);
        ASSERT_EQ(got.band, want.band);
        ASSERT_TRUE(SameAlignments(got.alignments, want.alignments));
        ASSERT_TRUE(SameIntervals(got.intervals, want.intervals));
      }
    }
  }
}

TEST(BandOracleIntervalsTest, HandBuiltPartitionsMatchReference) {
  // BuildConstraintBand on partitions BuildIntervals never produces:
  // overlapping, unsorted, degenerate and out-of-range intervals.
  const std::vector<std::vector<align::IntervalPair>> partitions = {
      {},
      {{0, 49, 0, 29}, {50, 99, 30, 99}},
      {{0, 49, 0, 19}, {49, 49, 20, 79}, {49, 99, 80, 99}},
      {{60, 99, 10, 40}, {0, 70, 50, 99}},
      {{0, 30, 40, 40}, {30, 99, 40, 99}, {10, 20, 0, 5}},
      {{0, 150, 0, 200}},
      {{5, 5, 7, 7}},
  };
  for (const NamedConfig& config : PaperAlgorithmRoster()) {
    for (const bool symmetric : {false, true}) {
      ConstraintOptions options = config.options.constraint;
      options.symmetric = symmetric;
      options.adaptive_width_max_fraction = symmetric ? 0.3 : 0.0;
      for (std::size_t p = 0; p < partitions.size(); ++p) {
        for (const auto& [n, m] : {std::pair<std::size_t, std::size_t>{100, 100},
                                   {100, 130}, {70, 100}, {1, 5}, {5, 1}}) {
          SCOPED_TRACE(std::string(config.label) + " partition " +
                       std::to_string(p) + " " + std::to_string(n) + "x" +
                       std::to_string(m) + (symmetric ? " sym" : ""));
          ASSERT_EQ(BuildConstraintBand(n, m, partitions[p], options),
                    reference::BuildConstraintBand(n, m, partitions[p],
                                                   options));
        }
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace sdtw
