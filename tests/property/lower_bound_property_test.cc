// Property tests pinning the full-span LB_Keogh bound the retrieval cascade
// computes from cached SeriesStats. Over random pairs of equal and mixed
// lengths and both cost kinds, in both directions:
//
//   LbKeoghAbandoning(x, stats(y))  <=  DtwDistance(x, y)  <=  sDTW(x, y)
//
// with no tolerance: the bound and the DP add their terms in path order,
// and floating-point addition is monotone, so the inequalities hold bit
// for bit, not just up to rounding.

#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <string>

#include "core/sdtw.h"
#include "dtw/dtw.h"
#include "dtw/lower_bounds.h"
#include "ts/random.h"

namespace sdtw {
namespace dtw {
namespace {

constexpr double kNoThreshold = std::numeric_limits<double>::infinity();

struct PairSizes {
  std::size_t n;
  std::size_t m;
  std::uint64_t seed;
};

// A random walk from a random level: pairs range from overlapping value
// ranges (bound near 0) to disjoint ones (bound near the distance).
ts::TimeSeries Walk(std::size_t n, ts::Rng& rng) {
  std::vector<double> v(n);
  double x = rng.Gaussian(0.0, 1.5);
  for (double& e : v) {
    x += rng.Gaussian(0.0, 0.3);
    e = x;
  }
  return ts::TimeSeries(std::move(v));
}

double StatsBound(const ts::TimeSeries& x, const ts::TimeSeries& y,
                  CostKind cost) {
  return LbKeoghAbandoning(x, MakeSeriesStats(y), kNoThreshold, nullptr,
                           cost);
}

class LowerBoundPropertyTest : public ::testing::TestWithParam<PairSizes> {};

TEST_P(LowerBoundPropertyTest, StatsBoundBelowDtwBelowSdtw) {
  const PairSizes p = GetParam();
  std::size_t positive = 0;
  for (const CostKind cost : {CostKind::kAbsolute, CostKind::kSquared}) {
    core::SdtwOptions options;
    options.dtw.cost = cost;
    options.dtw.want_path = false;
    const core::Sdtw engine(options);
    ts::Rng rng(p.seed);
    for (int trial = 0; trial < 8; ++trial) {
      const ts::TimeSeries x = Walk(p.n, rng);
      const ts::TimeSeries y = Walk(p.m, rng);
      const double dtw = DtwDistance(x, y, cost);
      const double sdtw = engine.Compare(x, y).distance;
      for (const double lb : {StatsBound(x, y, cost), StatsBound(y, x, cost)}) {
        EXPECT_LE(lb, dtw) << "trial " << trial;
        if (lb > 0.0) ++positive;
      }
      EXPECT_LE(dtw, sdtw) << "trial " << trial;
    }
  }
  EXPECT_GT(positive, 0u);  // the sweep exercises non-trivial bounds
}

TEST_P(LowerBoundPropertyTest, EqualLengthsMatchStoredEnvelopeBitwise) {
  // For the absolute cost the stats bound is the envelope pass over
  // MakeEnvelope(y, n - 1), term for term.
  const PairSizes p = GetParam();
  ts::Rng rng(p.seed + 1);
  for (int trial = 0; trial < 8; ++trial) {
    const ts::TimeSeries x = Walk(p.n, rng);
    const ts::TimeSeries y = Walk(p.n, rng);
    EXPECT_EQ(StatsBound(x, y, CostKind::kAbsolute),
              LbKeogh(x, MakeEnvelope(y, p.n - 1)))
        << "trial " << trial;
  }
}

TEST_P(LowerBoundPropertyTest, AbandoningDecisionMatchesFullPass) {
  const PairSizes p = GetParam();
  for (const CostKind cost : {CostKind::kAbsolute, CostKind::kSquared}) {
    ts::Rng rng(p.seed + 2);
    for (int trial = 0; trial < 8; ++trial) {
      const ts::TimeSeries x = Walk(p.n, rng);
      const ts::TimeSeries y = Walk(p.m, rng);
      const SeriesStats sy = MakeSeriesStats(y);
      const double full = StatsBound(x, y, cost);
      const double dtw = DtwDistance(x, y, cost);
      for (const double threshold :
           {0.0, full * 0.5, std::nextafter(full, 0.0), full,
            std::nextafter(full, kNoThreshold), dtw, kNoThreshold}) {
        bool abandoned = true;
        const double got =
            LbKeoghAbandoning(x, sy, threshold, &abandoned, cost);
        EXPECT_EQ(got > threshold, full > threshold)
            << "trial " << trial << " thr " << threshold;
        if (abandoned) {
          EXPECT_GT(got, threshold) << "trial " << trial;
          EXPECT_LE(got, full) << "trial " << trial;
        } else {
          EXPECT_EQ(got, full) << "trial " << trial << " thr " << threshold;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizeSweep, LowerBoundPropertyTest,
    ::testing::Values(PairSizes{32, 32, 1}, PairSizes{96, 96, 2},
                      PairSizes{128, 128, 3}, PairSizes{60, 90, 4},
                      PairSizes{120, 50, 5}, PairSizes{17, 80, 6}),
    [](const ::testing::TestParamInfo<PairSizes>& info) {
      return "n" + std::to_string(info.param.n) + "_m" +
             std::to_string(info.param.m);
    });

}  // namespace
}  // namespace dtw
}  // namespace sdtw
