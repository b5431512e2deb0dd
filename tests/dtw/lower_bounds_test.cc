#include "dtw/lower_bounds.h"

#include <gtest/gtest.h>

#include "data/generators.h"
#include "dtw/dtw.h"
#include "ts/random.h"

namespace sdtw {
namespace dtw {
namespace {

ts::TimeSeries RandomSeries(std::size_t n, std::uint64_t seed) {
  ts::Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Gaussian();
  return ts::TimeSeries(std::move(v));
}

TEST(EnvelopeTest, ZeroRadiusIsIdentity) {
  const ts::TimeSeries s({1.0, 3.0, 2.0});
  const Envelope e = MakeEnvelope(s, 0);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_DOUBLE_EQ(e.upper[i], s[i]);
    EXPECT_DOUBLE_EQ(e.lower[i], s[i]);
  }
}

TEST(EnvelopeTest, BoundsContainSeries) {
  const ts::TimeSeries s = RandomSeries(100, 3);
  const Envelope e = MakeEnvelope(s, 5);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_LE(e.lower[i], s[i]);
    EXPECT_GE(e.upper[i], s[i]);
  }
}

TEST(EnvelopeTest, MatchesBruteForce) {
  const ts::TimeSeries s = RandomSeries(60, 7);
  const std::size_t r = 4;
  const Envelope e = MakeEnvelope(s, r);
  for (std::size_t i = 0; i < s.size(); ++i) {
    double mx = s[i], mn = s[i];
    const std::size_t lo = i >= r ? i - r : 0;
    const std::size_t hi = std::min(s.size() - 1, i + r);
    for (std::size_t j = lo; j <= hi; ++j) {
      mx = std::max(mx, s[j]);
      mn = std::min(mn, s[j]);
    }
    EXPECT_DOUBLE_EQ(e.upper[i], mx) << i;
    EXPECT_DOUBLE_EQ(e.lower[i], mn) << i;
  }
}

TEST(EnvelopeTest, LargeRadiusGivesGlobalExtrema) {
  const ts::TimeSeries s({1.0, 5.0, -2.0, 3.0});
  const Envelope e = MakeEnvelope(s, 100);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_DOUBLE_EQ(e.upper[i], 5.0);
    EXPECT_DOUBLE_EQ(e.lower[i], -2.0);
  }
}

// Brute-force reference envelope: per-element window scan, no deques and
// no direct fill — the oracle both MakeEnvelope code paths must match.
Envelope BruteForceEnvelope(const ts::TimeSeries& s, std::size_t r) {
  Envelope env;
  env.upper.assign(s.size(), 0.0);
  env.lower.assign(s.size(), 0.0);
  for (std::size_t i = 0; i < s.size(); ++i) {
    double mx = s[i], mn = s[i];
    const std::size_t lo = i >= r ? i - r : 0;
    const std::size_t hi = std::min(s.size() - 1, i + r);
    for (std::size_t j = lo; j <= hi; ++j) {
      mx = std::max(mx, s[j]);
      mn = std::min(mn, s[j]);
    }
    env.upper[i] = mx;
    env.lower[i] = mn;
  }
  return env;
}

TEST(EnvelopeTest, FullSpanDirectFillMatchesSlidingWindow) {
  // r >= n-1 takes the constant-fill fast path; it must be
  // indistinguishable from the windowed computation, both element-wise
  // and through LB_Keogh.
  const std::size_t n = 60;
  const ts::TimeSeries s = RandomSeries(n, 11);
  const ts::TimeSeries x = RandomSeries(n, 12);
  for (const std::size_t r : {n - 1, n, 2 * n, std::size_t{100000}}) {
    const Envelope fast = MakeEnvelope(s, r);
    const Envelope reference = BruteForceEnvelope(s, r);
    ASSERT_EQ(fast.upper.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(fast.upper[i], reference.upper[i]) << r << " " << i;
      EXPECT_DOUBLE_EQ(fast.lower[i], reference.lower[i]) << r << " " << i;
    }
    EXPECT_DOUBLE_EQ(LbKeogh(x, fast), LbKeogh(x, reference)) << r;
  }
  // The widest radius still on the deque path agrees with the oracle too,
  // pinning the boundary between the two implementations.
  const Envelope boundary = MakeEnvelope(s, n - 2);
  const Envelope boundary_ref = BruteForceEnvelope(s, n - 2);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(boundary.upper[i], boundary_ref.upper[i]) << i;
    EXPECT_DOUBLE_EQ(boundary.lower[i], boundary_ref.lower[i]) << i;
  }
}

TEST(EnvelopeTest, FullSpanSingleElementAndEmpty) {
  const Envelope empty = MakeEnvelope(ts::TimeSeries{}, 5);
  EXPECT_TRUE(empty.upper.empty());
  EXPECT_TRUE(empty.lower.empty());
  // n == 1: r >= n-1 == 0 always, so even r = 0 is full-span.
  const Envelope one = MakeEnvelope(ts::TimeSeries({2.5}), 0);
  ASSERT_EQ(one.upper.size(), 1u);
  EXPECT_DOUBLE_EQ(one.upper[0], 2.5);
  EXPECT_DOUBLE_EQ(one.lower[0], 2.5);
}

TEST(LbKimTest, IsLowerBoundOnRandomPairs) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const ts::TimeSeries x = RandomSeries(40, seed * 2 + 1);
    const ts::TimeSeries y = RandomSeries(35, seed * 2 + 2);
    const double lb = LbKim(x, y);
    const double d = DtwDistance(x, y);
    EXPECT_LE(lb, d + 1e-9) << "seed=" << seed;
  }
}

TEST(LbKimTest, ZeroForIdenticalSeries) {
  const ts::TimeSeries x = RandomSeries(30, 5);
  EXPECT_DOUBLE_EQ(LbKim(x, x), 0.0);
}

TEST(LbKimTest, PositiveForSeparatedSeries) {
  const ts::TimeSeries x = ts::TimeSeries::Constant(10, 0.0);
  const ts::TimeSeries y = ts::TimeSeries::Constant(10, 4.0);
  EXPECT_GT(LbKim(x, y), 3.9);
}

TEST(LbKeoghTest, IsLowerBoundUnderMatchingWindow) {
  // LB_Keogh(r) lower-bounds DTW constrained to the Sakoe-Chiba band of
  // radius r, hence also full DTW only when the optimal path is inside.
  // Test against banded DTW for strictness.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const ts::TimeSeries x = RandomSeries(50, 100 + seed);
    const ts::TimeSeries y = RandomSeries(50, 200 + seed);
    const std::size_t r = 5;
    const double lb = LbKeogh(x, y, r);
    const Band band = SakoeChibaBand(50, 50, 2.0 * 5.0 / 50.0);
    const double d = DtwBandedDistance(x, y, band);
    EXPECT_LE(lb, d + 1e-9) << "seed=" << seed;
  }
}

TEST(LbKeoghTest, FullWindowAlsoBoundsFullDtw) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const ts::TimeSeries x = RandomSeries(40, 300 + seed);
    const ts::TimeSeries y = RandomSeries(40, 400 + seed);
    const double lb = LbKeogh(x, y, 40);
    EXPECT_LE(lb, DtwDistance(x, y) + 1e-9) << "seed=" << seed;
  }
}

TEST(LbKeoghTest, ZeroWhenInsideEnvelope) {
  const ts::TimeSeries y({0.0, 1.0, 2.0, 1.0, 0.0});
  const ts::TimeSeries x({0.5, 1.0, 1.5, 1.0, 0.5});
  EXPECT_DOUBLE_EQ(LbKeogh(x, y, 2), 0.0);
}

TEST(LbKeoghTest, LengthMismatchReturnsZero) {
  const ts::TimeSeries x({1.0, 2.0});
  const ts::TimeSeries y({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(LbKeogh(x, y, 1), 0.0);
}

TEST(LbKeoghTest, TightensWithSmallerRadius) {
  const ts::TimeSeries x = RandomSeries(60, 9);
  const ts::TimeSeries y = RandomSeries(60, 10);
  EXPECT_GE(LbKeogh(x, y, 1), LbKeogh(x, y, 10) - 1e-12);
}

TEST(LbKeoghAbandoningTest, DecisionMatchesFullPassExactly) {
  // The cumulative-abandoning pass accumulates non-negative terms left to
  // right, so (result > threshold) must agree with the full pass for every
  // threshold, and the result must equal the full bound bit for bit
  // whenever the pass completes. For the absolute cost the full pass is
  // LB_Keogh against the stored full-span envelope.
  constexpr double kNoThreshold = std::numeric_limits<double>::infinity();
  for (const CostKind cost : {CostKind::kAbsolute, CostKind::kSquared}) {
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
      ts::TimeSeries x = RandomSeries(64, 700 + seed);
      for (double& v : x) v *= 2.0;  // part of x leaves y's range
      const ts::TimeSeries y = RandomSeries(64, 800 + seed);
      const SeriesStats sy = MakeSeriesStats(y);
      const double full = LbKeoghAbandoning(x, sy, kNoThreshold, nullptr, cost);
      if (cost == CostKind::kAbsolute) {
        EXPECT_EQ(full, LbKeogh(x, MakeEnvelope(y, y.size() - 1)));
      }
      const double thresholds[] = {kNoThreshold, full,       full * 0.999,
                                   full * 0.5,   full * 1.001, 0.0};
      for (const double threshold : thresholds) {
        bool abandoned = true;
        const double got =
            LbKeoghAbandoning(x, sy, threshold, &abandoned, cost);
        EXPECT_EQ(got > threshold, full > threshold)
            << "seed " << seed << " thr " << threshold;
        EXPECT_LE(got, full) << "seed " << seed;  // a partial prefix sum
        if (!abandoned) {
          EXPECT_EQ(got, full) << "seed " << seed << " thr " << threshold;
        } else {
          EXPECT_GT(got, threshold)
              << "seed " << seed << " thr " << threshold;
        }
      }
    }
  }
}

TEST(LbKeoghAbandoningTest, AbandonsEarlyWhenBoundExplodes) {
  // A query far outside the envelope crosses any small threshold within a
  // few terms; the pass must report the early stop.
  const ts::TimeSeries y({0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0});
  const ts::TimeSeries x({10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0});
  bool abandoned = false;
  const double got =
      LbKeoghAbandoning(x, MakeSeriesStats(y), 5.0, &abandoned);
  EXPECT_TRUE(abandoned);
  EXPECT_GT(got, 5.0);
  EXPECT_LT(got, LbKeogh(x, MakeEnvelope(y, 7)));  // stopped before the end
}

TEST(LbKeoghAbandoningTest, MixedLengthsStillBound) {
  // The full-span bound has no equal-length precondition: here x = {5, -1}
  // lies outside y's range [0, 2] by 3 and 1, and DTW(x, y) = 10.
  const ts::TimeSeries x({5.0, -1.0});
  const ts::TimeSeries y({0.0, 1.0, 2.0});
  bool abandoned = true;
  const double lb = LbKeoghAbandoning(x, MakeSeriesStats(y), 100.0,
                                      &abandoned);
  EXPECT_EQ(lb, 4.0);
  EXPECT_FALSE(abandoned);
  EXPECT_LE(lb, DtwDistance(x, y));
  EXPECT_EQ(LbKeoghAbandoning(x, MakeSeriesStats(y), 100.0, nullptr,
                              CostKind::kSquared),
            10.0);
  // An empty candidate has no extrema: the trivial bound.
  EXPECT_EQ(LbKeoghAbandoning(x, MakeSeriesStats(ts::TimeSeries{}), 0.5,
                              &abandoned),
            0.0);
  EXPECT_FALSE(abandoned);
}

TEST(SeriesStatsTest, CachedLbKimMatchesDirect) {
  const ts::TimeSeries x = RandomSeries(80, 21);
  const ts::TimeSeries y = RandomSeries(64, 22);
  const SeriesStats sx = MakeSeriesStats(x);
  const SeriesStats sy = MakeSeriesStats(y);
  EXPECT_TRUE(sx.valid);
  EXPECT_DOUBLE_EQ(LbKim(sx, sy), LbKim(x, y));
}

TEST(SeriesStatsTest, SummaryFieldsAreCorrect) {
  const ts::TimeSeries s({3.0, -1.0, 7.0, 2.0});
  const SeriesStats st = MakeSeriesStats(s);
  EXPECT_DOUBLE_EQ(st.first, 3.0);
  EXPECT_DOUBLE_EQ(st.last, 2.0);
  EXPECT_DOUBLE_EQ(st.min, -1.0);
  EXPECT_DOUBLE_EQ(st.max, 7.0);
  EXPECT_TRUE(st.valid);
}

TEST(SeriesStatsTest, EmptySeriesIsInvalidAndBoundsZero) {
  const SeriesStats empty = MakeSeriesStats(ts::TimeSeries{});
  EXPECT_FALSE(empty.valid);
  const SeriesStats other = MakeSeriesStats(ts::TimeSeries({1.0}));
  EXPECT_DOUBLE_EQ(LbKim(empty, other), 0.0);
}

}  // namespace
}  // namespace dtw
}  // namespace sdtw
