#include "dtw/dtw.h"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <vector>

#include "dtw/band_matrix.h"
#include "dtw/row_kernel.h"

namespace sdtw {
namespace dtw {
namespace {

TEST(DtwTest, IdenticalSeriesHaveZeroDistance) {
  const ts::TimeSeries x({1.0, 2.0, 3.0, 2.0});
  const DtwResult r = Dtw(x, x);
  EXPECT_DOUBLE_EQ(r.distance, 0.0);
  EXPECT_TRUE(IsValidWarpPath(r.path, 4, 4));
}

TEST(DtwTest, SinglePointSeries) {
  const ts::TimeSeries x({2.0});
  const ts::TimeSeries y({5.0});
  const DtwResult r = Dtw(x, y);
  EXPECT_DOUBLE_EQ(r.distance, 3.0);
  ASSERT_EQ(r.path.size(), 1u);
  EXPECT_EQ(r.path[0], PathPoint(0, 0));
}

TEST(DtwTest, EmptySeriesGivesInfinity) {
  const ts::TimeSeries x;
  const ts::TimeSeries y({1.0});
  EXPECT_TRUE(std::isinf(Dtw(x, y).distance));
  EXPECT_TRUE(std::isinf(DtwDistance(x, y)));
}

TEST(DtwTest, KnownSmallExample) {
  // x = (0, 1), y = (0, 0, 1): DTW can match x0 to both zeros and x1 to
  // the one, giving 0.
  const ts::TimeSeries x({0.0, 1.0});
  const ts::TimeSeries y({0.0, 0.0, 1.0});
  const DtwResult r = Dtw(x, y);
  EXPECT_DOUBLE_EQ(r.distance, 0.0);
  EXPECT_TRUE(IsValidWarpPath(r.path, 2, 3));
}

TEST(DtwTest, ShiftedStepAlignsCheaply) {
  // A step at t=3 vs the same step at t=5: DTW absorbs the shift.
  std::vector<double> a(10, 0.0), b(10, 0.0);
  for (std::size_t i = 3; i < 10; ++i) a[i] = 1.0;
  for (std::size_t i = 5; i < 10; ++i) b[i] = 1.0;
  const ts::TimeSeries x(a), y(b);
  const double euclid_like = DtwDistance(x, y);
  EXPECT_DOUBLE_EQ(euclid_like, 0.0);
}

TEST(DtwTest, DistanceSymmetric) {
  const ts::TimeSeries x({0.0, 1.0, 0.5, -0.5});
  const ts::TimeSeries y({0.2, 0.9, -0.2});
  EXPECT_DOUBLE_EQ(DtwDistance(x, y), DtwDistance(y, x));
}

TEST(DtwTest, SquaredCostDiffersFromAbsolute) {
  const ts::TimeSeries x({0.0, 3.0});
  const ts::TimeSeries y({0.0, 1.0});
  EXPECT_DOUBLE_EQ(DtwDistance(x, y, CostKind::kAbsolute), 2.0);
  EXPECT_DOUBLE_EQ(DtwDistance(x, y, CostKind::kSquared), 4.0);
}

TEST(DtwTest, PathCostMatchesReportedDistance) {
  const ts::TimeSeries x({0.1, 0.9, 0.4, 0.7, 0.2});
  const ts::TimeSeries y({0.0, 1.0, 0.5, 0.1});
  const DtwResult r = Dtw(x, y);
  EXPECT_NEAR(PathCost(x, y, r.path), r.distance, 1e-9);
}

TEST(DtwTest, RollingDistanceMatchesFullGrid) {
  const ts::TimeSeries x({0.3, 1.2, -0.5, 0.8, 0.0, 2.0});
  const ts::TimeSeries y({0.1, 1.0, -0.2, 0.6, 0.4});
  EXPECT_NEAR(Dtw(x, y).distance, DtwDistance(x, y), 1e-12);
}

TEST(DtwTest, CellsFilledIsFullGrid) {
  const ts::TimeSeries x({1.0, 2.0, 3.0});
  const ts::TimeSeries y({1.0, 2.0});
  EXPECT_EQ(Dtw(x, y).cells_filled, 6u);
}

TEST(DtwTest, WantPathFalseSkipsPath) {
  DtwOptions opt;
  opt.want_path = false;
  const ts::TimeSeries x({1.0, 2.0});
  const DtwResult r = Dtw(x, x, opt);
  EXPECT_TRUE(r.path.empty());
  EXPECT_DOUBLE_EQ(r.distance, 0.0);
}

TEST(DtwBandedTest, FullBandMatchesUnconstrained) {
  const ts::TimeSeries x({0.3, 1.2, -0.5, 0.8, 0.0});
  const ts::TimeSeries y({0.1, 1.0, -0.2, 0.6});
  const Band band = Band::Full(x.size(), y.size());
  EXPECT_NEAR(DtwBanded(x, y, band).distance, Dtw(x, y).distance, 1e-12);
}

TEST(DtwBandedTest, BandedDistanceNeverBelowOptimal) {
  const ts::TimeSeries x({0.0, 1.0, 0.0, -1.0, 0.0, 1.0});
  const ts::TimeSeries y({0.0, 0.0, 1.0, 0.0, -1.0, 0.0});
  const double opt = Dtw(x, y).distance;
  for (double w : {0.0, 0.2, 0.5, 1.0}) {
    const Band band = SakoeChibaBand(x.size(), y.size(), w);
    EXPECT_GE(DtwBanded(x, y, band).distance, opt - 1e-12) << "w=" << w;
  }
}

TEST(DtwBandedTest, PathStaysInsideBand) {
  const ts::TimeSeries x({0.0, 1.0, 2.0, 3.0, 4.0, 5.0});
  const ts::TimeSeries y({0.0, 2.0, 4.0, 6.0, 8.0, 10.0});
  const Band band = SakoeChibaBand(6, 6, 0.3);
  const DtwResult r = DtwBanded(x, y, band);
  ASSERT_FALSE(r.path.empty());
  for (const PathPoint& p : r.path) {
    EXPECT_TRUE(band.Contains(p.first, p.second))
        << p.first << "," << p.second;
  }
}

TEST(DtwBandedTest, BandShapeMismatchGivesInfinity) {
  const ts::TimeSeries x({1.0, 2.0, 3.0});
  const ts::TimeSeries y({1.0, 2.0});
  const Band band = Band::Full(2, 2);
  EXPECT_TRUE(std::isinf(DtwBanded(x, y, band).distance));
}

TEST(DtwBandedTest, CellsFilledReflectsBandSize) {
  const ts::TimeSeries x = ts::TimeSeries::Zeros(50);
  const ts::TimeSeries y = ts::TimeSeries::Zeros(50);
  const Band band = SakoeChibaBand(50, 50, 0.1);
  const DtwResult r = DtwBanded(x, y, band);
  EXPECT_EQ(r.cells_filled, band.CellCount());
  EXPECT_LT(r.cells_filled, 2500u);
}

TEST(DtwBandedTest, RollingBandedMatchesMaterialised) {
  const ts::TimeSeries x({0.3, 1.2, -0.5, 0.8, 0.0, 0.4, 1.3});
  const ts::TimeSeries y({0.1, 1.0, -0.2, 0.6, 0.2, 0.9});
  const Band band = SakoeChibaBand(x.size(), y.size(), 0.4);
  EXPECT_NEAR(DtwBandedDistance(x, y, band),
              DtwBanded(x, y, band).distance, 1e-12);
}

TEST(DtwBandedTest, DiagonalOnlyBandOnEqualLengthsIsEuclideanL1) {
  const ts::TimeSeries x({0.0, 2.0, 4.0});
  const ts::TimeSeries y({1.0, 1.0, 5.0});
  const Band band = SakoeChibaBand(3, 3, 0.0);
  // Only diagonal cells: |0-1| + |2-1| + |4-5| = 3.
  EXPECT_DOUBLE_EQ(DtwBanded(x, y, band).distance, 3.0);
}

TEST(DtwBandedTest, DistanceOnlyAllocationIsBandRowBounded) {
  // The distance-only banded DP must allocate two rolling rows sized to
  // the widest band row — not an (n+1) x (m+1) buffer.
  const std::size_t n = 200;
  const ts::TimeSeries x = ts::TimeSeries::Zeros(n);
  const ts::TimeSeries y = ts::TimeSeries::Zeros(n);
  const Band band = SakoeChibaBand(n, n, 0.05);
  std::size_t max_width = 0;
  for (std::size_t i = 0; i < n; ++i) {
    max_width = std::max(max_width, band.row(i).width());
  }
  DtwOptions opt;
  opt.want_path = false;
  const DtwResult r = DtwBanded(x, y, band, opt);
  EXPECT_LE(r.cells_allocated, 2 * max_width);
  EXPECT_LT(r.cells_allocated, (n + 1) * (n + 1) / 100);
  EXPECT_DOUBLE_EQ(r.distance, 0.0);
}

TEST(DtwBandedTest, PathAllocationIsBandCellsOnly) {
  const std::size_t n = 120;
  const ts::TimeSeries x = ts::TimeSeries::Zeros(n);
  const ts::TimeSeries y = ts::TimeSeries::Zeros(n);
  const Band band = SakoeChibaBand(n, n, 0.1);
  const DtwResult r = DtwBanded(x, y, band);
  // Exactly the in-band cells plus the origin — Σ(hi−lo+1) storage.
  EXPECT_EQ(r.cells_allocated, band.CellCount() + 1);
  EXPECT_LT(r.cells_allocated, (n + 1) * (n + 1));
  EXPECT_TRUE(IsValidWarpPath(r.path, n, n));
}

TEST(DtwTest, FullKernelReportsFullGridAllocation) {
  const ts::TimeSeries x({1.0, 2.0, 3.0});
  const ts::TimeSeries y({1.0, 2.0});
  EXPECT_EQ(Dtw(x, y).cells_allocated, 4u * 3u);
}

TEST(EarlyAbandonTest, ReturnsDistanceWhenUnderThreshold) {
  const ts::TimeSeries x({0.0, 1.0, 2.0});
  const ts::TimeSeries y({0.0, 1.1, 2.2});
  const double d = DtwDistance(x, y);
  DtwScratch scratch;
  EXPECT_NEAR(DtwDistance(x, y, CostKind::kAbsolute, scratch, d + 1.0), d,
              1e-12);
}

TEST(EarlyAbandonTest, AbandonsWhenOverThreshold) {
  const ts::TimeSeries x = ts::TimeSeries::Constant(20, 0.0);
  const ts::TimeSeries y = ts::TimeSeries::Constant(20, 10.0);
  DtwScratch scratch;
  EXPECT_TRUE(
      std::isinf(DtwDistance(x, y, CostKind::kAbsolute, scratch, 1.0)));
}

TEST(WarpPathTest, ValidatorAcceptsCanonicalPath) {
  const std::vector<PathPoint> p{{0, 0}, {1, 1}, {2, 1}, {2, 2}};
  EXPECT_TRUE(IsValidWarpPath(p, 3, 3));
}

TEST(WarpPathTest, ValidatorRejectsBadStart) {
  const std::vector<PathPoint> p{{1, 0}, {2, 1}};
  EXPECT_FALSE(IsValidWarpPath(p, 3, 2));
}

TEST(WarpPathTest, ValidatorRejectsBadEnd) {
  const std::vector<PathPoint> p{{0, 0}, {1, 1}};
  EXPECT_FALSE(IsValidWarpPath(p, 3, 2));
}

TEST(WarpPathTest, ValidatorRejectsJumps) {
  const std::vector<PathPoint> p{{0, 0}, {2, 2}};
  EXPECT_FALSE(IsValidWarpPath(p, 3, 3));
}

TEST(WarpPathTest, ValidatorRejectsNonMonotone) {
  const std::vector<PathPoint> p{{0, 0}, {1, 1}, {0, 2}, {1, 2}, {2, 2}};
  EXPECT_FALSE(IsValidWarpPath(p, 3, 3));
}

TEST(WarpPathTest, ValidatorRejectsStall) {
  const std::vector<PathPoint> p{{0, 0}, {0, 0}, {1, 1}};
  EXPECT_FALSE(IsValidWarpPath(p, 2, 2));
}

TEST(WarpPathTest, PathLengthWithinBounds) {
  const ts::TimeSeries x({0.0, 5.0, 1.0, 4.0, 2.0, 3.0});
  const ts::TimeSeries y({1.0, 3.0, 2.0});
  const DtwResult r = Dtw(x, y);
  EXPECT_GE(r.path.size(), std::max(x.size(), y.size()));
  EXPECT_LE(r.path.size(), x.size() + y.size());
}


TEST(BandedEarlyAbandonTest, AgreesWhenUnderThreshold) {
  const ts::TimeSeries x({0.0, 1.0, 2.0, 1.0, 0.5});
  const ts::TimeSeries y({0.1, 0.9, 2.1, 1.2, 0.4});
  const Band band = SakoeChibaBand(5, 5, 0.4);
  const double d = DtwBandedDistance(x, y, band);
  DtwScratch scratch;
  EXPECT_NEAR(
      DtwBandedDistance(x, y, band, CostKind::kAbsolute, scratch, d + 1.0), d,
      1e-12);
}

TEST(BandedEarlyAbandonTest, AbandonsWhenOverThreshold) {
  const ts::TimeSeries x = ts::TimeSeries::Constant(30, 0.0);
  const ts::TimeSeries y = ts::TimeSeries::Constant(30, 5.0);
  const Band band = SakoeChibaBand(30, 30, 0.2);
  DtwScratch scratch;
  EXPECT_TRUE(std::isinf(
      DtwBandedDistance(x, y, band, CostKind::kAbsolute, scratch, 1.0)));
}

TEST(BandedEarlyAbandonTest, ThresholdIsInclusive) {
  const ts::TimeSeries x({0.0, 0.0});
  const ts::TimeSeries y({1.0, 1.0});
  const Band band = Band::Full(2, 2);
  const double d = DtwBandedDistance(x, y, band);  // = 2.0
  DtwScratch scratch;
  EXPECT_NEAR(DtwBandedDistance(x, y, band, CostKind::kAbsolute, scratch, d),
              d, 1e-12);
  EXPECT_TRUE(std::isinf(
      DtwBandedDistance(x, y, band, CostKind::kAbsolute, scratch, d - 0.5)));
}

TEST(BandedEarlyAbandonTest, ShapeMismatchGivesInfinity) {
  const ts::TimeSeries x({1.0, 2.0, 3.0});
  const ts::TimeSeries y({1.0, 2.0});
  DtwScratch scratch;
  EXPECT_TRUE(std::isinf(DtwBandedDistance(x, y, Band::Full(2, 2),
                                           CostKind::kAbsolute, scratch,
                                           100.0)));
}

TEST(DtwScratchTest, ReusedScratchMatchesFreshAllocationsBitwise) {
  // One scratch driven through every rolling kernel, against differently
  // sized inputs, in interleaved order — each result must equal the
  // allocation-owning kernel bit for bit (stale buffer contents must
  // never leak into a later call).
  const ts::TimeSeries a({0.3, 1.2, -0.5, 0.8, 0.0, 2.0, -1.1});
  const ts::TimeSeries b({0.1, 1.0, -0.2, 0.6, 0.4});
  const ts::TimeSeries c({2.0, -2.0, 2.0});
  const Band band_ab = SakoeChibaBand(a.size(), b.size(), 0.5);
  const Band band_ac = SakoeChibaBand(a.size(), c.size(), 0.8);
  DtwScratch scratch;
  EXPECT_EQ(DtwDistance(a, b, CostKind::kAbsolute, scratch),
            DtwDistance(a, b));
  EXPECT_EQ(DtwBandedDistance(a, c, band_ac, CostKind::kAbsolute, scratch),
            DtwBandedDistance(a, c, band_ac));
  EXPECT_EQ(DtwBandedDistance(a, b, band_ab, CostKind::kAbsolute, scratch),
            DtwBandedDistance(a, b, band_ab));
  EXPECT_EQ(DtwDistance(a, c, CostKind::kSquared, scratch),
            DtwDistance(a, c, CostKind::kSquared));
  const double d_ab = DtwDistance(a, b);
  EXPECT_EQ(DtwDistance(a, b, CostKind::kAbsolute, scratch, d_ab), d_ab);
  EXPECT_TRUE(std::isinf(
      DtwDistance(a, b, CostKind::kAbsolute, scratch, d_ab - 0.125)));
  const double banded_ab = DtwBandedDistance(a, b, band_ab);
  EXPECT_EQ(DtwBandedDistance(a, b, band_ab, CostKind::kAbsolute, scratch,
                              banded_ab),
            banded_ab);
}

TEST(DtwScratchTest, GrowsOnDemandAndNeverShrinks) {
  DtwScratch scratch;
  EXPECT_EQ(scratch.width(), 0u);
  scratch.EnsureWidth(8);
  EXPECT_EQ(scratch.width(), 8u);
  scratch.EnsureWidth(4);
  EXPECT_EQ(scratch.width(), 8u);
  const ts::TimeSeries x({1.0, 2.0, 3.0});
  EXPECT_EQ(DtwDistance(x, x, CostKind::kAbsolute, scratch), 0.0);
}

TEST(DtwScratchTest, GrowthMidDpKeepsThePredecessorRow) {
  // The first strip's rows are 3 cells wide and every later row spans the
  // grid, so a fresh scratch grows while the next strip's predecessor row
  // lives in it (under ASan, a lost row is a use-after-free).
  const std::size_t n = 40;
  const std::size_t m = 120;
  std::vector<double> xv(n);
  std::vector<double> yv(m);
  for (std::size_t i = 0; i < n; ++i) xv[i] = std::sin(0.3 * i);
  for (std::size_t j = 0; j < m; ++j) yv[j] = std::cos(0.1 * j);
  const ts::TimeSeries x(xv);
  const ts::TimeSeries y(yv);
  std::vector<BandRow> rows(n, BandRow{0, m - 1});
  for (std::size_t i = 0; i < 8; ++i) rows[i] = BandRow{i, i + 2};
  const Band band = Band::FromRows(rows, m);
  DtwScratch sized;
  sized.EnsureWidth(m + 1);
  for (const CostKind cost : {CostKind::kAbsolute, CostKind::kSquared}) {
    DtwScratch fresh;
    const double want =
        DtwBandedDistance(x, y, band, cost, sized);
    EXPECT_TRUE(std::isfinite(want));
    EXPECT_EQ(want, DtwBandedDistance(x, y, band, cost, fresh));
    DtwOptions options;
    options.cost = cost;
    EXPECT_EQ(want, DtwBanded(x, y, band, options).distance);
  }
}

TEST(MaxDpRowWidthTest, MatchesBandShape) {
  EXPECT_EQ(MaxDpRowWidth(Band::Full(4, 6)), 6u);
  // An empty band still needs the origin cell.
  std::vector<BandRow> rows(3, BandRow{2, 1});  // inverted = empty rows
  EXPECT_EQ(MaxDpRowWidth(Band::FromRows(rows, 5)), 1u);
  const Band sakoe = SakoeChibaBand(10, 10, 0.3);
  std::size_t expected = 1;
  for (std::size_t i = 0; i < sakoe.n(); ++i) {
    expected = std::max(expected, sakoe.row(i).width());
  }
  EXPECT_EQ(MaxDpRowWidth(sakoe), expected);
}

// The cells a DP pruned at `threshold` evaluates when it does not abandon:
// the scalar oracle's count, row by row over the band (row_kernel.h).
std::size_t OracleCells(const ts::TimeSeries& x, const ts::TimeSeries& y,
                        const Band& band, double threshold) {
  std::vector<double> prev = {0.0};
  std::size_t plo = 0;
  std::size_t phi = 0;
  std::size_t cells = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto [lo, hi] = DpWindow(band.row(i), y.size());
    std::vector<double> cur(lo <= hi ? hi - lo + 1 : 0);
    internal::FillBandRowScalar(prev.data(), plo, phi, cur.data(), lo, hi,
                                x[i], y.values().data(), AbsCost{}, &cells,
                                threshold);
    prev = std::move(cur);
    plo = lo;
    phi = hi;
  }
  return cells;
}

TEST(BandedPathEarlyAbandonTest, UnderThresholdIdenticalToDtwBanded) {
  const ts::TimeSeries x({0.3, 1.2, -0.5, 0.8, 0.0, 0.4, 1.3});
  const ts::TimeSeries y({0.1, 1.0, -0.2, 0.6, 0.2, 0.9});
  const Band band = SakoeChibaBand(x.size(), y.size(), 0.5);
  const DtwResult full = DtwBanded(x, y, band);
  // A threshold above the distance, and a NaN one (non-finite: never
  // abandons or prunes), leave the distance and path identical; the
  // cells are those the oracle counts at the threshold.
  for (const double threshold :
       {full.distance + 1.0, std::numeric_limits<double>::quiet_NaN()}) {
    const DtwResult ea = DtwBanded(x, y, band, {}, threshold);
    EXPECT_EQ(ea.distance, full.distance) << threshold;
    EXPECT_EQ(ea.path, full.path) << threshold;
    EXPECT_EQ(ea.cells_filled, OracleCells(x, y, band, threshold))
        << threshold;
  }
  EXPECT_EQ(full.cells_filled, OracleCells(x, y, band, kNoAbandon));
  // Inclusive threshold: exactly the distance still returns it.
  const DtwResult at = DtwBanded(x, y, band, {}, full.distance);
  EXPECT_EQ(at.distance, full.distance);
  EXPECT_EQ(at.path, full.path);
}

TEST(BandedPathEarlyAbandonTest, AbandonsWithEmptyPathAndFewerCells) {
  const ts::TimeSeries x({0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0});
  const ts::TimeSeries y({5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0});
  const Band band = Band::Full(x.size(), y.size());
  const DtwResult full = DtwBanded(x, y, band);
  // Threshold below the first row's minimum (5.0): gives up immediately.
  const DtwResult ea = DtwBanded(x, y, band, {}, 1.0);
  EXPECT_TRUE(std::isinf(ea.distance));
  EXPECT_TRUE(ea.path.empty());
  EXPECT_LT(ea.cells_filled, full.cells_filled);
}

TEST(BandedPathEarlyAbandonTest, FinalDistanceOverThresholdIsAbandoned) {
  // No single row exceeds the threshold early, but the final distance
  // does: the result must still be +infinity with no path.
  const ts::TimeSeries x({0.0, 1.0, 2.0, 3.0});
  const ts::TimeSeries y({0.0, 1.0, 2.0, 4.0});
  const Band band = Band::Full(4, 4);
  const double d = DtwBanded(x, y, band).distance;  // = 1.0
  const DtwResult ea = DtwBanded(x, y, band, {}, d * 0.5);
  EXPECT_TRUE(std::isinf(ea.distance));
  EXPECT_TRUE(ea.path.empty());
}

TEST(BandedPathEarlyAbandonTest, DistanceOnlyModeMatchesRollingKernel) {
  DtwOptions opt;
  opt.want_path = false;
  const ts::TimeSeries x({0.3, 1.2, -0.5, 0.8});
  const ts::TimeSeries y({0.1, 1.0, -0.2, 0.6});
  const Band band = Band::Full(4, 4);
  const double d = DtwBandedDistance(x, y, band);
  const DtwResult under = DtwBanded(x, y, band, opt, d);
  EXPECT_EQ(under.distance, d);
  EXPECT_TRUE(under.path.empty());
  EXPECT_TRUE(std::isinf(DtwBanded(x, y, band, opt, d - 0.25).distance));
}

}  // namespace
}  // namespace dtw
}  // namespace sdtw
