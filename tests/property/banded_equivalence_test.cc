// Equivalence properties of the band-compressed banded DTW kernels:
//  * a full-width band must reproduce full DTW exactly — distance, path,
//    and cells_filled;
//  * narrow bands must be indistinguishable from the previous
//    full-matrix implementation (kept here as the reference);
//  * the rolling distance-only kernel must agree with the path-preserving
//    one, and allocation must track the band, not the grid.
// Swept over random series of lengths 1..64 including n != m edge cases.

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "dtw/dtw.h"
#include "ts/random.h"

namespace sdtw {
namespace dtw {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ts::TimeSeries RandomWalk(std::size_t n, std::uint64_t seed) {
  ts::Rng rng(seed);
  std::vector<double> v(n);
  double x = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x += rng.Gaussian(0.0, 0.5);
    v[i] = x;
  }
  return ts::TimeSeries(std::move(v));
}

// The pre-band-compression banded DP, verbatim: materialises the full
// (n+1) x (m+1) matrix and backtracks through it. The storage rewrite must
// be observationally identical to this.
DtwResult ReferenceBanded(const ts::TimeSeries& x, const ts::TimeSeries& y,
                          const Band& band, bool want_path, CostKind cost) {
  DtwResult result;
  const std::size_t n = x.size();
  const std::size_t m = y.size();
  if (n == 0 || m == 0 || band.n() != n || band.m() != m) return result;
  const std::size_t stride = m + 1;
  std::vector<double> d((n + 1) * stride, kInf);
  d[0] = 0.0;
  std::size_t cells = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    const BandRow& r = band.row(i - 1);
    if (r.lo > r.hi) continue;
    const double xi = x[i - 1];
    double* row = d.data() + i * stride;
    const double* prev = d.data() + (i - 1) * stride;
    for (std::size_t j = r.lo + 1; j <= r.hi + 1 && j <= m; ++j) {
      const double best = std::min({prev[j], row[j - 1], prev[j - 1]});
      if (!std::isfinite(best)) continue;
      row[j] = best + EvalCost(cost, xi, y[j - 1]);
      ++cells;
    }
  }
  result.cells_filled = cells;
  result.distance = d[n * stride + m];
  if (want_path && std::isfinite(result.distance)) {
    auto at = [&](std::size_t i, std::size_t j) { return d[i * stride + j]; };
    std::size_t i = n;
    std::size_t j = m;
    result.path.emplace_back(i - 1, j - 1);
    while (i > 1 || j > 1) {
      double best = kInf;
      int move = 0;
      if (i > 1 && j > 1 && at(i - 1, j - 1) < best) {
        best = at(i - 1, j - 1);
        move = 0;
      }
      if (i > 1 && at(i - 1, j) < best) {
        best = at(i - 1, j);
        move = 1;
      }
      if (j > 1 && at(i, j - 1) < best) {
        best = at(i, j - 1);
        move = 2;
      }
      if (!std::isfinite(best)) {
        result.path.clear();
        break;
      }
      if (move == 0) {
        --i;
        --j;
      } else if (move == 1) {
        --i;
      } else {
        --j;
      }
      result.path.emplace_back(i - 1, j - 1);
    }
    std::reverse(result.path.begin(), result.path.end());
  }
  return result;
}

struct Lengths {
  std::size_t n;
  std::size_t m;
  std::uint64_t seed;
};

class BandedEquivalenceTest : public ::testing::TestWithParam<Lengths> {};

TEST_P(BandedEquivalenceTest, FullWidthBandMatchesFullDtw) {
  const Lengths p = GetParam();
  const ts::TimeSeries x = RandomWalk(p.n, p.seed);
  const ts::TimeSeries y = RandomWalk(p.m, p.seed + 100);
  // Radius >= max(n, m): every grid cell is in-band.
  for (const Band& band :
       {Band::Full(p.n, p.m), SakoeChibaBand(p.n, p.m, 2.0)}) {
    const DtwResult full = Dtw(x, y);
    const DtwResult banded = DtwBanded(x, y, band);
    EXPECT_DOUBLE_EQ(banded.distance, full.distance);
    EXPECT_EQ(banded.path, full.path);
    EXPECT_EQ(banded.cells_filled, full.cells_filled);
    EXPECT_EQ(banded.cells_filled, p.n * p.m);
  }
}

TEST_P(BandedEquivalenceTest, NarrowBandsMatchReferenceImplementation) {
  const Lengths p = GetParam();
  const ts::TimeSeries x = RandomWalk(p.n, p.seed + 1);
  const ts::TimeSeries y = RandomWalk(p.m, p.seed + 101);
  std::vector<Band> bands;
  for (double w : {0.0, 0.08, 0.25}) {
    bands.push_back(SakoeChibaBand(p.n, p.m, w));
  }
  bands.push_back(ItakuraBand(p.n, p.m, 2.0));
  for (CostKind cost : {CostKind::kAbsolute, CostKind::kSquared}) {
    DtwOptions opt;
    opt.cost = cost;
    for (const Band& band : bands) {
      const DtwResult ref = ReferenceBanded(x, y, band, true, cost);
      const DtwResult got = DtwBanded(x, y, band, opt);
      EXPECT_DOUBLE_EQ(got.distance, ref.distance);
      EXPECT_EQ(got.path, ref.path);
      EXPECT_EQ(got.cells_filled, ref.cells_filled);
    }
  }
}

TEST_P(BandedEquivalenceTest, RollingDistanceMatchesPathVariant) {
  const Lengths p = GetParam();
  const ts::TimeSeries x = RandomWalk(p.n, p.seed + 2);
  const ts::TimeSeries y = RandomWalk(p.m, p.seed + 102);
  for (double w : {0.0, 0.1, 0.5}) {
    const Band band = SakoeChibaBand(p.n, p.m, w);
    const DtwResult withpath = DtwBanded(x, y, band);
    EXPECT_DOUBLE_EQ(DtwBandedDistance(x, y, band), withpath.distance);
    // A threshold above the distance must not abandon.
    DtwScratch scratch;
    EXPECT_DOUBLE_EQ(DtwBandedDistance(x, y, band, CostKind::kAbsolute,
                                       scratch, withpath.distance + 1.0),
                     withpath.distance);
    // Distance-only mode fills the same cells as the path mode.
    DtwOptions no_path;
    no_path.want_path = false;
    const DtwResult rolling = DtwBanded(x, y, band, no_path);
    EXPECT_DOUBLE_EQ(rolling.distance, withpath.distance);
    EXPECT_EQ(rolling.cells_filled, withpath.cells_filled);
    EXPECT_TRUE(rolling.path.empty());
  }
}

TEST_P(BandedEquivalenceTest, AllocationTracksBandNotGrid) {
  const Lengths p = GetParam();
  const ts::TimeSeries x = RandomWalk(p.n, p.seed + 3);
  const ts::TimeSeries y = RandomWalk(p.m, p.seed + 103);
  const Band band = SakoeChibaBand(p.n, p.m, 0.1);
  std::size_t max_width = 0;
  for (std::size_t i = 0; i < band.n(); ++i) {
    max_width = std::max(max_width, band.row(i).width());
  }
  // Path-preserving: exactly the in-band cells plus the origin cell.
  const DtwResult withpath = DtwBanded(x, y, band);
  EXPECT_EQ(withpath.cells_allocated, band.CellCount() + 1);
  // Distance-only: two rolling rows of the widest band row.
  DtwOptions no_path;
  no_path.want_path = false;
  const DtwResult rolling = DtwBanded(x, y, band, no_path);
  EXPECT_LE(rolling.cells_allocated, 2 * std::max<std::size_t>(max_width, 1));
}

INSTANTIATE_TEST_SUITE_P(
    LengthSweep, BandedEquivalenceTest,
    ::testing::Values(Lengths{1, 1, 1}, Lengths{1, 7, 2}, Lengths{7, 1, 3},
                      Lengths{2, 2, 4}, Lengths{2, 64, 5}, Lengths{64, 2, 6},
                      Lengths{5, 9, 7}, Lengths{16, 16, 8},
                      Lengths{17, 33, 9}, Lengths{33, 17, 10},
                      Lengths{31, 29, 11}, Lengths{48, 64, 12},
                      Lengths{64, 48, 13}, Lengths{64, 64, 14}),
    [](const ::testing::TestParamInfo<Lengths>& info) {
      return "n" + std::to_string(info.param.n) + "_m" +
             std::to_string(info.param.m) + "_s" +
             std::to_string(info.param.seed);
    });

// Infeasible bands (gaps the DP cannot bridge) must behave exactly like
// the reference implementation too: +inf distance, empty path.
TEST(BandedEquivalenceEdgeTest, InfeasibleBandMatchesReference) {
  const ts::TimeSeries x = RandomWalk(6, 42);
  const ts::TimeSeries y = RandomWalk(6, 43);
  // A band with a hard horizontal gap: rows 0-2 stuck at columns [0,1],
  // rows 3-5 at columns [4,5] — no monotone step connects column 1 to 4.
  std::vector<BandRow> rows(6);
  for (std::size_t i = 0; i < 3; ++i) rows[i] = BandRow{0, 1};
  for (std::size_t i = 3; i < 6; ++i) rows[i] = BandRow{4, 5};
  const Band band = Band::FromRows(std::move(rows), 6);
  const DtwResult ref =
      ReferenceBanded(x, y, band, true, CostKind::kAbsolute);
  const DtwResult got = DtwBanded(x, y, band);
  EXPECT_DOUBLE_EQ(got.distance, ref.distance);
  EXPECT_TRUE(std::isinf(got.distance));
  EXPECT_EQ(got.path, ref.path);
  EXPECT_EQ(got.cells_filled, ref.cells_filled);
  EXPECT_DOUBLE_EQ(DtwBandedDistance(x, y, band), ref.distance);
}

// Bands with inverted (empty) rows — produced by IntersectWith before
// MakeFeasible — must also match the reference.
TEST(BandedEquivalenceEdgeTest, EmptyRowsMatchReference) {
  const ts::TimeSeries x = RandomWalk(5, 44);
  const ts::TimeSeries y = RandomWalk(5, 45);
  std::vector<BandRow> rows(5, BandRow{0, 4});
  rows[2] = BandRow{3, 1};  // inverted: stores nothing
  const Band band = Band::FromRows(std::move(rows), 5);
  const DtwResult ref =
      ReferenceBanded(x, y, band, true, CostKind::kAbsolute);
  const DtwResult got = DtwBanded(x, y, band);
  EXPECT_DOUBLE_EQ(got.distance, ref.distance);
  EXPECT_EQ(got.path, ref.path);
  EXPECT_EQ(got.cells_filled, ref.cells_filled);
  EXPECT_DOUBLE_EQ(DtwBandedDistance(x, y, band), ref.distance);
}

}  // namespace
}  // namespace dtw
}  // namespace sdtw
