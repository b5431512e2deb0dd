// Bitwise-equivalence properties of the runtime-dispatched row-kernel
// variants (dtw/kernel_dispatch.h): every variant this host can run —
// portable always, avx2/avx512 when compiled in and CPU-supported — must
// be indistinguishable from the scalar reference and from every other
// variant in everything observable:
//  * strip level: each variant's dispatched strip fills reproduce
//    FillBandRowScalar row by row, bit for bit (cell values, row minima,
//    cell counts, +infinity in dead lanes), on random strips of every
//    shape (strip_harness.h), and pruned at thresholds that tie the
//    reference values, stop at the same step;
//  * library level: distances, warp paths, and cells_filled through
//    DtwOptions::kernel, and early-abandon decisions through a pinned
//    DtwScratch, identical across variants for thresholds straddling the
//    true distance;
//  * subsequence level: open-begin matches (distance, window, path)
//    through SubsequenceOptions::kernel;
//  * retrieval level: batch hit lists and alignment paths through
//    BatchOptions::kernel, multi-threaded.
// Variants absent on this host (e.g. AVX-512 on an AVX2-only machine) are
// skipped gracefully — SupportedRowKernels() simply does not list them;
// the dispatch unit tests pin the clear-error path for forcing them.

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <vector>

#include "data/extra_families.h"
#include "dtw/dtw.h"
#include "dtw/kernel_dispatch.h"
#include "dtw/subsequence.h"
#include "retrieval/batch.h"
#include "retrieval/knn.h"
#include "strip_harness.h"
#include "ts/random.h"

namespace sdtw {
namespace dtw {
namespace {

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

TEST(KernelDispatchProperty, EveryVariantMatchesScalarOnRandomWindows) {
  const std::vector<const RowKernelOps*> variants = SupportedRowKernels();
  ASSERT_FALSE(variants.empty());
  ts::Rng rng(20260807);
  for (int trial = 0; trial < 1500; ++trial) {
    const ts::TimeSeries y =
        RandomWalk(trial % 5 == 0 ? 1 + trial % 17 : 160, 7 + trial % 3);
    const StripCase c = RandomStrip(rng, y.size());
    const CostKind cost =
        trial % 2 == 0 ? CostKind::kAbsolute : CostKind::kSquared;
    for (const RowKernelOps* ops : variants) {
      CheckStrip(*ops, cost, c, y);
      if (HasFatalFailure()) {
        ADD_FAILURE() << "trial " << trial << " variant " << ops->name;
        return;
      }
    }
  }
}

TEST(KernelDispatchProperty, EveryVariantMatchesScalarOnPrunedStrips) {
  const std::vector<const RowKernelOps*> variants = SupportedRowKernels();
  ASSERT_FALSE(variants.empty());
  ts::Rng rng(20261020);
  for (int trial = 0; trial < 600; ++trial) {
    const ts::TimeSeries y =
        RandomWalk(trial % 5 == 0 ? 1 + trial % 17 : 160, 7 + trial % 3);
    const StripCase c = RandomStrip(rng, y.size());
    const CostKind cost =
        trial % 2 == 0 ? CostKind::kAbsolute : CostKind::kSquared;
    for (const double threshold : StripTieThresholds(cost, c, y)) {
      for (const RowKernelOps* ops : variants) {
        CheckStrip(*ops, cost, c, y, threshold);
        if (HasFatalFailure()) {
          ADD_FAILURE() << "trial " << trial << " variant " << ops->name
                        << " threshold " << threshold;
          return;
        }
      }
    }
  }
}

Band RandomFeasibleBand(std::size_t n, std::size_t m, ts::Rng& rng) {
  std::vector<BandRow> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t a = static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * m);
    const std::size_t b = static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * m);
    rows[i].lo = std::min(a, b);
    rows[i].hi = std::max(a, b);
  }
  Band band = Band::FromRows(std::move(rows), m);
  band.MakeFeasible();
  return band;
}

TEST(KernelDispatchProperty, DistancesPathsAndCellsIdenticalAcrossVariants) {
  const std::vector<const RowKernelOps*> variants = SupportedRowKernels();
  ts::Rng rng(424242);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n =
        3 + static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * 40);
    const std::size_t m =
        3 + static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * 40);
    const ts::TimeSeries x = RandomWalk(n, 9000 + trial);
    const ts::TimeSeries y = RandomWalk(m, 9500 + trial);
    const CostKind cost =
        trial % 2 == 0 ? CostKind::kAbsolute : CostKind::kSquared;
    const Band band = RandomFeasibleBand(n, m, rng);

    DtwOptions base;
    base.cost = cost;
    base.want_path = true;
    base.kernel = FindRowKernelOps(KernelVariant::kPortable);
    const DtwResult ref_banded = DtwBanded(x, y, band, base);
    const DtwResult ref_full = Dtw(x, y, base);

    for (const RowKernelOps* ops : variants) {
      DtwOptions options = base;
      options.kernel = ops;
      const DtwResult banded = DtwBanded(x, y, band, options);
      EXPECT_EQ(ref_banded.distance, banded.distance) << ops->name;
      EXPECT_EQ(ref_banded.cells_filled, banded.cells_filled) << ops->name;
      EXPECT_EQ(ref_banded.path, banded.path) << ops->name;
      const DtwResult full = Dtw(x, y, options);
      EXPECT_EQ(ref_full.distance, full.distance) << ops->name;
      EXPECT_EQ(ref_full.path, full.path) << ops->name;
    }
  }
}

TEST(KernelDispatchProperty, AbandonDecisionsIdenticalAcrossVariants) {
  const std::vector<const RowKernelOps*> variants = SupportedRowKernels();
  ts::Rng rng(31337);
  for (int trial = 0; trial < 150; ++trial) {
    const std::size_t n =
        2 + static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * 30);
    const std::size_t m =
        2 + static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * 30);
    const ts::TimeSeries x = RandomWalk(n, 7000 + trial);
    const ts::TimeSeries y = RandomWalk(m, 7500 + trial);
    const CostKind cost =
        trial % 2 == 0 ? CostKind::kAbsolute : CostKind::kSquared;
    const Band band = RandomFeasibleBand(n, m, rng);

    DtwScratch ref_scratch;
    ref_scratch.set_kernel(FindRowKernelOps(KernelVariant::kPortable));
    const double ref =
        DtwBandedDistance(x, y, band, cost, ref_scratch);
    ASSERT_TRUE(std::isfinite(ref));
    const double ref_full = DtwDistance(x, y, cost, ref_scratch);
    const double nudge = ref * 1e-12;
    const double thresholds[] = {ref,
                                 ref - nudge,
                                 ref + nudge,
                                 ref * 0.5,
                                 ref * 2.0 + 1.0,
                                 0.0,
                                 kNoAbandon,
                                 std::numeric_limits<double>::quiet_NaN()};
    // A non-finite threshold, or one at or above the distance, keeps the
    // non-abandoning distance bit for bit; anything else abandons.
    const auto expected = [](double distance, double threshold) {
      return !std::isfinite(threshold) || distance <= threshold
                 ? distance
                 : std::numeric_limits<double>::infinity();
    };
    for (const RowKernelOps* ops : variants) {
      DtwScratch scratch;
      scratch.set_kernel(ops);
      EXPECT_EQ(ref, DtwBandedDistance(x, y, band, cost, scratch))
          << ops->name;
      for (const double threshold : thresholds) {
        // Same decision AND same surviving bits as the portable variant.
        const double ref_ea =
            DtwBandedDistance(x, y, band, cost, ref_scratch, threshold);
        const double got_ea =
            DtwBandedDistance(x, y, band, cost, scratch, threshold);
        EXPECT_EQ(ref_ea, got_ea) << ops->name << " thr " << threshold;
        EXPECT_EQ(expected(ref, threshold), got_ea)
            << ops->name << " thr " << threshold;
        const double ref_full_ea =
            DtwDistance(x, y, cost, ref_scratch, threshold);
        const double got_full_ea =
            DtwDistance(x, y, cost, scratch, threshold);
        EXPECT_EQ(ref_full_ea, got_full_ea)
            << ops->name << " thr " << threshold;
        EXPECT_EQ(expected(ref_full, threshold), got_full_ea)
            << ops->name << " thr " << threshold;
      }
    }
  }
}

TEST(KernelDispatchProperty, SubsequenceMatchesIdenticalAcrossVariants) {
  const std::vector<const RowKernelOps*> variants = SupportedRowKernels();
  ts::Rng rng(777);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n =
        3 + static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * 20);
    const std::size_t m =
        n + static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * 80);
    const ts::TimeSeries query = RandomWalk(n, 3000 + trial);
    const ts::TimeSeries series = RandomWalk(m, 3500 + trial);

    SubsequenceOptions base;
    base.cost = trial % 2 == 0 ? CostKind::kAbsolute : CostKind::kSquared;
    base.want_path = true;
    base.kernel = FindRowKernelOps(KernelVariant::kPortable);
    const SubsequenceMatch ref = FindBestSubsequence(query, series, base);

    for (const RowKernelOps* ops : variants) {
      SubsequenceOptions options = base;
      options.kernel = ops;
      const SubsequenceMatch got = FindBestSubsequence(query, series, options);
      EXPECT_EQ(ref.distance, got.distance) << ops->name;
      EXPECT_EQ(ref.begin, got.begin) << ops->name;
      EXPECT_EQ(ref.end, got.end) << ops->name;
      EXPECT_EQ(ref.path, got.path) << ops->name;
    }
  }
}

TEST(KernelDispatchProperty, BatchHitsAndAlignmentsIdenticalAcrossVariants) {
  const std::vector<const RowKernelOps*> variants = SupportedRowKernels();
  data::GeneratorOptions gen;
  gen.num_series = 12;
  gen.length = 64;
  const ts::Dataset ds = data::MakeCbf(gen);
  std::vector<ts::TimeSeries> queries(ds.begin(), ds.begin() + 4);

  for (const retrieval::DistanceKind distance :
       {retrieval::DistanceKind::kSdtw, retrieval::DistanceKind::kFullDtw}) {
    retrieval::KnnOptions opt;
    opt.distance = distance;
    retrieval::KnnEngine engine(opt);
    engine.Index(ds);

    retrieval::BatchOptions ref_options;
    ref_options.num_threads = 2;
    ref_options.kernel = FindRowKernelOps(KernelVariant::kPortable);
    const retrieval::BatchKnnEngine ref_engine(engine, ref_options);
    const auto ref_hits = ref_engine.QueryBatch(queries, 3);
    const auto ref_aligned = ref_engine.QueryBatchWithAlignments(queries, 3);

    for (const RowKernelOps* ops : variants) {
      retrieval::BatchOptions options = ref_options;
      options.kernel = ops;
      const retrieval::BatchKnnEngine batch(engine, options);
      const auto hits = batch.QueryBatch(queries, 3);
      ASSERT_EQ(ref_hits.size(), hits.size()) << ops->name;
      for (std::size_t q = 0; q < hits.size(); ++q) {
        ASSERT_EQ(ref_hits[q].size(), hits[q].size()) << ops->name;
        for (std::size_t r = 0; r < hits[q].size(); ++r) {
          EXPECT_EQ(ref_hits[q][r].index, hits[q][r].index) << ops->name;
          EXPECT_EQ(ref_hits[q][r].distance, hits[q][r].distance)
              << ops->name;  // bitwise
        }
      }
      const auto aligned = batch.QueryBatchWithAlignments(queries, 3);
      ASSERT_EQ(ref_aligned.size(), aligned.size()) << ops->name;
      for (std::size_t q = 0; q < aligned.size(); ++q) {
        ASSERT_EQ(ref_aligned[q].size(), aligned[q].size()) << ops->name;
        for (std::size_t r = 0; r < aligned[q].size(); ++r) {
          EXPECT_EQ(ref_aligned[q][r].hit.distance,
                    aligned[q][r].hit.distance)
              << ops->name;
          EXPECT_EQ(ref_aligned[q][r].path, aligned[q][r].path) << ops->name;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dtw
}  // namespace sdtw
