// Kernel micro-benchmarks (google-benchmark): throughput of the DTW DP
// kernels, band construction, feature extraction and matching — the raw
// primitives behind the table/figure benches.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "align/consistency.h"
#include "align/match_kernel.h"
#include "align/matching.h"
#include "bench_common.h"
#include "core/sdtw.h"
#include "data/generators.h"
#include "dtw/band_matrix.h"
#include "dtw/dtw.h"
#include "dtw/lower_bounds.h"
#include "dtw/multiscale.h"
#include "dtw/row_kernel.h"
#include "sift/extractor.h"
#include "sift/feature_block.h"
#include "ts/random.h"
#include "ts/transforms.h"

namespace {

using namespace sdtw;

ts::TimeSeries MakeSeries(std::size_t n, std::uint64_t seed) {
  ts::Rng rng(seed);
  return ts::ZNormalize(data::patterns::RandomSmooth(n, 12, rng));
}

void BM_DtwFull(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ts::TimeSeries x = MakeSeries(n, 1);
  const ts::TimeSeries y = MakeSeries(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::DtwDistance(x, y));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_DtwFull)->Arg(128)->Arg(256)->Arg(512);

void BM_DtwFullWithPath(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ts::TimeSeries x = MakeSeries(n, 1);
  const ts::TimeSeries y = MakeSeries(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::Dtw(x, y).distance);
  }
}
BENCHMARK(BM_DtwFullWithPath)->Arg(128)->Arg(256);

void BM_DtwSakoeChiba(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const double w = static_cast<double>(state.range(1)) / 100.0;
  const ts::TimeSeries x = MakeSeries(n, 1);
  const ts::TimeSeries y = MakeSeries(n, 2);
  const dtw::Band band = dtw::SakoeChibaBand(n, n, w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::DtwBandedDistance(x, y, band));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(band.CellCount()));
}
BENCHMARK(BM_DtwSakoeChiba)
    ->Args({256, 6})
    ->Args({256, 10})
    ->Args({256, 20})
    ->Args({512, 10});

// The fixed-half-width diagonal band (bench::FixedWidthDiagonalBand) is
// the regime where band-compressed storage matters: the band area grows
// linearly in n while the grid grows quadratically.
using bench::FixedWidthDiagonalBand;

// Distance-only banded DP over a narrow fixed-width band at growing n.
// With band-compressed rolling rows, time per item (= per band cell)
// should stay flat as n grows; an O(n*m) buffer would make it grow
// linearly with n.
void BM_DtwBandedNarrowDistance(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ts::TimeSeries x = MakeSeries(n, 1);
  const ts::TimeSeries y = MakeSeries(n, 2);
  const dtw::Band band = FixedWidthDiagonalBand(n, n, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::DtwBandedDistance(x, y, band));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(band.CellCount()));
}
BENCHMARK(BM_DtwBandedNarrowDistance)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384);

// One row per runnable SIMD variant (portable always, avx2/avx512 when
// the binary and CPU both have them), pinned through DtwScratch so the
// runtime dispatcher's choice is taken out of the measurement. The plain
// BM_DtwBandedNarrowDistance rows above show the dispatched default;
// these rows show what each ISA level buys on this machine.
void BM_DtwBandedNarrowDistanceVariant(benchmark::State& state,
                                       const dtw::RowKernelOps* ops) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ts::TimeSeries x = MakeSeries(n, 1);
  const ts::TimeSeries y = MakeSeries(n, 2);
  const dtw::Band band = FixedWidthDiagonalBand(n, n, 16);
  dtw::DtwScratch scratch;
  scratch.set_kernel(ops);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dtw::DtwBandedDistance(x, y, band, dtw::CostKind::kAbsolute, scratch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(band.CellCount()));
}

const bool kVariantRowsRegistered = [] {
  for (const dtw::RowKernelOps* ops : dtw::SupportedRowKernels()) {
    const std::string name =
        std::string("BM_DtwBandedNarrowDistance/kernel:") + ops->name;
    benchmark::RegisterBenchmark(name.c_str(),
                                 BM_DtwBandedNarrowDistanceVariant, ops)
        ->Arg(1024)
        ->Arg(4096);
  }
  return true;
}();

// The retained scalar row kernel driven over the same narrow bands — the
// pre-vectorisation baseline, kept measurable so the strip kernel's
// speedup (README "Runtime kernel dispatch" table) can be re-derived on
// any machine. Distances are bitwise identical to
// BM_DtwBandedNarrowDistance by the row_kernel property suite.
void BM_DtwBandedNarrowDistanceScalarRef(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ts::TimeSeries x = MakeSeries(n, 1);
  const ts::TimeSeries y = MakeSeries(n, 2);
  const dtw::Band band = FixedWidthDiagonalBand(n, n, 16);
  const std::size_t m = y.size();
  const std::size_t width = dtw::MaxDpRowWidth(band);
  std::vector<double> prev_buf(width + 1), cur_buf(width + 1);
  for (auto _ : state) {
    double* prev = prev_buf.data();
    double* cur = cur_buf.data();
    std::size_t plo = 0;
    std::size_t phi = 0;
    prev[0] = 0.0;
    for (std::size_t i = 1; i <= n; ++i) {
      const auto [clo, chi] = dtw::DpWindow(band.row(i - 1), m);
      if (clo <= chi) {
        // cells = nullptr exactly like the strip comparison target
        // (DtwBandedDistance skips counting), so neither side pays
        // per-cell counting the other does not.
        dtw::internal::FillBandRowScalar(prev, plo, phi, cur, clo, chi,
                                         x[i - 1], y.values().data(),
                                         dtw::AbsCost{}, nullptr);
      }
      std::swap(prev, cur);
      plo = clo;
      phi = chi;
    }
    benchmark::DoNotOptimize(prev[m - plo]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(band.CellCount()));
}
BENCHMARK(BM_DtwBandedNarrowDistanceScalarRef)->Arg(1024)->Arg(4096);

// Early-abandoning DPs, the cascade's hot path: the full grid and the
// narrow band above, each given a threshold of the pair's exact distance
// times Arg 1 / 100 — at 100 the DP completes and prunes every cell above
// the distance, at 50 it abandons. Items are the window cells of the
// threshold-free DP, so cells/s compares with the rows above; `evaluated`
// is the share of them the pruned DP stepped through.
void BM_DtwFullAbandon(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ts::TimeSeries x = MakeSeries(n, 1);
  const ts::TimeSeries y = MakeSeries(n, 2);
  const double threshold =
      dtw::DtwDistance(x, y) * static_cast<double>(state.range(1)) / 100.0;
  dtw::DtwScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::DtwDistance(
        x, y, dtw::CostKind::kAbsolute, scratch, threshold));
  }
  state.counters["evaluated"] = static_cast<double>(scratch.dp_cells()) /
                                static_cast<double>(n * n);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_DtwFullAbandon)
    ->Args({128, 100})
    ->Args({128, 50})
    ->Args({256, 100})
    ->Args({256, 50});

void BM_DtwBandedNarrowAbandon(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ts::TimeSeries x = MakeSeries(n, 1);
  const ts::TimeSeries y = MakeSeries(n, 2);
  const dtw::Band band = FixedWidthDiagonalBand(n, n, 16);
  const double threshold = dtw::DtwBandedDistance(x, y, band) *
                           static_cast<double>(state.range(1)) / 100.0;
  dtw::DtwScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::DtwBandedDistance(
        x, y, band, dtw::CostKind::kAbsolute, scratch, threshold));
  }
  state.counters["evaluated"] = static_cast<double>(scratch.dp_cells()) /
                                static_cast<double>(band.CellCount());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(band.CellCount()));
}
BENCHMARK(BM_DtwBandedNarrowAbandon)
    ->Args({128, 100})
    ->Args({128, 50})
    ->Args({256, 100})
    ->Args({256, 50});

// Path-preserving banded DP on the same narrow bands: storage is
// Σ band-row widths (~33 n doubles), so n = 16384 stays in the ~4 MB
// range instead of the 2 GB a full (n+1)^2 matrix would need.
void BM_DtwBandedNarrowPath(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ts::TimeSeries x = MakeSeries(n, 1);
  const ts::TimeSeries y = MakeSeries(n, 2);
  const dtw::Band band = FixedWidthDiagonalBand(n, n, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::DtwBanded(x, y, band).path.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(band.CellCount()));
}
BENCHMARK(BM_DtwBandedNarrowPath)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_SdtwBandedCompare(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ts::TimeSeries x = MakeSeries(n, 1);
  const ts::TimeSeries y = MakeSeries(n, 2);
  core::SdtwOptions opt;
  opt.constraint.type = core::ConstraintType::kAdaptiveCoreAdaptiveWidth;
  opt.dtw.want_path = false;
  core::Sdtw engine(opt);
  const auto fx = engine.ExtractFeatures(x);
  const auto fy = engine.ExtractFeatures(y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Compare(x, fx, y, fy).distance);
  }
}
BENCHMARK(BM_SdtwBandedCompare)->Arg(128)->Arg(256)->Arg(512);

void BM_FeatureExtraction(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ts::TimeSeries x = MakeSeries(n, 3);
  sift::SalientExtractor extractor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(x).size());
  }
}
BENCHMARK(BM_FeatureExtraction)->Arg(150)->Arg(275)->Arg(1024);

void BM_MatchingAndPruning(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ts::TimeSeries x = MakeSeries(n, 4);
  const ts::TimeSeries y = MakeSeries(n, 5);
  sift::SalientExtractor extractor;
  const auto fx = extractor.Extract(x);
  const auto fy = extractor.Extract(y);
  for (auto _ : state) {
    const auto pairs = align::FindDominantPairs(fx, fy);
    benchmark::DoNotOptimize(
        align::PruneInconsistent(x, y, fx, fy, pairs).size());
  }
}
BENCHMARK(BM_MatchingAndPruning)->Arg(150)->Arg(275)->Arg(1024);

// Seeded corpora for the per-variant matching and band-build cases: the
// knn workloads' TraceLike family at length 128 (about 13 keypoints per
// series) and the pairwise workload's WordsLike family at length 270
// (about 27). An iteration times every ordered pair of distinct series in
// turn, so the branch predictor cannot learn one pair, as it can in
// BM_MatchingAndPruning.
struct MatchCorpus {
  std::vector<ts::TimeSeries> series;
  std::vector<sift::FeatureBlock> blocks;
  std::size_t pairs() const { return series.size() * (series.size() - 1); }
};

const MatchCorpus& TheMatchCorpus(bool words) {
  const auto build = [](bool words_like) {
    data::GeneratorOptions options;
    options.length = words_like ? 270 : 128;
    options.num_series = 48;
    options.seed = 17;
    const ts::Dataset ds = words_like ? data::MakeWordsLike(options)
                                      : data::MakeTraceLike(options);
    const core::Sdtw engine;
    MatchCorpus c;
    for (const ts::TimeSeries& s : ds) {
      c.series.push_back(s);
      c.blocks.emplace_back(engine.ExtractFeatures(s), s);
    }
    return c;
  };
  static const MatchCorpus trace_like = build(false);
  static const MatchCorpus words_like = build(true);
  return words ? words_like : trace_like;
}

// Runs fn(x, y) on every ordered pair of the corpus, and reports the time
// per pair as `pair_us`.
template <typename Fn>
void EveryPair(benchmark::State& state, const MatchCorpus& c, Fn&& fn) {
  for (auto _ : state) {
    for (std::size_t x = 0; x < c.series.size(); ++x) {
      for (std::size_t y = 0; y < c.series.size(); ++y) {
        if (x != y) fn(x, y);
      }
    }
  }
  state.counters["pair_us"] = benchmark::Counter(
      static_cast<double>(c.pairs()) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_FindDominantPairsVariant(benchmark::State& state, bool words,
                                 const align::MatchKernelOps* ops) {
  const MatchCorpus& c = TheMatchCorpus(words);
  const align::MatchingOptions options;
  align::MatchScratch scratch;
  scratch.kernel = ops;
  std::vector<align::MatchPair> pairs;
  EveryPair(state, c, [&](std::size_t x, std::size_t y) {
    align::FindDominantPairs(c.blocks[x], c.blocks[y], options,
                             c.series[x].size(), c.series[y].size(), scratch,
                             &pairs);
    benchmark::DoNotOptimize(pairs.data());
  });
}

void BM_BuildBandVariant(benchmark::State& state, bool words,
                         const align::MatchKernelOps* ops) {
  const MatchCorpus& c = TheMatchCorpus(words);
  const core::Sdtw engine;
  core::BandScratch scratch;
  scratch.match.kernel = ops;
  EveryPair(state, c, [&](std::size_t x, std::size_t y) {
    benchmark::DoNotOptimize(
        engine.BuildBand(c.series[x], c.blocks[x], c.series[y], c.blocks[y],
                         scratch)
            .CellCount());
  });
}

const bool kMatchRowsRegistered = [] {
  for (const align::MatchKernelOps* ops : align::SupportedMatchKernels()) {
    for (const bool words : {false, true}) {
      const std::string suffix =
          std::string(words ? "/words270" : "/trace128") + "/kernel:" +
          ops->name;
      benchmark::RegisterBenchmark(
          ("BM_FindDominantPairs" + suffix).c_str(),
          BM_FindDominantPairsVariant, words, ops);
      benchmark::RegisterBenchmark(("BM_BuildBand" + suffix).c_str(),
                                   BM_BuildBandVariant, words, ops);
    }
  }
  return true;
}();

// Feature extraction over every series of a corpus in turn, so the branch
// predictor cannot learn one series, as it can in BM_FeatureExtraction;
// `series_us` is microseconds per series.
void BM_ExtractCorpus(benchmark::State& state, bool words) {
  const MatchCorpus& c = TheMatchCorpus(words);
  const core::Sdtw engine;
  for (auto _ : state) {
    for (const ts::TimeSeries& s : c.series) {
      benchmark::DoNotOptimize(engine.ExtractFeatures(s).data());
    }
  }
  state.counters["series_us"] = benchmark::Counter(
      static_cast<double>(c.series.size()) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_ExtractCorpus, trace128, false);
BENCHMARK_CAPTURE(BM_ExtractCorpus, words270, true);

void BM_BandConstruction(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ts::TimeSeries x = MakeSeries(n, 6);
  const ts::TimeSeries y = MakeSeries(n, 7);
  core::Sdtw engine;
  const auto fx = engine.ExtractFeatures(x);
  const auto fy = engine.ExtractFeatures(y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.BuildBand(x, fx, y, fy).CellCount());
  }
}
BENCHMARK(BM_BandConstruction)->Arg(150)->Arg(512);

void BM_LbKeogh(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ts::TimeSeries x = MakeSeries(n, 8);
  const ts::TimeSeries y = MakeSeries(n, 9);
  const dtw::Envelope env = dtw::MakeEnvelope(y, n / 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::LbKeogh(x, env));
  }
}
BENCHMARK(BM_LbKeogh)->Arg(256)->Arg(1024);

void BM_MultiscaleDtw(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ts::TimeSeries x = MakeSeries(n, 10);
  const ts::TimeSeries y = MakeSeries(n, 11);
  dtw::MultiscaleOptions opt;
  opt.want_path = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::MultiscaleDtw(x, y, opt).distance);
  }
}
BENCHMARK(BM_MultiscaleDtw)->Arg(256)->Arg(1024);

}  // namespace
