// pairwise_sdtw: the paper's own use, computing sDTW distance matrices
// (eval::ComputeSdtwMatrix, serial, default ac,aw options) over WordsLike.
// Each timed operation is the matrix of one block of series drawn from
// the 450-series set, so a run yields many latency samples; the matrix
// work per pair is that of the full set. No retrieval layer is involved.

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common.h"
#include "core/sdtw.h"
#include "data/generators.h"
#include "dtw/dtw.h"
#include "eval/experiment.h"
#include "probes.h"
#include "ts/random.h"

namespace sdtwbench {

namespace {

using sdtw::ts::Dataset;
using sdtw::ts::TimeSeries;

struct Scale {
  std::size_t series;
  std::size_t length;
  std::size_t block;
  std::size_t min_blocks;
  std::size_t checked_pairs;   ///< Per block, against Sdtw::Compare.
  std::size_t overlap_blocks;  ///< Blocks scored against full DTW.
  std::size_t probe_pairs;
};

// The overlap is scored over the first five blocks, one full round of the
// set; two blocks left it spreading by 3% from seed to seed.
constexpr Scale kFull{450, 270, 90, 4, 8, 5, 2000};
constexpr Scale kSmoke{60, 48, 20, 2, 4, 1, 40};

// Counts the entries of one block's matrix that break its contract:
// non-finite, asymmetric or non-zero-diagonal cells, and sampled pairs
// that differ from a direct Sdtw::Compare or undercut full DTW.
std::size_t CheckBlock(const Dataset& block,
                       const sdtw::eval::DistanceMatrix& m,
                       const sdtw::core::Sdtw& checker, std::size_t samples,
                       std::uint64_t seed) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < m.n; ++i) {
    bad += m.At(i, i) != 0.0;
    for (std::size_t j = i + 1; j < m.n; ++j) {
      bad += !std::isfinite(m.At(i, j)) || m.At(i, j) != m.At(j, i);
    }
  }
  sdtw::ts::Rng rng(seed);
  const auto pick = [&] {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(m.n) - 1));
  };
  for (std::size_t s = 0; s < samples; ++s) {
    // sDTW is asymmetric (the band follows X's intervals); the matrix
    // holds Compare(i, j) for i < j and mirrors it.
    const std::size_t a = pick();
    const std::size_t b = pick();
    if (a == b) continue;
    const std::size_t i = std::min(a, b);
    const std::size_t j = std::max(a, b);
    const TimeSeries& x = block[i];
    const TimeSeries& y = block[j];
    const double d = checker
                         .Compare(x, checker.ExtractFeatures(x), y,
                                  checker.ExtractFeatures(y))
                         .distance;
    bad += d != m.At(i, j) || d < sdtw::dtw::DtwDistance(x, y);
  }
  return bad;
}

}  // namespace

void RunPairwise(const Config& config, Report& report, Tracer& tracer) {
  const Scale& scale = config.smoke ? kSmoke : kFull;
  sdtw::data::GeneratorOptions data_options;
  data_options.length = scale.length;
  data_options.num_series = scale.series;
  data_options.seed = StreamSeed(config.seed, 2);
  const Dataset data = sdtw::data::MakeWordsLike(data_options);
  const sdtw::core::SdtwOptions options;  // ac,aw, absolute cost

  // Set-up: the one-time per-series feature extraction (paper §3.4).
  MeasureSetup(report, [&] {
    const auto t0 = Clock::now();
    const sdtw::core::Sdtw engine(options);
    std::size_t keypoints = 0;
    for (const TimeSeries& s : data) {
      keypoints += engine.ExtractFeatures(s).size();
    }
    const double seconds = SecondsSince(t0);
    report.Check(keypoints > 0, "feature extraction finds keypoints");
    return seconds;
  });

  // Blocks are consecutive slices of a seeded permutation of the set; a
  // new permutation starts once a round has covered every series.
  const std::size_t per_round = scale.series / scale.block;
  std::vector<std::size_t> order(scale.series);
  const auto make_block = [&](std::size_t b) {
    if (b % per_round == 0) {
      std::iota(order.begin(), order.end(), std::size_t{0});
      sdtw::ts::Rng rng(StreamSeed(config.seed, 2000 + b / per_round));
      std::shuffle(order.begin(), order.end(), rng.engine());
    }
    Dataset block(data.name());
    const std::size_t first = (b % per_round) * scale.block;
    for (std::size_t i = first; i < first + scale.block; ++i) {
      block.Add(data[order[i]]);
    }
    return block;
  };

  const sdtw::core::Sdtw checker(options);
  const double pairs_per_block =
      static_cast<double>(scale.block * (scale.block - 1) / 2);
  std::vector<Dataset> scored_blocks;
  std::vector<sdtw::eval::DistanceMatrix> scored_matrices;
  OpSamples ops;
  std::vector<double> traced_ms, matching_ms, dp_ms;
  const auto t_run = Clock::now();
  for (std::size_t b = 0;
       b < scale.min_blocks || SecondsSince(t_run) < config.seconds; ++b) {
    Dataset block = make_block(b);
    const bool traced = config.traced() && b % 2 == 1;
    const auto t0 = Clock::now();
    sdtw::eval::DistanceMatrix m =
        sdtw::eval::ComputeSdtwMatrix(block, options);
    const auto t1 = Clock::now();
    const double ms = Millis(t1 - t0);
    if (traced) {
      const std::uint64_t block_id = tracer.NewId();
      tracer.Record("ComputeSdtwMatrix", "eval", t0, t1, block_id, 0, 0,
                    {{"pairs", pairs_per_block},
                     {"cells_filled", static_cast<double>(m.cells_filled)},
                     {"matching_s", m.matching_seconds},
                     {"dp_s", m.dp_seconds}});
      tracer.Record("block", "bench", t0, t1, 0, block_id);
      // The overhead includes the recording itself. A block has a single
      // child span, so its coverage would be 1 by construction and is not
      // reported.
      traced_ms.push_back(Millis(Clock::now() - t0));
    } else {
      ops.latency_ms.push_back(ms);
      ops.rate.push_back(pairs_per_block / (ms / 1e3));
    }
    matching_ms.push_back(1e3 * m.matching_seconds);
    dp_ms.push_back(1e3 * m.dp_seconds);
    if (b == 0) {
      report.Set("eval.cells_filled", static_cast<double>(m.cells_filled));
      report.Set("eval.peak_dp_cells", static_cast<double>(m.peak_dp_cells));
    }
    report.attempted += static_cast<std::size_t>(pairs_per_block);
    report.failed += CheckBlock(block, m, checker, scale.checked_pairs,
                                StreamSeed(config.seed, 3000 + b));
    if (b < scale.overlap_blocks) {
      scored_blocks.push_back(std::move(block));
      scored_matrices.push_back(std::move(m));
    }
  }
  report.Check(report.failed == 0,
               "matrices are finite and symmetric and match Sdtw::Compare");
  // p80 keeps ten or more of the ~55-65 blocks of a 20 s run beyond it.
  ReportOps(ops, 80.0, report);

  // Retrieval accuracy: top-5 overlap with the full-DTW matrix (§4.2).
  sdtw::eval::MeanAccumulator overlap;
  for (std::size_t i = 0; i < scored_blocks.size(); ++i) {
    overlap.Add(sdtw::eval::ComputeMetrics(
                    "sdtw", scored_blocks[i],
                    sdtw::eval::ComputeFullDtwMatrix(scored_blocks[i]),
                    scored_matrices[i])
                    .retrieval_accuracy_top5);
  }
  report.Set("overlap_at5", overlap.mean());
  report.Set("peak_rss_mb", PeakRssMb());
  if (!config.traced()) return;

  report.Set("eval.matching_ms", Median(matching_ms));
  report.Set("eval.dp_ms", Median(dp_ms));
  report.Set("trace.overhead", Median(traced_ms) / Median(ops.latency_ms) - 1);

  ProbeInputs probe;
  std::vector<const TimeSeries*> all;
  for (const TimeSeries& s : data) all.push_back(&s);
  probe.series.assign(all.begin(),
                      all.begin() + std::min<std::size_t>(256, all.size()));
  probe.pairs =
      SamplePairs(all, all, scale.probe_pairs, StreamSeed(config.seed, 6));
  RunProbes(probe, config.smoke, report, tracer);
}

}  // namespace sdtwbench
