#include "probes.h"

#include <cmath>
#include <map>
#include <string>

#include "align/consistency.h"
#include "align/matching.h"
#include "core/sdtw.h"
#include "dtw/dtw.h"
#include "dtw/kernel_dispatch.h"
#include "dtw/lower_bounds.h"
#include "eval/metrics.h"
#include "ts/random.h"

namespace sdtwbench {

namespace {

using sdtw::ts::TimeSeries;
using Features = std::vector<sdtw::sift::Keypoint>;

// Pairs the timed probes sweep per pass; the exact ratios use every pair.
constexpr std::size_t kTimedPairs = 200;

// Consumes probe results so no call is dead code.
volatile double g_sink = 0.0;

// Median seconds of one `pass` over kWindows windows. A window repeats
// the pass until it has run for at least `min_window` seconds and records
// one span carrying the number of passes.
template <typename Pass>
double MedianPassSeconds(const char* name, const char* layer,
                         double min_window, Tracer& tracer, Pass&& pass) {
  g_sink = g_sink + pass();  // warm caches and lazy set-up
  std::vector<double> per_pass;
  for (int w = 0; w < kWindows; ++w) {
    const auto t0 = Clock::now();
    std::size_t passes = 0;
    double sum = 0.0;
    double elapsed = 0.0;
    do {
      sum += pass();
      ++passes;
      elapsed = SecondsSince(t0);
    } while (elapsed < min_window);
    g_sink = g_sink + sum;
    tracer.Record(name, layer, t0, Clock::now(), 0, 0, 0,
                  {{"passes", static_cast<double>(passes)}});
    per_pass.push_back(elapsed / static_cast<double>(passes));
  }
  return Median(per_pass);
}

}  // namespace

std::vector<std::pair<const TimeSeries*, const TimeSeries*>> SamplePairs(
    const std::vector<const TimeSeries*>& xs,
    const std::vector<const TimeSeries*>& ys, std::size_t count,
    std::uint64_t seed) {
  sdtw::ts::Rng rng(seed);
  std::vector<std::pair<const TimeSeries*, const TimeSeries*>> pairs;
  while (pairs.size() < count) {
    const TimeSeries* x = xs[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(xs.size()) - 1))];
    const TimeSeries* y = ys[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(ys.size()) - 1))];
    if (x != y) pairs.emplace_back(x, y);
  }
  return pairs;
}

void RunProbes(const ProbeInputs& inputs, bool smoke, Report& report,
               Tracer& tracer) {
  namespace dtw = sdtw::dtw;
  const double min_window = smoke ? 0.001 : 0.02;
  const sdtw::core::Sdtw engine;  // default options: ac,aw, absolute cost
  sdtw::core::SdtwOptions distance_only;
  distance_only.dtw.want_path = false;
  const sdtw::core::Sdtw distance_engine(distance_only);

  // --- sift: feature extraction ------------------------------------------
  const auto extract_pass = [&] {  // returns the keypoints found
    double n = 0.0;
    for (const TimeSeries* s : inputs.series) {
      n += static_cast<double>(engine.ExtractFeatures(*s).size());
    }
    return n;
  };
  const double keypoints = extract_pass();
  const double extract_s = MedianPassSeconds("ExtractFeatures", "sift",
                                             min_window, tracer, extract_pass);
  const double num_series = static_cast<double>(inputs.series.size());
  report.Set("sift.extract_us", 1e6 * extract_s / num_series);
  report.Set("sift.keypoints_per_series", keypoints / num_series);

  std::map<const TimeSeries*, Features> features;
  for (const auto& [x, y] : inputs.pairs) {
    for (const TimeSeries* s : {x, y}) {
      if (features.count(s) == 0) features[s] = engine.ExtractFeatures(*s);
    }
  }

  // --- align + core: matching, pruning, band, distance error --------------
  const sdtw::align::MatchingOptions& matching = engine.options().matching;
  double matched = 0.0;
  double kept = 0.0;
  double band_cells = 0.0;
  double grid_cells = 0.0;
  sdtw::eval::MeanAccumulator distance_error;
  std::vector<dtw::Band> bands;
  for (const auto& [x, y] : inputs.pairs) {
    const Features& fx = features[x];
    const Features& fy = features[y];
    const auto pairs =
        sdtw::align::FindDominantPairs(fx, fy, matching, x->size(), y->size());
    matched += static_cast<double>(pairs.size());
    kept += static_cast<double>(
        sdtw::align::PruneInconsistent(*x, *y, fx, fy, pairs).size());
    dtw::Band band = engine.BuildBand(*x, fx, *y, fy);
    band_cells += static_cast<double>(band.CellCount());
    grid_cells += static_cast<double>(x->size() * y->size());
    const double error = sdtw::eval::DistanceError(
        dtw::DtwDistance(*x, *y),
        distance_engine.Compare(*x, fx, *y, fy).distance);
    if (std::isfinite(error)) distance_error.Add(error);
    if (bands.size() < kTimedPairs) bands.push_back(std::move(band));
  }
  const std::size_t timed = bands.size();
  const double num_timed = static_cast<double>(timed);
  report.Set("align.pairs_kept_ratio", matched > 0.0 ? kept / matched : 0.0);
  report.Set("core.band_fill", grid_cells > 0.0 ? band_cells / grid_cells : 0.0);
  report.Set("core.distance_error", distance_error.mean());

  const double match_s = MedianPassSeconds(
      "FindDominantPairs", "align", min_window, tracer, [&] {
        double n = 0.0;
        for (std::size_t i = 0; i < timed; ++i) {
          const auto& [x, y] = inputs.pairs[i];
          n += static_cast<double>(
              sdtw::align::FindDominantPairs(features[x], features[y],
                                             matching, x->size(), y->size())
                  .size());
        }
        return n;
      });
  report.Set("align.match_us", 1e6 * match_s / num_timed);

  const double band_s =
      MedianPassSeconds("BuildBand", "core", min_window, tracer, [&] {
        double n = 0.0;
        for (std::size_t i = 0; i < timed; ++i) {
          const auto& [x, y] = inputs.pairs[i];
          n += static_cast<double>(
              engine.BuildBand(*x, features[x], *y, features[y]).CellCount());
        }
        return n;
      });
  report.Set("core.build_band_us", 1e6 * band_s / num_timed);

  // --- dtw: banded kernel per variant, full grid, LB_Keogh ----------------
  double timed_band_cells = 0.0;
  double timed_grid_cells = 0.0;
  std::vector<dtw::Envelope> envelopes;
  for (std::size_t i = 0; i < timed; ++i) {
    const auto& [x, y] = inputs.pairs[i];
    timed_band_cells += static_cast<double>(bands[i].CellCount());
    timed_grid_cells += static_cast<double>(x->size() * y->size());
    // Full-span envelopes, as the exact-DTW retrieval cascade builds them.
    envelopes.push_back(dtw::MakeEnvelope(*y, y->size() - 1));
  }
  dtw::DtwScratch scratch;
  for (const dtw::KernelVariant variant :
       {dtw::KernelVariant::kPortable, dtw::KernelVariant::kAvx2,
        dtw::KernelVariant::kAvx512}) {
    const std::string metric =
        std::string("dtw.banded_mcells_s.") + dtw::KernelVariantName(variant);
    if (!dtw::KernelVariantSupported(variant)) {
      report.Set(metric, 0.0);  // not runnable on this CPU
      continue;
    }
    scratch.set_kernel(dtw::FindRowKernelOps(variant));
    const double pass_s = MedianPassSeconds(
        "DtwBandedDistance", "dtw", min_window, tracer, [&] {
          double sum = 0.0;
          for (std::size_t i = 0; i < timed; ++i) {
            const auto& [x, y] = inputs.pairs[i];
            sum += dtw::DtwBandedDistance(*x, *y, bands[i],
                                          dtw::CostKind::kAbsolute, scratch);
          }
          return sum;
        });
    report.Set(metric, timed_band_cells / pass_s / 1e6);
  }
  scratch.set_kernel(nullptr);
  const double full_s =
      MedianPassSeconds("DtwDistance", "dtw", min_window, tracer, [&] {
        double sum = 0.0;
        for (std::size_t i = 0; i < timed; ++i) {
          const auto& [x, y] = inputs.pairs[i];
          sum += dtw::DtwDistance(*x, *y, dtw::CostKind::kAbsolute, scratch);
        }
        return sum;
      });
  report.Set("dtw.full_mcells_s", timed_grid_cells / full_s / 1e6);
  const double keogh_s =
      MedianPassSeconds("LbKeogh", "dtw", min_window, tracer, [&] {
        double sum = 0.0;
        for (std::size_t i = 0; i < timed; ++i) {
          sum += dtw::LbKeogh(*inputs.pairs[i].first, envelopes[i]);
        }
        return sum;
      });
  report.Set("dtw.lb_keogh_ns", 1e9 * keogh_s / num_timed);
}

}  // namespace sdtwbench
