// Ablation bench for the knobs this implementation sets where the paper
// leaves a choice open or fixes it without a sweep (not a paper
// figure): each section toggles one knob of the pipeline and reports
// distance error / retrieval accuracy / time gain on the Trace-like set.
//
//  A. epsilon relaxation of the extremum test (paper fixes 0.0096)
//  B. adaptive-width lower bound (paper uses 20% for fc,aw)
//  C. symmetric combined band (paper §3.3.3 suggestion)
//  D. width-averaging radius r (paper evaluates r=0 and r=1 only)
//  E. Itakura parallelogram as an additional fixed baseline (related work
//     the paper contrasts against in Figure 2(c))

#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "core/sdtw.h"
#include "dtw/band.h"
#include "eval/experiment.h"

namespace {

using namespace sdtw;

void Report(const char* label, const ts::Dataset& ds,
            const eval::DistanceMatrix& reference,
            const core::SdtwOptions& options) {
  const eval::DistanceMatrix m = eval::ComputeSdtwMatrix(ds, options);
  const eval::AlgorithmMetrics a =
      eval::ComputeMetrics(label, ds, reference, m);
  std::printf("%-26s %12.4f %10.4f %10.4f\n", label, a.distance_error,
              a.retrieval_accuracy_top10, a.time_gain);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchConfig config = bench::ParseArgs(argc, argv);
  config.only_dataset =
      config.only_dataset.empty() ? "trace" : config.only_dataset;
  const auto datasets = bench::LoadDatasets(config);
  bench::PrintDatasetTable(datasets);
  const ts::Dataset& ds = datasets.front();
  const eval::DistanceMatrix reference = eval::ComputeFullDtwMatrix(ds);

  std::printf("%-26s %12s %10s %10s\n", "configuration", "dist_error",
              "acc@top10", "time_gain");

  std::printf("-- A. extremum relaxation epsilon (ac,aw) --\n");
  for (const double eps : {0.0, 0.0096, 0.05, 0.2}) {
    core::SdtwOptions opt;
    opt.constraint.type = core::ConstraintType::kAdaptiveCoreAdaptiveWidth;
    opt.extractor.epsilon = eps;
    char label[64];
    std::snprintf(label, sizeof(label), "epsilon=%.4f", eps);
    Report(label, ds, reference, opt);
  }

  std::printf("-- B. adaptive width lower bound (fc,aw) --\n");
  for (const double lb : {0.0, 0.10, 0.20, 0.40}) {
    core::SdtwOptions opt;
    opt.constraint.type = core::ConstraintType::kFixedCoreAdaptiveWidth;
    opt.constraint.adaptive_width_min_fraction = lb;
    char label[64];
    std::snprintf(label, sizeof(label), "width_lb=%.0f%%", 100.0 * lb);
    Report(label, ds, reference, opt);
  }

  std::printf("-- C. symmetric combined band (ac,aw) --\n");
  for (const bool sym : {false, true}) {
    core::SdtwOptions opt;
    opt.constraint.type = core::ConstraintType::kAdaptiveCoreAdaptiveWidth;
    opt.constraint.symmetric = sym;
    Report(sym ? "symmetric=on" : "symmetric=off", ds, reference, opt);
  }

  std::printf("-- D. width averaging radius r (ac,aw) --\n");
  for (const std::size_t r : {0u, 1u, 2u, 4u}) {
    core::SdtwOptions opt;
    opt.constraint.type = core::ConstraintType::kAdaptiveCoreAdaptiveWidth;
    opt.constraint.width_average_radius = r;
    char label[64];
    std::snprintf(label, sizeof(label), "radius=%zu", static_cast<size_t>(r));
    Report(label, ds, reference, opt);
  }
  std::printf("-- E. Itakura parallelogram baseline --\n");
  {
    // Evaluate the Itakura band through the generic banded kernel.
    eval::DistanceMatrix m;
    m.n = ds.size();
    m.distance.assign(m.n * m.n, 0.0);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < m.n; ++i) {
      for (std::size_t j = i + 1; j < m.n; ++j) {
        const dtw::Band band =
            dtw::ItakuraBand(ds[i].size(), ds[j].size(), 2.0);
        const double d = dtw::DtwBandedDistance(ds[i], ds[j], band);
        m.distance[i * m.n + j] = d;
        m.distance[j * m.n + i] = d;
      }
    }
    m.dp_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    const eval::AlgorithmMetrics a =
        eval::ComputeMetrics("itakura s=2", ds, reference, m);
    std::printf("%-26s %12.4f %10.4f %10.4f\n", a.label.c_str(),
                a.distance_error, a.retrieval_accuracy_top10, a.time_gain);
  }
  return 0;
}
