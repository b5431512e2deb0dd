// Batched multi-query retrieval throughput: N sequential KnnEngine::Query
// calls versus one BatchKnnEngine::QueryBatch over the same index, with
// the candidate visit order measured both ways (index order, and
// ascending cached LB_Kim within each chunk).
//
// The batch path wins on three axes: per-query derivatives (summary,
// features) are computed once up front, every worker reuses one
// pre-sized rolling DP scratch instead of allocating per call, and the
// query×candidate grid is work-stolen across threads with a shared
// per-query best-so-far, so the cascade tightens as workers race.
// LB-ordered visiting then multiplies the cascade's prune rate: cheap
// near neighbours run first, the best-so-far tightens early, and most of
// the expensive tail never reaches the DP. The bench prints DPs run and
// prune rate for both orders and FAILS (exit 1) if any hit list
// diverges from the sequential one — they are bitwise identical by
// construction.
//
// Default scale pins the acceptance setup: a 64-query batch over 1 000
// indexed series at 4 worker threads, exact-DTW and sDTW modes. Results
// are checked identical across all paths before timing is reported.
//
//   --queries=N --series=N --length=N --threads=N   override the scale
//   --smoke                                         tiny CI scale
//   --seed=S                                        generator seed
//   --json=FILE  write a machine-readable perf baseline (queries/s, DP
//                counts, prune rates, Keogh abandons, sDTW band builds,
//                and banded-kernel cells/s) for CI artifact tracking
//                across perf PRs
//
// scripts/bench_smoke.sh passes --json so CI uploads BENCH_retrieval.json
// as the perf-trajectory artifact.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/generators.h"
#include "dtw/dtw.h"
#include "retrieval/batch.h"
#include "retrieval/knn.h"
#include "ts/random.h"
#include "ts/transforms.h"

namespace {

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Scale {
  std::size_t num_series = 1000;
  std::size_t num_queries = 64;
  std::size_t length = 128;
  std::size_t threads = 4;
  std::size_t k = 5;
};

// Per-visit-order measurements of one engine mode.
struct OrderMetrics {
  sdtw::retrieval::QueryStats stats;
  double seconds = 0.0;
};

// One engine mode's full measurement set (for the table and the JSON).
struct ModeMetrics {
  double index_seconds = 0.0;
  double seq_seconds = 0.0;
  double batch_seconds = 0.0;  // default (LB-ordered) batch
  OrderMetrics orders[2];      // indexed by VisitOrder
  bool identical = false;
};

bool SameHits(const std::vector<std::vector<sdtw::retrieval::Hit>>& a,
              const std::vector<std::vector<sdtw::retrieval::Hit>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (std::size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].index != b[q][i].index ||
          a[q][i].distance != b[q][i].distance) {
        return false;
      }
    }
  }
  return true;
}

sdtw::retrieval::QueryStats Totals(
    const std::vector<sdtw::retrieval::QueryStats>& stats) {
  sdtw::retrieval::QueryStats t;
  for (const sdtw::retrieval::QueryStats& s : stats) t.Merge(s);
  return t;
}

// One engine mode, measured sequentially and batched under both visit
// orders. Returns false when any hit list disagrees with the sequential
// scan (all three must be bitwise identical).
bool RunMode(const char* label, const sdtw::retrieval::KnnOptions& options,
             const sdtw::ts::Dataset& index_set,
             const std::vector<sdtw::ts::TimeSeries>& queries,
             const Scale& scale, ModeMetrics* out) {
  using namespace sdtw;
  using retrieval::VisitOrder;

  constexpr VisitOrder kOrders[2] = {VisitOrder::kIndexOrder,
                                     VisitOrder::kLowerBound};

  // One engine per visit order (the option is fixed at engine level);
  // sequential baseline runs on the default (LB-ordered) engine.
  std::vector<retrieval::KnnEngine> engines;
  engines.reserve(2);
  double index_seconds = 0.0;
  for (const VisitOrder order : kOrders) {
    retrieval::KnnOptions o = options;
    o.visit_order = order;
    engines.emplace_back(o);
    const auto t0 = std::chrono::steady_clock::now();
    engines.back().Index(index_set);
    if (order == VisitOrder::kLowerBound) index_seconds = Seconds(t0);
  }
  retrieval::KnnEngine& lb_engine = engines[1];

  // Sequential baseline: one Query call per query, single-threaded.
  const auto t_seq = std::chrono::steady_clock::now();
  std::vector<std::vector<retrieval::Hit>> sequential;
  sequential.reserve(queries.size());
  for (const ts::TimeSeries& q : queries) {
    sequential.push_back(lb_engine.Query(q, scale.k));
  }
  const double seq_seconds = Seconds(t_seq);

  retrieval::BatchOptions batch_options;
  batch_options.num_threads = scale.threads;

  ModeMetrics metrics;
  metrics.index_seconds = index_seconds;
  metrics.seq_seconds = seq_seconds;
  bool identical = true;
  for (int oi = 0; oi < 2; ++oi) {
    const retrieval::BatchKnnEngine batch(engines[oi], batch_options);
    std::vector<retrieval::QueryStats> stats;
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<std::vector<retrieval::Hit>> hits =
        batch.QueryBatch(queries, scale.k, &stats);
    metrics.orders[oi].seconds = Seconds(t0);
    metrics.orders[oi].stats = Totals(stats);
    identical = identical && SameHits(hits, sequential);
  }
  metrics.batch_seconds = metrics.orders[1].seconds;
  metrics.identical = identical;

  const double seq_qps =
      seq_seconds > 0.0 ? static_cast<double>(queries.size()) / seq_seconds
                        : 0.0;
  const double batch_qps =
      metrics.batch_seconds > 0.0
          ? static_cast<double>(queries.size()) / metrics.batch_seconds
          : 0.0;
  std::printf("%-10s %9.3f %12.3f %10.1f %12.3f %10.1f %9.2fx  %s\n", label,
              index_seconds, seq_seconds, seq_qps, metrics.batch_seconds,
              batch_qps,
              seq_seconds > 0.0 && metrics.batch_seconds > 0.0
                  ? seq_seconds / metrics.batch_seconds
                  : 0.0,
              identical ? "ok" : "MISMATCH");
  const retrieval::QueryStats& idx = metrics.orders[0].stats;
  const retrieval::QueryStats& lb = metrics.orders[1].stats;
  std::printf(
      "  visit order: index %8zu of %8zu DPs (prune %5.1f%%)  "
      "lb %8zu DPs (prune %5.1f%%, dp_saved %.1f%%)\n",
      idx.dp_evaluations, idx.candidates, 100.0 * idx.prune_rate(),
      lb.dp_evaluations, 100.0 * lb.prune_rate(),
      idx.dp_evaluations > 0
          ? 100.0 * (1.0 - static_cast<double>(lb.dp_evaluations) /
                               static_cast<double>(idx.dp_evaluations))
          : 0.0);
  if (lb.pruned_by_keogh > 0 || lb.lb_keogh_abandoned > 0) {
    std::printf("  lb_keogh: %zu pruned, %zu bound passes abandoned early\n",
                lb.pruned_by_keogh, lb.lb_keogh_abandoned);
  }
  if (lb.band_builds > 0) {
    std::printf("  band builds: %zu of %zu candidates\n", lb.band_builds,
                lb.candidates);
  }
  if (out != nullptr) *out = metrics;
  return identical;
}

// Throughput of the banded rolling DP kernel itself (the cascade's miss
// path) on the BM_DtwBandedNarrowDistance band shape, in cells/s — the
// number the DP kernel work moves and the JSON baseline tracks.
double KernelCellsPerSecond(std::size_t n, sdtw::dtw::CostKind cost) {
  using namespace sdtw;
  ts::Rng rng1(1), rng2(2);
  const ts::TimeSeries x =
      ts::ZNormalize(data::patterns::RandomSmooth(n, 12, rng1));
  const ts::TimeSeries y =
      ts::ZNormalize(data::patterns::RandomSmooth(n, 12, rng2));
  const dtw::Band band = bench::FixedWidthDiagonalBand(n, n, 16);
  const double cells = static_cast<double>(band.CellCount());
  dtw::DtwScratch scratch;
  volatile double sink = 0.0;
  // Warm-up, then measure for a fixed wall budget.
  sink = sink + dtw::DtwBandedDistance(x, y, band, cost, scratch);
  std::size_t reps = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    sink = sink + dtw::DtwBandedDistance(x, y, band, cost, scratch);
    ++reps;
    elapsed = Seconds(t0);
  } while (elapsed < 0.2);
  return static_cast<double>(reps) * cells / elapsed;
}

void WriteJson(const char* path, const Scale& scale, bool smoke,
               double kernel_abs, double kernel_sq,
               const ModeMetrics& dtw_metrics,
               const ModeMetrics& sdtw_metrics) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path);
    return;
  }
  auto mode = [f](const char* name, const ModeMetrics& m, bool last) {
    std::fprintf(f, "    \"%s\": {\n", name);
    std::fprintf(f, "      \"seq_seconds\": %.6f,\n", m.seq_seconds);
    std::fprintf(f, "      \"batch_seconds\": %.6f,\n", m.batch_seconds);
    std::fprintf(f, "      \"index_seconds\": %.6f,\n", m.index_seconds);
    std::fprintf(f, "      \"hits_identical\": %s,\n",
                 m.identical ? "true" : "false");
    static const char* kOrderNames[2] = {"index", "lb"};
    std::fprintf(f, "      \"orders\": {\n");
    for (int oi = 0; oi < 2; ++oi) {
      const auto& s = m.orders[oi].stats;
      std::fprintf(f,
                   "        \"%s\": {\"seconds\": %.6f, \"candidates\": %zu, "
                   "\"dp_evaluations\": %zu, \"prune_rate\": %.6f, "
                   "\"pruned_by_kim\": %zu, \"pruned_by_keogh\": %zu, "
                   "\"pruned_by_early_abandon\": %zu, "
                   "\"lb_keogh_abandoned\": %zu, \"band_builds\": %zu}%s\n",
                   kOrderNames[oi], m.orders[oi].seconds, s.candidates,
                   s.dp_evaluations, s.prune_rate(), s.pruned_by_kim,
                   s.pruned_by_keogh, s.pruned_by_early_abandon,
                   s.lb_keogh_abandoned, s.band_builds, oi < 1 ? "," : "");
    }
    std::fprintf(f, "      }\n");
    std::fprintf(f, "    }%s\n", last ? "" : ",");
  };
  std::fprintf(f, "{\n");
  // v3: bench_service may append a "service" block (latency percentiles,
  // throughput, cache hit rate) after this bench writes the base file.
  std::fprintf(f, "  \"schema\": \"sdtw-bench-retrieval-v4\",\n");
  std::fprintf(f,
               "  \"scale\": {\"series\": %zu, \"queries\": %zu, \"length\": "
               "%zu, \"threads\": %zu, \"k\": %zu, \"smoke\": %s},\n",
               scale.num_series, scale.num_queries, scale.length,
               scale.threads, scale.k, smoke ? "true" : "false");
  // Variant + CPU features make the baseline self-describing so the CI
  // perf gate can refuse apples-to-oranges comparisons (e.g. a previous
  // run on an AVX-512 host versus a current run forced to portable).
  std::fprintf(f,
               "  \"kernel\": {\"band_half_width\": 16, "
               "\"variant\": \"%s\", "
               "\"cpu_features\": \"%s\", "
               "\"banded_cells_per_second_abs\": %.0f, "
               "\"banded_cells_per_second_squared\": %.0f},\n",
               sdtw::dtw::ActiveRowKernelOps().name,
               sdtw::dtw::DetectedCpuFeatures().c_str(), kernel_abs,
               kernel_sq);
  std::fprintf(f, "  \"modes\": {\n");
  mode("dtw", dtw_metrics, false);
  mode("sdtw", sdtw_metrics, true);
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("perf baseline written to %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sdtw;
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);

  Scale scale;
  if (config.smoke) {
    scale.num_series = 40;
    scale.num_queries = 8;
    scale.length = 48;
    scale.threads = 2;
  }
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--queries=", 0) == 0) {
      scale.num_queries = std::strtoul(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--series=", 0) == 0) {
      scale.num_series = std::strtoul(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--length=", 0) == 0) {
      scale.length = std::strtoul(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      scale.threads = std::strtoul(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    }
  }

  data::GeneratorOptions gopt;
  gopt.seed = config.seed;
  gopt.num_series = scale.num_series;
  gopt.length = scale.length;
  const ts::Dataset index_set = data::MakeTraceLike(gopt);

  // Queries drawn from the same generator family with a different seed:
  // realistic near-misses, not indexed duplicates.
  data::GeneratorOptions qopt = gopt;
  qopt.seed = config.seed + 1;
  qopt.num_series = scale.num_queries;
  const ts::Dataset query_set = data::MakeTraceLike(qopt);
  const std::vector<ts::TimeSeries> queries(query_set.begin(),
                                            query_set.end());

  std::printf(
      "batched retrieval: %zu indexed series (len %zu), %zu queries, "
      "k=%zu, %zu worker threads\n\n",
      index_set.size(), scale.length, queries.size(), scale.k,
      scale.threads);
  std::printf("%-10s %9s %12s %10s %12s %10s %9s\n", "mode", "index_s",
              "seq_s", "seq_q/s", "batch_s", "batch_q/s", "speedup");

  bool ok = true;

  retrieval::KnnOptions exact;
  exact.distance = retrieval::DistanceKind::kFullDtw;
  ModeMetrics dtw_metrics;
  ok &= RunMode("dtw", exact, index_set, queries, scale, &dtw_metrics);

  retrieval::KnnOptions sdtw_opts;
  sdtw_opts.distance = retrieval::DistanceKind::kSdtw;
  sdtw_opts.sdtw.constraint.type =
      core::ConstraintType::kAdaptiveCoreAdaptiveWidth;
  sdtw_opts.sdtw.constraint.width_average_radius = 1;
  ModeMetrics sdtw_metrics;
  ok &= RunMode("sdtw", sdtw_opts, index_set, queries, scale, &sdtw_metrics);

  if (!json_path.empty()) {
    const std::size_t kernel_n = config.smoke ? 256 : 2048;
    const double kernel_abs =
        KernelCellsPerSecond(kernel_n, dtw::CostKind::kAbsolute);
    const double kernel_sq =
        KernelCellsPerSecond(kernel_n, dtw::CostKind::kSquared);
    std::printf(
        "banded kernel (half-width 16, n=%zu, variant=%s): %.1f M cells/s "
        "abs, %.1f M cells/s squared\n",
        kernel_n, dtw::ActiveRowKernelOps().name, kernel_abs / 1e6,
        kernel_sq / 1e6);
    WriteJson(json_path.c_str(), scale, config.smoke, kernel_abs, kernel_sq,
              dtw_metrics, sdtw_metrics);
  }

  if (!ok) {
    std::fprintf(stderr,
                 "FAILED: sequential, index-ordered, and LB-ordered hit "
                 "lists disagree\n");
    return 1;
  }
  return 0;
}
