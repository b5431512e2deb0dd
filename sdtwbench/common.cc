#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "eval/metrics.h"

namespace sdtwbench {

void Report::Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    failed_checks_.push_back(what);
  }
}

namespace {

void WriteNumbers(std::FILE* f, const std::map<std::string, double>& values) {
  std::fprintf(f, "{");
  bool first = true;
  for (const auto& [name, value] : values) {
    std::fprintf(f, "%s\n    \"%s\": ", first ? "" : ",", name.c_str());
    if (std::isfinite(value)) {
      std::fprintf(f, "%.17g", value);
    } else {
      std::fprintf(f, "null");
    }
    first = false;
  }
  std::fprintf(f, "\n  }");
}

}  // namespace

bool Report::Write(const Config& config) const {
  std::FILE* f = std::fopen(config.out_path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n"
               "  \"seconds\": %.17g,\n  \"smoke\": %s,\n  \"traced\": %s,\n"
               "  \"correct\": %s,\n  \"attempted\": %zu,\n"
               "  \"failed\": %zu,\n  \"failed_checks\": [",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed), config.seconds,
               config.smoke ? "true" : "false",
               config.traced() ? "true" : "false",
               correct() ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < failed_checks_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i > 0 ? ", " : "", failed_checks_[i].c_str());
  }
  std::fprintf(f, "],\n  \"metrics\": ");
  WriteNumbers(f, metrics_);
  std::fprintf(f, ",\n  \"notes\": ");
  WriteNumbers(f, notes_);
  std::fprintf(f, "\n}\n");
  return std::fclose(f) == 0;
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

bool SameHits(const std::vector<sdtw::retrieval::Hit>& a,
              const std::vector<sdtw::retrieval::Hit>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index || a[i].distance != b[i].distance) {
      return false;
    }
  }
  return true;
}

double MeanOverlap(const std::vector<std::vector<sdtw::retrieval::Hit>>& ref,
                   const std::vector<std::vector<sdtw::retrieval::Hit>>& cand,
                   std::size_t k) {
  if (ref.size() != cand.size()) return 0.0;
  const auto indices = [](const std::vector<sdtw::retrieval::Hit>& hits) {
    std::vector<std::size_t> out;
    for (const auto& hit : hits) out.push_back(hit.index);
    return out;
  };
  sdtw::eval::MeanAccumulator overlap;
  for (std::size_t q = 0; q < ref.size(); ++q) {
    overlap.Add(sdtw::eval::TopKOverlap(indices(ref[q]), indices(cand[q]), k));
  }
  return overlap.mean();
}

void ReportOps(const OpSamples& ops, double tail_pct, Report& report) {
  report.Set("throughput", Median(ops.rate));
  report.Set("p50_ms", Median(ops.latency_ms));
  report.Set("tail_ms", Percentile(ops.latency_ms, tail_pct));
  report.Note("tail_pct", tail_pct);
  report.Note("latency_samples", static_cast<double>(ops.latency_ms.size()));
}

void ReportCascade(const std::vector<sdtw::retrieval::QueryStats>& stats,
                   bool builds_bands, Report& report) {
  sdtw::retrieval::QueryStats t;
  for (const auto& s : stats) t.Merge(s);
  const auto count = [&](const char* name, std::size_t value) {
    report.Set(name, static_cast<double>(value));
  };
  count("batch.candidates", t.candidates);
  count("batch.pruned_by_kim", t.pruned_by_kim);
  count("batch.pruned_by_keogh", t.pruned_by_keogh);
  count("batch.pruned_by_early_abandon", t.pruned_by_early_abandon);
  count("batch.dp_evaluations", t.dp_evaluations);
  count("batch.lb_keogh_abandoned", t.lb_keogh_abandoned);
  count("batch.band_builds",
        builds_bands ? t.candidates - t.pruned_by_kim - t.pruned_by_keogh : 0);
  report.Set("batch.prune_rate", t.prune_rate());
}

}  // namespace sdtwbench
