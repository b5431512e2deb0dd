// sdtw_bench: runs one workload through the library's public
// API, times it from outside, verifies its outputs, and writes the
// measurements as JSON for run_benchmark.py.
//
//   sdtw_bench --workload=NAME --seed=S [--seconds=T] [--smoke]
//              [--trace=FILE] --out=FILE
//
// Workloads: knn_sdtw, knn_dtw, pairwise_sdtw, serve_zipf (see README.md).
// --trace records spans around every call into the library and adds the
// per-layer metrics. Exit status: 0 = outputs verified, 1 = an output
// check failed (the report is still written), 2 = usage or I/O error.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

namespace {

bool TakeValue(const std::string& arg, const char* flag, std::string* out) {
  const std::string prefix = std::string(flag) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "sdtw_bench: %s\nusage: sdtw_bench --workload=NAME --seed=S "
               "[--seconds=T] [--smoke] [--trace=FILE] --out=FILE\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sdtwbench;
  Config config;
  std::string seed;
  std::string seconds;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      config.smoke = true;
    } else if (!TakeValue(arg, "--workload", &config.workload) &&
               !TakeValue(arg, "--seed", &seed) &&
               !TakeValue(arg, "--seconds", &seconds) &&
               !TakeValue(arg, "--trace", &config.trace_path) &&
               !TakeValue(arg, "--out", &config.out_path)) {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  char* end = nullptr;
  config.seed = std::strtoull(seed.c_str(), &end, 10);
  if (seed.empty() || *end != '\0') return Usage("--seed must be an integer");
  if (!seconds.empty()) {
    config.seconds = std::strtod(seconds.c_str(), &end);
    if (*end != '\0' || !(config.seconds > 0.0)) {
      return Usage("--seconds must be positive");
    }
  }
  if (config.out_path.empty()) return Usage("--out is required");

  Report report;
  Tracer tracer(config.traced());
  if (config.workload == "knn_sdtw") {
    RunKnn(config, sdtw::retrieval::DistanceKind::kSdtw, report, tracer);
  } else if (config.workload == "knn_dtw") {
    RunKnn(config, sdtw::retrieval::DistanceKind::kFullDtw, report, tracer);
  } else if (config.workload == "pairwise_sdtw") {
    RunPairwise(config, report, tracer);
  } else if (config.workload == "serve_zipf") {
    RunServe(config, report, tracer);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }

  if (!report.Write(config)) {
    std::fprintf(stderr, "sdtw_bench: cannot write %s\n",
                 config.out_path.c_str());
    return 2;
  }
  if (config.traced() && !tracer.Write(config.trace_path)) {
    std::fprintf(stderr, "sdtw_bench: cannot write %s\n",
                 config.trace_path.c_str());
    return 2;
  }
  return report.correct() ? 0 : 1;
}
