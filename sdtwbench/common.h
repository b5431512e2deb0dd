#ifndef SDTWBENCH_COMMON_H_
#define SDTWBENCH_COMMON_H_

/// \file common.h
/// \brief Shared plumbing of the sdtw_bench binary: configuration, timing
/// helpers, seeded input streams, and the per-run report the runner reads.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "retrieval/knn.h"
#include "trace.h"

namespace sdtwbench {

using Clock = std::chrono::steady_clock;

/// Engine and service worker threads of every workload.
inline constexpr std::size_t kThreads = 4;
/// Neighbours per kNN query.
inline constexpr std::size_t kTopK = 5;
/// Set-up is repeated at least kMinSetups times and until kSetupSeconds
/// have passed, and setup_s is the median: one set-up of a few
/// milliseconds is too short to time alone.
inline constexpr std::size_t kMinSetups = 7;
inline constexpr double kSetupSeconds = 1.0;

/// \brief One sdtw_bench invocation.
struct Config {
  std::string workload;
  std::uint64_t seed = 17;
  /// Measured seconds of the workload's timed phase.
  double seconds = 10.0;
  /// Tiny inputs for the ctest smoke runs; outputs are still verified.
  bool smoke = false;
  /// Chrome trace-event output; empty = untraced run.
  std::string trace_path;
  std::string out_path;

  bool traced() const { return !trace_path.empty(); }
};

/// \brief What one run measured and whether its outputs were right.
class Report {
 public:
  void Set(const std::string& name, double value) { metrics_[name] = value; }
  /// Records a correctness check; a failed check makes the run incorrect.
  void Check(bool ok, const std::string& what);
  /// Free-form context for the human report (sample counts, percentiles).
  void Note(const std::string& name, double value) { notes_[name] = value; }

  std::size_t attempted = 0;
  /// Operations that failed or returned wrong results.
  std::size_t failed = 0;

  bool correct() const { return failed_checks_.empty() && failed == 0; }
  /// Writes the report as JSON; false when the file cannot be written.
  bool Write(const Config& config) const;

 private:
  std::map<std::string, double> metrics_;
  std::map<std::string, double> notes_;
  std::vector<std::string> failed_checks_;
};

double SecondsSince(Clock::time_point t0);
double Millis(Clock::duration d);

/// Median of a sample (0 when empty).
double Median(std::vector<double> samples);
/// Nearest-rank percentile, p in [0, 100] (0 when empty).
double Percentile(std::vector<double> samples, double p);

/// SplitMix64 of (seed, stream): independent generator seeds per input
/// stream, all derived from the one --seed.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream);

/// Peak resident set size of this process (VmHWM), MB.
double PeakRssMb();

/// Bitwise equality of two hit lists (index and distance).
bool SameHits(const std::vector<sdtw::retrieval::Hit>& a,
              const std::vector<sdtw::retrieval::Hit>& b);

/// Mean top-k overlap |reference ∩ candidate| / k over paired hit lists
/// (the paper's retrieval accuracy, §4.2).
double MeanOverlap(const std::vector<std::vector<sdtw::retrieval::Hit>>& ref,
                   const std::vector<std::vector<sdtw::retrieval::Hit>>& cand,
                   std::size_t k);

/// \brief End-to-end metrics every workload reports: a timed operation's
/// latencies and the work it completed.
struct OpSamples {
  std::vector<double> latency_ms;
  std::vector<double> rate;  ///< Work units per second of each operation.
};

/// Sets throughput (median rate), p50_ms, and tail_ms at percentile
/// `tail_pct`, plus notes on the sample count.
void ReportOps(const OpSamples& ops, double tail_pct, Report& report);

/// Runs `setup` — which returns the seconds it timed — at least
/// kMinSetups times and until kSetupSeconds have passed (200 at most),
/// and sets setup_s to the median.
template <typename Setup>
void MeasureSetup(Report& report, Setup&& setup) {
  std::vector<double> seconds;
  const auto start = Clock::now();
  while (seconds.size() < kMinSetups ||
         (SecondsSince(start) < kSetupSeconds && seconds.size() < 200)) {
    seconds.push_back(setup());
  }
  report.Set("setup_s", Median(seconds));
  report.Note("setup_samples", static_cast<double>(seconds.size()));
}

/// Sets the batch.* cascade counts summed over `stats`. band_builds is
/// candidates − Kim − Keogh prunes when the engine builds sDTW bands,
/// else 0.
void ReportCascade(const std::vector<sdtw::retrieval::QueryStats>& stats,
                   bool builds_bands, Report& report);

/// The workloads. Each fills `report` with its end-to-end metrics and,
/// in a traced run, its per-layer metrics.
void RunKnn(const Config& config, sdtw::retrieval::DistanceKind kind,
            Report& report, Tracer& tracer);
void RunPairwise(const Config& config, Report& report, Tracer& tracer);
void RunServe(const Config& config, Report& report, Tracer& tracer);

}  // namespace sdtwbench

#endif  // SDTWBENCH_COMMON_H_
