#include "retrieval/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "retrieval/batch.h"

namespace sdtw {
namespace retrieval {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

int VoteLabel(const std::vector<Hit>& hits) {
  if (hits.empty()) return -1;
  // Count votes; resolve count ties by the smaller summed distance (the
  // ordered map makes the final smaller-label tie-break deterministic).
  std::map<int, std::pair<std::size_t, double>> votes;  // label -> (n, sum)
  for (const Hit& h : hits) {
    auto& v = votes[h.label];
    ++v.first;
    v.second += h.distance;
  }
  int best_label = hits[0].label;
  std::size_t best_count = 0;
  double best_sum = kInf;
  for (const auto& [label, v] : votes) {
    if (v.first > best_count ||
        (v.first == best_count && v.second < best_sum)) {
      best_label = label;
      best_count = v.first;
      best_sum = v.second;
    }
  }
  return best_label;
}

KnnEngine::KnnEngine(KnnOptions options) : options_(std::move(options)) {
  core::SdtwOptions opts = options_.sdtw;
  opts.dtw.want_path = false;
  engine_ = core::Sdtw(opts);
}

void KnnEngine::Index(const ts::Dataset& dataset) {
  series_.clear();
  features_.clear();
  stats_.clear();
  const bool sdtw = options_.distance == DistanceKind::kSdtw;
  series_.reserve(dataset.size());
  if (sdtw) features_.reserve(dataset.size());
  stats_.reserve(dataset.size());

  max_length_ = dataset.MaxLength();
  for (const ts::TimeSeries& s : dataset) {
    series_.push_back(s);
    // One-time per-series extraction (paper §3.4), stored as one block
    // built straight from the extractor's output.
    if (sdtw) features_.emplace_back(engine_.ExtractFeatures(s), s);
    stats_.push_back(dtw::MakeSeriesStats(s));
  }
}

std::vector<Hit> KnnEngine::Query(const ts::TimeSeries& query, std::size_t k,
                                  std::optional<std::size_t> exclude,
                                  QueryStats* stats) const {
  // Batch of one, inline on the calling thread — the cascade itself lives
  // in BatchKnnEngine::CascadeDistance.
  BatchOptions batch_options;
  batch_options.num_threads = 1;
  const BatchKnnEngine batch(*this, batch_options);
  std::vector<QueryStats> batch_stats;
  std::vector<std::vector<Hit>> hits = batch.QueryBatch(
      std::span<const ts::TimeSeries>(&query, 1), k,
      stats != nullptr ? &batch_stats : nullptr,
      std::span<const std::optional<std::size_t>>(&exclude, 1));
  if (stats != nullptr) *stats = batch_stats[0];
  return std::move(hits[0]);
}

int KnnEngine::Classify(const ts::TimeSeries& query, std::size_t k,
                        std::optional<std::size_t> exclude) const {
  return VoteLabel(Query(query, k, exclude));
}

}  // namespace retrieval
}  // namespace sdtw
