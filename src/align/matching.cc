#include "align/matching.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>

namespace sdtw {
namespace align {

double DescriptorDistance(const std::vector<double>& a,
                          const std::vector<double>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sq += d * d;
  }
  return std::sqrt(sq);
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// True when the pair passes the amplitude, scale and position threshold
// tests. max_shift < 0 disables the position test.
bool PassesThresholds(const sift::Keypoint& a, const sift::Keypoint& b,
                      const MatchingOptions& options, double max_shift) {
  if (std::abs(a.amplitude - b.amplitude) > options.tau_amplitude) {
    return false;
  }
  if (max_shift >= 0.0 && std::abs(a.position - b.position) > max_shift) {
    return false;
  }
  const double s1 = std::max(a.sigma, 1e-9);
  const double s2 = std::max(b.sigma, 1e-9);
  const double ratio = s1 > s2 ? s1 / s2 : s2 / s1;
  return ratio <= options.tau_scale;
}

// One candidate pair awaiting its squared descriptor distance.
struct Lane {
  std::size_t i = 0;  // index into the X-side keypoints
  std::size_t j = 0;  // index into the Y-side keypoints
  const double* a = nullptr;
  const double* b = nullptr;
};

// Pairs whose distances are summed together. A single distance is one
// dependent chain of adds; four independent chains keep the FP units
// busy instead of waiting on each add's latency.
constexpr std::size_t kLanes = 4;

// Squared distance of every lane's descriptors, all of length `len`. Each
// lane has its own accumulator and sums its elements in index order, so
// every result is bitwise the one-pair-at-a-time sum.
std::array<double, kLanes> SquaredDistances(
    const std::array<Lane, kLanes>& lanes, std::size_t len) {
  std::array<double, kLanes> sq{};
  for (std::size_t t = 0; t < len; ++t) {
    for (std::size_t k = 0; k < kLanes; ++k) {
      const double d = lanes[k].a[t] - lanes[k].b[t];
      sq[k] += d * d;
    }
  }
  return sq;
}

// Calls sink(i, j, squared distance) for every pair (xs[i], ys[j]) that
// passes the threshold tests, in (i, j) order, computing the distances
// kLanes pairs at a time (+inf for descriptors of different lengths).
template <typename Sink>
void ScorePassingPairs(std::span<const sift::Keypoint> xs,
                       const std::vector<sift::Keypoint>& ys,
                       const MatchingOptions& options, double max_shift,
                       Sink&& sink) {
  std::array<Lane, kLanes> lanes;
  std::size_t queued = 0;
  std::size_t len = 0;  // descriptor length of the queued lanes
  const auto flush = [&] {
    if (queued == 0) return;
    // Idle lanes repeat lane 0; their sums are discarded.
    for (std::size_t k = queued; k < kLanes; ++k) lanes[k] = lanes[0];
    const std::array<double, kLanes> sq = SquaredDistances(lanes, len);
    for (std::size_t k = 0; k < queued; ++k) {
      sink(lanes[k].i, lanes[k].j, sq[k]);
    }
    queued = 0;
  };
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::vector<double>& a = xs[i].descriptor;
    for (std::size_t j = 0; j < ys.size(); ++j) {
      if (!PassesThresholds(xs[i], ys[j], options, max_shift)) continue;
      const std::vector<double>& b = ys[j].descriptor;
      if (a.size() != b.size() || a.size() != len) flush();
      if (a.size() != b.size()) {
        sink(i, j, kInf);
        continue;
      }
      len = a.size();
      lanes[queued++] = Lane{i, j, a.data(), b.data()};
      if (queued == kLanes) flush();
    }
  }
  flush();
}

// Best and second-best squared distance among one keypoint's candidates,
// offered in index order. Sums are never abandoned early: a partial sum
// past the running second-best only grows, so its full sum displaces
// neither, and the decisions are the same.
struct BestTwo {
  std::size_t best_index = 0;
  double best_sq = kInf;
  double second_sq = kInf;
  bool found = false;

  void Offer(std::size_t index, double sq) {
    if (sq < best_sq) {
      second_sq = best_sq;
      best_sq = sq;
      best_index = index;
      found = true;
    } else if (sq < second_sq) {
      second_sq = sq;
    }
  }
};

}  // namespace

std::vector<MatchPair> FindDominantPairs(
    const std::vector<sift::Keypoint>& keypoints_x,
    const std::vector<sift::Keypoint>& keypoints_y,
    const MatchingOptions& options, std::size_t len_x, std::size_t len_y) {
  std::vector<MatchPair> pairs;
  FindDominantPairs(keypoints_x, keypoints_y, options, len_x, len_y, &pairs);
  return pairs;
}

void FindDominantPairs(const std::vector<sift::Keypoint>& keypoints_x,
                       const std::vector<sift::Keypoint>& keypoints_y,
                       const MatchingOptions& options, std::size_t len_x,
                       std::size_t len_y, std::vector<MatchPair>* pairs) {
  pairs->clear();
  pairs->reserve(keypoints_x.size());  // at most one pair per X keypoint
  const double max_shift =
      (options.tau_position > 0.0 && len_x > 0 && len_y > 0)
          ? options.tau_position * static_cast<double>(std::max(len_x, len_y))
          : -1.0;
  // Candidates arrive grouped by X keypoint; each group is judged once
  // the next one starts, and the last after the scan.
  std::size_t open = keypoints_x.size();
  BestTwo candidates;
  const auto judge = [&] {
    if (open == keypoints_x.size() || !candidates.found) return;
    const double best = std::sqrt(candidates.best_sq);
    const double second = std::sqrt(candidates.second_sq);
    // Distinctiveness: the winner must beat the runner-up by the factor
    // τ_d. When only one candidate exists, second is +inf and the test
    // passes trivially.
    if (best * options.tau_distinct > second) return;
    if (options.require_mutual) {
      BestTwo back;
      ScorePassingPairs(
          std::span<const sift::Keypoint>(&keypoints_y[candidates.best_index],
                                          1),
          keypoints_x, options, max_shift,
          [&](std::size_t, std::size_t i, double sq) { back.Offer(i, sq); });
      if (!back.found || back.best_index != open) return;
    }
    pairs->push_back(MatchPair{open, candidates.best_index, best});
  };
  ScorePassingPairs(keypoints_x, keypoints_y, options, max_shift,
                    [&](std::size_t i, std::size_t j, double sq) {
                      if (i != open) {
                        judge();
                        open = i;
                        candidates = BestTwo{};
                      }
                      candidates.Offer(j, sq);
                    });
  judge();
}

}  // namespace align
}  // namespace sdtw
