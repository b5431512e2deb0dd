#include "dtw/lower_bounds.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

namespace sdtw {
namespace dtw {

Envelope MakeEnvelope(const ts::TimeSeries& s, std::size_t r) {
  Envelope env;
  const std::size_t n = s.size();
  if (n == 0) return env;
  if (r >= n - 1) {
    // Full-span window: [i-r, i+r] covers the whole series at every i, so
    // every element of the envelope is the global extremum — one
    // minmax_element pass and two constant fills instead of running the
    // deque machinery over 2n push/pop events for a constant answer.
    const auto minmax = std::minmax_element(s.begin(), s.end());
    env.upper.assign(n, *minmax.second);
    env.lower.assign(n, *minmax.first);
    return env;
  }
  env.upper.assign(n, 0.0);
  env.lower.assign(n, 0.0);
  // Monotonic deques over the sliding window [i-r, i+r].
  std::deque<std::size_t> maxq, minq;
  auto push = [&](std::size_t idx) {
    while (!maxq.empty() && s[maxq.back()] <= s[idx]) maxq.pop_back();
    maxq.push_back(idx);
    while (!minq.empty() && s[minq.back()] >= s[idx]) minq.pop_back();
    minq.push_back(idx);
  };
  std::size_t next = 0;
  for (; next < std::min(n, r + 1); ++next) push(next);
  for (std::size_t i = 0; i < n; ++i) {
    // Window is [i-r, i+r]; extend right edge, retire left edge.
    while (next < n && next <= i + r) push(next++);
    while (!maxq.empty() && maxq.front() + r < i) maxq.pop_front();
    while (!minq.empty() && minq.front() + r < i) minq.pop_front();
    env.upper[i] = s[maxq.front()];
    env.lower[i] = s[minq.front()];
  }
  return env;
}

SeriesStats MakeSeriesStats(const ts::TimeSeries& s) {
  SeriesStats stats;
  if (s.empty()) return stats;
  stats.first = s.front();
  stats.last = s.back();
  const auto minmax = std::minmax_element(s.begin(), s.end());
  stats.min = *minmax.first;
  stats.max = *minmax.second;
  stats.valid = true;
  return stats;
}

double LbKim(const ts::TimeSeries& x, const ts::TimeSeries& y) {
  return LbKim(MakeSeriesStats(x), MakeSeriesStats(y));
}

double LbKim(const SeriesStats& x, const SeriesStats& y) {
  if (!x.valid || !y.valid) return 0.0;
  const double d_first = std::abs(x.first - y.first);
  const double d_last = std::abs(x.last - y.last);
  const double d_min = std::abs(x.min - y.min);
  const double d_max = std::abs(x.max - y.max);
  // Each of the four quantities individually lower-bounds the DTW distance
  // (first/last points are always matched to each other; the smaller global
  // extremum must be matched to a value on the other side of the other
  // series' extremum). They can coincide on the same path element, so the
  // max — not the sum — is the sound combination.
  return std::max({d_first, d_last, d_min, d_max});
}

double LbKeogh(const ts::TimeSeries& x, const Envelope& y_envelope) {
  if (x.size() != y_envelope.upper.size()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] > y_envelope.upper[i]) {
      sum += x[i] - y_envelope.upper[i];
    } else if (x[i] < y_envelope.lower[i]) {
      sum += y_envelope.lower[i] - x[i];
    }
  }
  return sum;
}

double LbKeoghAbandoning(const ts::TimeSeries& x, const SeriesStats& y,
                         double abandon_above, bool* abandoned,
                         CostKind cost) {
  if (abandoned != nullptr) *abandoned = false;
  if (!y.valid) return 0.0;
  const bool squared = cost == CostKind::kSquared;
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    // Same comparisons as LbKeogh; an inside point adds +0.0, which leaves
    // the non-negative sum bitwise unchanged.
    double d = 0.0;
    if (x[i] > y.max) {
      d = x[i] - y.max;
    } else if (x[i] < y.min) {
      d = y.min - x[i];
    }
    sum += squared ? d * d : d;
    if (sum > abandon_above) {
      // Every remaining term is >= 0, so the full sum would also exceed
      // the threshold: the caller's prune decision is already settled.
      if (abandoned != nullptr) *abandoned = i + 1 < x.size();
      return sum;
    }
  }
  return sum;
}

double LbKeogh(const ts::TimeSeries& x, const ts::TimeSeries& y,
               std::size_t r) {
  return LbKeogh(x, MakeEnvelope(y, r));
}

}  // namespace dtw
}  // namespace sdtw
