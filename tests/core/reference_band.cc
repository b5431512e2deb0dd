#include "reference_band.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <span>

#include "ts/stats.h"

namespace sdtw {
namespace reference {

namespace {

using align::AlignedPair;
using align::IntervalPair;
using align::MatchPair;
using core::ConstraintOptions;
using core::ConstraintType;

// --- matching ---------------------------------------------------------------

bool PassesThresholds(const sift::Keypoint& a, const sift::Keypoint& b,
                      const align::MatchingOptions& options,
                      double max_shift) {
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

double SquaredDistanceEarlyAbandon(const std::vector<double>& a,
                                   const std::vector<double>& b,
                                   double cutoff_sq) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sq += d * d;
    if (sq > cutoff_sq) return sq;
  }
  return sq;
}

bool BestTwo(const sift::Keypoint& a, const std::vector<sift::Keypoint>& ys,
             const align::MatchingOptions& options, double max_shift,
             std::size_t* best_idx, double* best_dist, double* second_dist) {
  double best_sq = std::numeric_limits<double>::infinity();
  double second_sq = std::numeric_limits<double>::infinity();
  bool found = false;
  for (std::size_t j = 0; j < ys.size(); ++j) {
    if (!PassesThresholds(a, ys[j], options, max_shift)) continue;
    const double sq = SquaredDistanceEarlyAbandon(a.descriptor,
                                                  ys[j].descriptor,
                                                  second_sq);
    if (sq < best_sq) {
      second_sq = best_sq;
      best_sq = sq;
      *best_idx = j;
      found = true;
    } else if (sq < second_sq) {
      second_sq = sq;
    }
  }
  *best_dist = std::sqrt(best_sq);
  *second_dist = std::sqrt(second_sq);
  return found;
}

// --- consistency ------------------------------------------------------------

double ScopeAmplitude(const ts::TimeSeries& s, double start, double end) {
  if (s.empty()) return 0.0;
  const std::size_t b = static_cast<std::size_t>(
      std::clamp(start, 0.0, static_cast<double>(s.size() - 1)));
  const std::size_t e = static_cast<std::size_t>(
      std::clamp(end, 0.0, static_cast<double>(s.size() - 1)));
  if (e < b) return 0.0;
  return ts::MeanAbs(
      std::span<const double>(s.values().data() + b, e - b + 1));
}

void ClampScope(const sift::Keypoint& kp, std::size_t len, double* start,
                double* end) {
  const double maxi = len > 0 ? static_cast<double>(len - 1) : 0.0;
  *start = std::clamp(kp.position - kp.scope_radius(), 0.0, maxi);
  *end = std::clamp(kp.position + kp.scope_radius(), 0.0, maxi);
}

class BoundaryList {
 public:
  std::size_t RankOf(double v) const {
    std::size_t r = 0;
    for (double c : committed_) {
      if (c < v - kTieEps) ++r;
    }
    return r;
  }

  void Insert(double v) { committed_.insert(v); }

 private:
  static constexpr double kTieEps = 1e-9;
  std::multiset<double> committed_;
};

align::PairScores ScorePair(const ts::TimeSeries& x, const ts::TimeSeries& y,
                            const sift::Keypoint& fx,
                            const sift::Keypoint& fy,
                            double descriptor_distance) {
  align::PairScores s;
  const double scope_sum = fx.scope_length() + fy.scope_length();
  s.mu_align = (scope_sum / 2.0) / (1.0 + std::abs(fx.position - fy.position));
  s.mu_desc = 1.0 / (1.0 + descriptor_distance);
  double sx, ex, sy, ey;
  ClampScope(fx, x.size(), &sx, &ex);
  ClampScope(fy, y.size(), &sy, &ey);
  const double ax = ScopeAmplitude(x, sx, ex);
  const double ay = ScopeAmplitude(y, sy, ey);
  const double denom = std::max(std::max(ax, ay), 1e-12);
  s.delta_amp = std::clamp(std::abs(ax - ay) / denom, 0.0, 1.0);
  return s;
}

// --- constraints ------------------------------------------------------------

std::vector<double> DiagonalCore(std::size_t n, std::size_t m) {
  std::vector<double> core(n, 0.0);
  if (n == 0 || m == 0) return core;
  const double slope =
      n > 1 ? static_cast<double>(m - 1) / static_cast<double>(n - 1) : 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    core[i] = static_cast<double>(i) * slope;
  }
  return core;
}

std::vector<double> AdaptiveCore(std::size_t n, std::size_t m,
                                 const std::vector<IntervalPair>& intervals) {
  std::vector<double> core(n, 0.0);
  if (n == 0 || m == 0) return core;
  if (intervals.empty()) return DiagonalCore(n, m);

  for (const IntervalPair& ip : intervals) {
    const std::size_t bx = std::min(ip.begin_x, n - 1);
    const std::size_t ex = std::min(ip.end_x, n - 1);
    const std::size_t by = std::min(ip.begin_y, m - 1);
    const std::size_t ey = std::min(ip.end_y, m - 1);
    if (ex == bx) {
      core[ex] = (static_cast<double>(by) + static_cast<double>(ey)) / 2.0;
      continue;
    }
    const double span_x = static_cast<double>(ex - bx);
    const double span_y = static_cast<double>(ey) - static_cast<double>(by);
    for (std::size_t i = bx; i <= ex; ++i) {
      const double frac = static_cast<double>(i - bx) / span_x;
      core[i] = static_cast<double>(by) + frac * span_y;
    }
  }
  core[0] = 0.0;
  core[n - 1] = static_cast<double>(m - 1);
  return core;
}

std::size_t IntervalContaining(const std::vector<IntervalPair>& intervals,
                               double col) {
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < intervals.size(); ++k) {
    const double lo = static_cast<double>(intervals[k].begin_y);
    const double hi = static_cast<double>(intervals[k].end_y);
    if (col >= lo && col <= hi) return k;
    const double d = col < lo ? lo - col : col - hi;
    if (d < best_dist) {
      best_dist = d;
      best = k;
    }
  }
  return best;
}

std::vector<double> AdaptiveWidths(std::size_t n, std::size_t m,
                                   const std::vector<IntervalPair>& intervals,
                                   const std::vector<double>& core,
                                   std::size_t radius, double min_fraction,
                                   double max_fraction) {
  std::vector<double> widths(n, static_cast<double>(m));
  if (n == 0 || m == 0) return widths;
  const double min_w = min_fraction > 0.0
                           ? min_fraction * static_cast<double>(m)
                           : 0.0;
  const double max_w = max_fraction > 0.0
                           ? max_fraction * static_cast<double>(m)
                           : static_cast<double>(m);
  for (std::size_t i = 0; i < n; ++i) {
    double w;
    if (intervals.empty()) {
      w = static_cast<double>(m);
    } else {
      const std::size_t k = IntervalContaining(intervals, core[i]);
      const std::size_t lo = k >= radius ? k - radius : 0;
      const std::size_t hi = std::min(intervals.size() - 1, k + radius);
      double sum = 0.0;
      for (std::size_t t = lo; t <= hi; ++t) {
        sum += static_cast<double>(intervals[t].width_y());
      }
      w = sum / static_cast<double>(hi - lo + 1);
    }
    widths[i] = std::clamp(w, std::max(min_w, 1.0), std::max(max_w, 1.0));
  }
  return widths;
}

dtw::Band AssembleBand(std::size_t n, std::size_t m,
                       const std::vector<double>& core,
                       const std::vector<double>& widths) {
  std::vector<dtw::BandRow> rows(n);
  const double last_col = static_cast<double>(m - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double half = std::ceil(widths[i] / 2.0);
    const double lo = std::clamp(core[i] - half, 0.0, last_col);
    const double hi = std::clamp(core[i] + half, 0.0, last_col);
    rows[i].lo = static_cast<std::size_t>(std::floor(lo));
    rows[i].hi = static_cast<std::size_t>(std::ceil(hi));
  }
  dtw::Band band = dtw::Band::FromRows(std::move(rows), m);
  band.MakeFeasible();
  return band;
}

// Copy of dtw::SakoeChibaBand.
dtw::Band SakoeChibaBand(std::size_t n, std::size_t m, double width_fraction) {
  if (n == 0 || m == 0) return dtw::Band();
  width_fraction = std::max(width_fraction, 0.0);
  const double slope =
      n > 1 ? static_cast<double>(m - 1) / (2.0 * static_cast<double>(n - 1))
            : 0.0;
  const double half_width = std::max(
      std::ceil(width_fraction * static_cast<double>(m) / 2.0), slope);
  std::vector<dtw::BandRow> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double core =
        n > 1 ? static_cast<double>(i) * static_cast<double>(m - 1) /
                    static_cast<double>(n - 1)
              : 0.0;
    const double lo = core - half_width;
    const double hi = core + half_width;
    rows[i].lo = lo <= 0.0 ? 0 : static_cast<std::size_t>(std::ceil(lo));
    rows[i].hi = hi >= static_cast<double>(m - 1)
                     ? m - 1
                     : static_cast<std::size_t>(std::floor(hi));
    if (rows[i].lo > rows[i].hi) {
      const std::size_t c = std::min(
          m - 1, static_cast<std::size_t>(std::llround(core)));
      rows[i].lo = rows[i].hi = c;
    }
  }
  dtw::Band b = dtw::Band::FromRows(std::move(rows), m);
  b.MakeFeasible();
  return b;
}

// Copy of dtw::Band::Transpose.
dtw::Band Transpose(const dtw::Band& band) {
  const std::size_t n = band.n();
  const std::size_t m = band.m();
  if (m == 0 || n == 0) return dtw::Band::FromRows({}, n);
  std::vector<dtw::BandRow> rows(m, dtw::BandRow{n - 1, 0});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = band.row(i).lo; j <= band.row(i).hi && j < m; ++j) {
      rows[j].lo = std::min(rows[j].lo, i);
      rows[j].hi = std::max(rows[j].hi, i);
    }
  }
  // FromRows only clamps to the column range, which these rows respect.
  return dtw::Band::FromRows(std::move(rows), n);
}

std::vector<IntervalPair> TransposeIntervals(
    const std::vector<IntervalPair>& intervals) {
  std::vector<IntervalPair> out;
  out.reserve(intervals.size());
  for (const IntervalPair& ip : intervals) {
    IntervalPair t;
    t.begin_x = ip.begin_y;
    t.end_x = ip.end_y;
    t.begin_y = ip.begin_x;
    t.end_y = ip.end_x;
    out.push_back(t);
  }
  return out;
}

dtw::Band BuildDirected(std::size_t n, std::size_t m,
                        const std::vector<IntervalPair>& intervals,
                        const ConstraintOptions& options) {
  switch (options.type) {
    case ConstraintType::kFixedCoreFixedWidth:
      return SakoeChibaBand(n, m, options.fixed_width_fraction);
    case ConstraintType::kFixedCoreAdaptiveWidth: {
      const std::vector<double> core = DiagonalCore(n, m);
      const std::vector<double> widths = AdaptiveWidths(
          n, m, intervals, core, options.width_average_radius,
          options.adaptive_width_min_fraction,
          options.adaptive_width_max_fraction);
      return AssembleBand(n, m, core, widths);
    }
    case ConstraintType::kAdaptiveCoreFixedWidth: {
      const std::vector<double> core = AdaptiveCore(n, m, intervals);
      const std::vector<double> widths(
          n, std::max(1.0, options.fixed_width_fraction *
                               static_cast<double>(m)));
      return AssembleBand(n, m, core, widths);
    }
    case ConstraintType::kAdaptiveCoreAdaptiveWidth: {
      const std::vector<double> core = AdaptiveCore(n, m, intervals);
      const std::vector<double> widths = AdaptiveWidths(
          n, m, intervals, core, options.width_average_radius,
          options.adaptive_width_min_fraction,
          options.adaptive_width_max_fraction);
      return AssembleBand(n, m, core, widths);
    }
  }
  return dtw::Band::Full(n, m);
}

// --- the pipeline -------------------------------------------------------------

// Unions the X-driven band with the transpose of the Y-driven band.
dtw::Band Symmetrize(const dtw::Band& xy_band, const dtw::Band& yx_band) {
  dtw::Band combined = xy_band;
  dtw::Band transposed = Transpose(yx_band);
  transposed.MakeFeasible();
  combined.UnionWith(transposed);
  combined.MakeFeasible();
  return combined;
}

Alignment RunDirected(const ts::TimeSeries& x,
                      const std::vector<sift::Keypoint>& features_x,
                      const ts::TimeSeries& y,
                      const std::vector<sift::Keypoint>& features_y,
                      const core::SdtwOptions& options) {
  Alignment out;
  if (options.constraint.type == ConstraintType::kFixedCoreFixedWidth) {
    out.intervals = reference::BuildIntervals(x.size(), y.size(), {});
    out.band = SakoeChibaBand(x.size(), y.size(),
                              options.constraint.fixed_width_fraction);
    return out;
  }
  const std::vector<MatchPair> pairs = reference::FindDominantPairs(
      features_x, features_y, options.matching, x.size(), y.size());
  out.alignments = reference::PruneInconsistent(
      x, y, features_x, features_y, pairs, options.consistency);
  out.intervals =
      reference::BuildIntervals(x.size(), y.size(), out.alignments);
  ConstraintOptions directed = options.constraint;
  directed.symmetric = false;
  out.band = reference::BuildConstraintBand(x.size(), y.size(),
                                            out.intervals, directed);
  return out;
}

}  // namespace

std::vector<MatchPair> FindDominantPairs(
    const std::vector<sift::Keypoint>& keypoints_x,
    const std::vector<sift::Keypoint>& keypoints_y,
    const align::MatchingOptions& options, std::size_t len_x,
    std::size_t len_y) {
  const double max_shift =
      (options.tau_position > 0.0 && len_x > 0 && len_y > 0)
          ? options.tau_position * static_cast<double>(std::max(len_x, len_y))
          : -1.0;
  std::vector<MatchPair> pairs;
  for (std::size_t i = 0; i < keypoints_x.size(); ++i) {
    std::size_t best_j = 0;
    double best = 0.0, second = 0.0;
    if (!BestTwo(keypoints_x[i], keypoints_y, options, max_shift, &best_j,
                 &best, &second)) {
      continue;
    }
    if (best * options.tau_distinct > second) continue;
    if (options.require_mutual) {
      std::size_t back_i = 0;
      double back_best = 0.0, back_second = 0.0;
      if (!BestTwo(keypoints_y[best_j], keypoints_x, options, max_shift,
                   &back_i, &back_best, &back_second) ||
          back_i != i) {
        continue;
      }
    }
    pairs.push_back(MatchPair{i, best_j, best});
  }
  return pairs;
}

std::vector<AlignedPair> PruneInconsistent(
    const ts::TimeSeries& x, const ts::TimeSeries& y,
    const std::vector<sift::Keypoint>& keypoints_x,
    const std::vector<sift::Keypoint>& keypoints_y,
    const std::vector<MatchPair>& pairs,
    const align::ConsistencyOptions& options) {
  std::vector<AlignedPair> result;
  if (pairs.empty()) return result;

  struct Candidate {
    MatchPair match;
    align::PairScores scores;
    double mu_sim = 0.0;
    double mu_comb = 0.0;
  };
  std::vector<Candidate> cands;
  cands.reserve(pairs.size());
  double mu_desc_min = std::numeric_limits<double>::infinity();
  for (const MatchPair& p : pairs) {
    if (p.index_x >= keypoints_x.size() || p.index_y >= keypoints_y.size()) {
      continue;
    }
    Candidate c;
    c.match = p;
    c.scores = ScorePair(x, y, keypoints_x[p.index_x], keypoints_y[p.index_y],
                         p.descriptor_distance);
    mu_desc_min = std::min(mu_desc_min, c.scores.mu_desc);
    cands.push_back(std::move(c));
  }
  if (cands.empty()) return result;
  if (mu_desc_min <= 0.0) mu_desc_min = 1e-12;

  double max_align = 0.0;
  double max_sim = 0.0;
  for (Candidate& c : cands) {
    c.mu_sim = (c.scores.mu_desc / mu_desc_min) * (1.0 - c.scores.delta_amp);
    max_align = std::max(max_align, c.scores.mu_align);
    max_sim = std::max(max_sim, c.mu_sim);
  }
  if (max_align <= 0.0) max_align = 1.0;
  if (max_sim <= 0.0) max_sim = 1.0;
  for (Candidate& c : cands) {
    const double ns_align = c.scores.mu_align / max_align;
    const double ns_sim = c.mu_sim / max_sim;
    const double denom = ns_align + ns_sim;
    c.mu_comb = denom > 0.0 ? 2.0 * ns_align * ns_sim / denom : 0.0;
  }

  std::stable_sort(cands.begin(), cands.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.mu_comb > b.mu_comb;
                   });
  BoundaryList order_x, order_y;
  std::set<std::size_t> used_x, used_y;
  for (const Candidate& c : cands) {
    if (options.unique_features) {
      if (used_x.count(c.match.index_x) || used_y.count(c.match.index_y)) {
        continue;
      }
    }
    const sift::Keypoint& fx = keypoints_x[c.match.index_x];
    const sift::Keypoint& fy = keypoints_y[c.match.index_y];
    AlignedPair ap;
    ap.index_x = c.match.index_x;
    ap.index_y = c.match.index_y;
    ClampScope(fx, x.size(), &ap.start_x, &ap.end_x);
    ClampScope(fy, y.size(), &ap.start_y, &ap.end_y);
    ap.mu_align = c.scores.mu_align;
    ap.mu_sim = c.mu_sim;
    ap.mu_comb = c.mu_comb;

    const std::size_t rank_st_x = order_x.RankOf(ap.start_x);
    const std::size_t rank_st_y = order_y.RankOf(ap.start_y);
    std::size_t rank_end_x = order_x.RankOf(ap.end_x);
    std::size_t rank_end_y = order_y.RankOf(ap.end_y);
    if (ap.start_x < ap.end_x) ++rank_end_x;
    if (ap.start_y < ap.end_y) ++rank_end_y;

    if (rank_st_x == rank_st_y && rank_end_x == rank_end_y) {
      order_x.Insert(ap.start_x);
      order_x.Insert(ap.end_x);
      order_y.Insert(ap.start_y);
      order_y.Insert(ap.end_y);
      used_x.insert(ap.index_x);
      used_y.insert(ap.index_y);
      result.push_back(std::move(ap));
    }
  }

  std::sort(result.begin(), result.end(),
            [](const AlignedPair& a, const AlignedPair& b) {
              return a.start_x < b.start_x;
            });
  return result;
}

std::vector<IntervalPair> BuildIntervals(std::size_t len_x, std::size_t len_y,
                                         const std::vector<AlignedPair>& pairs) {
  std::vector<IntervalPair> intervals;
  if (len_x == 0 || len_y == 0) return intervals;

  std::vector<double> bx, by;
  bx.reserve(pairs.size() * 2);
  by.reserve(pairs.size() * 2);
  for (const AlignedPair& p : pairs) {
    bx.push_back(p.start_x);
    bx.push_back(p.end_x);
    by.push_back(p.start_y);
    by.push_back(p.end_y);
  }
  std::sort(bx.begin(), bx.end());
  std::sort(by.begin(), by.end());

  auto cuts = [](const std::vector<double>& b, std::size_t len) {
    std::vector<std::size_t> c;
    c.push_back(0);
    for (double v : b) {
      const std::size_t s = static_cast<std::size_t>(
          std::clamp(std::llround(v), 0LL, static_cast<long long>(len - 1)));
      c.push_back(s);
    }
    c.push_back(len - 1);
    for (std::size_t i = 1; i < c.size(); ++i) {
      c[i] = std::max(c[i], c[i - 1]);
    }
    return c;
  };
  const std::vector<std::size_t> cx = cuts(bx, len_x);
  const std::vector<std::size_t> cy = cuts(by, len_y);
  const std::size_t segments = cx.size() - 1;
  intervals.reserve(segments);
  for (std::size_t k = 0; k < segments; ++k) {
    IntervalPair ip;
    ip.begin_x = cx[k];
    ip.end_x = std::max(cx[k + 1], cx[k]);
    ip.begin_y = cy[k];
    ip.end_y = std::max(cy[k + 1], cy[k]);
    intervals.push_back(ip);
  }
  return intervals;
}

dtw::Band BuildConstraintBand(std::size_t n, std::size_t m,
                              const std::vector<IntervalPair>& intervals,
                              const ConstraintOptions& options) {
  if (n == 0 || m == 0) return dtw::Band();
  dtw::Band band = BuildDirected(n, m, intervals, options);
  if (options.symmetric &&
      options.type != ConstraintType::kFixedCoreFixedWidth) {
    const std::vector<IntervalPair> t = TransposeIntervals(intervals);
    dtw::Band yband = BuildDirected(m, n, t, options);
    dtw::Band yt = Transpose(yband);
    yt.MakeFeasible();
    band.UnionWith(yt);
    band.MakeFeasible();
  }
  return band;
}

Alignment Align(const ts::TimeSeries& x,
                const std::vector<sift::Keypoint>& features_x,
                const ts::TimeSeries& y,
                const std::vector<sift::Keypoint>& features_y,
                const core::SdtwOptions& options) {
  Alignment forward = RunDirected(x, features_x, y, features_y, options);
  if (options.constraint.symmetric) {
    const Alignment backward =
        RunDirected(y, features_y, x, features_x, options);
    forward.band = Symmetrize(forward.band, backward.band);
  }
  return forward;
}

}  // namespace reference
}  // namespace sdtw
