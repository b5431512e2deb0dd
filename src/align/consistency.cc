#include "align/consistency.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sdtw {
namespace align {

namespace {

// Rank a boundary at `v` would take among the boundaries already committed
// on one series (the start and end of every kept pair): the number
// strictly smaller. Equal values share a rank (paper footnote 1: ties on
// identical time values are treated as compatible).
std::size_t RankOf(const std::vector<AlignedPair>& kept,
                   double AlignedPair::*start, double AlignedPair::*end,
                   double v) {
  constexpr double kTieEps = 1e-9;
  std::size_t r = 0;
  for (const AlignedPair& p : kept) {
    if (p.*start < v - kTieEps) ++r;
    if (p.*end < v - kTieEps) ++r;
  }
  return r;
}

// True when a kept pair already uses the candidate's X or Y feature.
bool UsesFeature(const std::vector<AlignedPair>& kept, const MatchPair& m) {
  return std::any_of(kept.begin(), kept.end(), [&](const AlignedPair& p) {
    return p.index_x == m.index_x || p.index_y == m.index_y;
  });
}

// Sample index of a committed boundary on a series of `len` samples.
std::size_t CutAt(double boundary, std::size_t len) {
  return static_cast<std::size_t>(std::clamp(
      std::llround(boundary), 0LL, static_cast<long long>(len - 1)));
}

// Sorts one cut field of `intervals` ascending, in place. Cuts are plain
// integers, so any sort gives the same sequence.
void SortCuts(std::vector<IntervalPair>& intervals,
              std::size_t IntervalPair::*cut) {
  for (std::size_t k = 1; k < intervals.size(); ++k) {
    const std::size_t v = intervals[k].*cut;
    std::size_t pos = k;
    for (; pos > 0 && intervals[pos - 1].*cut > v; --pos) {
      intervals[pos].*cut = intervals[pos - 1].*cut;
    }
    intervals[pos].*cut = v;
  }
}

}  // namespace

PairScores ScorePair(const sift::FeatureBlock& x, std::size_t i,
                     const sift::FeatureBlock& y, std::size_t j,
                     double descriptor_distance) {
  PairScores s;
  // Keypoint::scope_length() of each feature: twice its radius.
  const double scope_sum = 2.0 * sift::ScopeRadius(x.sigma()[i]) +
                           2.0 * sift::ScopeRadius(y.sigma()[j]);
  s.mu_align = (scope_sum / 2.0) /
               (1.0 + std::abs(x.position()[i] - y.position()[j]));
  s.mu_desc = 1.0 / (1.0 + descriptor_distance);
  const double ax = x.scope_amplitude()[i];
  const double ay = y.scope_amplitude()[j];
  const double denom = std::max(std::max(ax, ay), 1e-12);
  s.delta_amp = std::clamp(std::abs(ax - ay) / denom, 0.0, 1.0);
  return s;
}

std::vector<AlignedPair> PruneInconsistent(
    const ts::TimeSeries& x, const ts::TimeSeries& y,
    const std::vector<sift::Keypoint>& keypoints_x,
    const std::vector<sift::Keypoint>& keypoints_y,
    const std::vector<MatchPair>& pairs, const ConsistencyOptions& options) {
  std::vector<ScoredPair> candidates;
  std::vector<AlignedPair> kept;
  PruneInconsistent(sift::FeatureBlock(keypoints_x, x),
                    sift::FeatureBlock(keypoints_y, y), pairs, options,
                    &candidates, &kept);
  return kept;
}

void PruneInconsistent(const sift::FeatureBlock& keypoints_x,
                       const sift::FeatureBlock& keypoints_y,
                       const std::vector<MatchPair>& pairs,
                       const ConsistencyOptions& options,
                       std::vector<ScoredPair>* candidates,
                       std::vector<AlignedPair>* kept) {
  kept->clear();
  candidates->clear();
  if (pairs.empty()) return;
  std::vector<ScoredPair>& cands = *candidates;
  cands.reserve(pairs.size());
  kept->reserve(pairs.size());

  // Step 1: raw scores.
  double mu_desc_min = std::numeric_limits<double>::infinity();
  for (const MatchPair& p : pairs) {
    if (p.index_x >= keypoints_x.size() || p.index_y >= keypoints_y.size()) {
      continue;
    }
    ScoredPair c;
    c.match = p;
    c.scores = ScorePair(keypoints_x, p.index_x, keypoints_y, p.index_y,
                         p.descriptor_distance);
    mu_desc_min = std::min(mu_desc_min, c.scores.mu_desc);
    cands.push_back(c);
  }
  if (cands.empty()) return;
  if (mu_desc_min <= 0.0) mu_desc_min = 1e-12;

  // µ_sim = (µ_desc / µ_desc_min) × (1 − Δ_amp); then normalise both scores
  // by their maxima and combine with the F-measure.
  double max_align = 0.0;
  double max_sim = 0.0;
  for (ScoredPair& c : cands) {
    c.mu_sim = (c.scores.mu_desc / mu_desc_min) * (1.0 - c.scores.delta_amp);
    max_align = std::max(max_align, c.scores.mu_align);
    max_sim = std::max(max_sim, c.mu_sim);
  }
  if (max_align <= 0.0) max_align = 1.0;
  if (max_sim <= 0.0) max_sim = 1.0;
  for (ScoredPair& c : cands) {
    const double ns_align = c.scores.mu_align / max_align;
    const double ns_sim = c.mu_sim / max_sim;
    const double denom = ns_align + ns_sim;
    c.mu_comb = denom > 0.0 ? 2.0 * ns_align * ns_sim / denom : 0.0;
  }

  // Step 2: greedy commit in descending µ_comb order, ties in match
  // order. A stable sort's output is unique, so this in-place insertion
  // sort orders exactly as std::stable_sort (which allocates a buffer).
  for (std::size_t k = 1; k < cands.size(); ++k) {
    const ScoredPair c = cands[k];
    std::size_t pos = k;
    for (; pos > 0 && c.mu_comb > cands[pos - 1].mu_comb; --pos) {
      cands[pos] = cands[pos - 1];
    }
    cands[pos] = c;
  }
  for (const ScoredPair& c : cands) {
    if (options.unique_features && UsesFeature(*kept, c.match)) continue;
    AlignedPair ap;
    ap.index_x = c.match.index_x;
    ap.index_y = c.match.index_y;
    ap.start_x = keypoints_x.scope_start()[ap.index_x];
    ap.end_x = keypoints_x.scope_end()[ap.index_x];
    ap.start_y = keypoints_y.scope_start()[ap.index_y];
    ap.end_y = keypoints_y.scope_end()[ap.index_y];
    ap.mu_align = c.scores.mu_align;
    ap.mu_sim = c.mu_sim;
    ap.mu_comb = c.mu_comb;

    // Hypothetical insertion ranks among the kept pairs' boundaries. The
    // start and end of the same feature are inserted together, so the
    // end's rank counts the start as already present when start < end.
    const std::size_t rank_st_x =
        RankOf(*kept, &AlignedPair::start_x, &AlignedPair::end_x, ap.start_x);
    const std::size_t rank_st_y =
        RankOf(*kept, &AlignedPair::start_y, &AlignedPair::end_y, ap.start_y);
    std::size_t rank_end_x =
        RankOf(*kept, &AlignedPair::start_x, &AlignedPair::end_x, ap.end_x);
    std::size_t rank_end_y =
        RankOf(*kept, &AlignedPair::start_y, &AlignedPair::end_y, ap.end_y);
    if (ap.start_x < ap.end_x) ++rank_end_x;
    if (ap.start_y < ap.end_y) ++rank_end_y;

    if (rank_st_x == rank_st_y && rank_end_x == rank_end_y) {
      kept->push_back(ap);
    }
    // Else: drop the pair; its boundaries are not committed.
  }

  std::sort(kept->begin(), kept->end(),
            [](const AlignedPair& a, const AlignedPair& b) {
              return a.start_x < b.start_x;
            });
}

std::vector<IntervalPair> BuildIntervals(
    std::size_t len_x, std::size_t len_y,
    const std::vector<AlignedPair>& pairs) {
  std::vector<IntervalPair> intervals;
  BuildIntervals(len_x, len_y, pairs, &intervals);
  return intervals;
}

void BuildIntervals(std::size_t len_x, std::size_t len_y,
                    const std::vector<AlignedPair>& pairs,
                    std::vector<IntervalPair>* intervals) {
  intervals->clear();
  if (len_x == 0 || len_y == 0) return;

  // Each series is cut at 0, at every committed boundary (rounded to a
  // sample) and at len-1; interval k runs from cut k to cut k+1. The
  // boundaries are rank-consistent by construction, so sorting each
  // side's cuts independently preserves the correspondence. Rounding is
  // monotone, so sorting the rounded cuts orders them as sorting the
  // boundaries would. Equal cuts give empty intervals the band builders
  // must bridge.
  std::vector<IntervalPair>& iv = *intervals;
  iv.resize(2 * pairs.size() + 1);
  iv[0].begin_x = 0;
  iv[0].begin_y = 0;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    iv[2 * p + 1].begin_x = CutAt(pairs[p].start_x, len_x);
    iv[2 * p + 2].begin_x = CutAt(pairs[p].end_x, len_x);
    iv[2 * p + 1].begin_y = CutAt(pairs[p].start_y, len_y);
    iv[2 * p + 2].begin_y = CutAt(pairs[p].end_y, len_y);
  }
  SortCuts(iv, &IntervalPair::begin_x);
  SortCuts(iv, &IntervalPair::begin_y);
  for (std::size_t k = 0; k + 1 < iv.size(); ++k) {
    iv[k].end_x = iv[k + 1].begin_x;
    iv[k].end_y = iv[k + 1].begin_y;
  }
  iv.back().end_x = len_x - 1;
  iv.back().end_y = len_y - 1;
}

}  // namespace align
}  // namespace sdtw
