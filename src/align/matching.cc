#include "align/matching.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ts/time_series.h"

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

static_assert(sift::FeatureBlock::kLanes == kMatchLanes,
              "block rows and padding are what the kernels read");

MatchSide SideOf(const sift::FeatureBlock& block) {
  MatchSide side;
  side.amplitude = block.amplitude();
  side.position = block.position();
  side.sigma = block.sigma();
  side.descriptors = block.descriptors();
  side.stride = block.stride();
  side.size = block.size();
  return side;
}

// Candidates of X keypoints [begin, end) against every Y keypoint, into
// `out` (align/match_kernel.h), with the threshold options and
// `max_shift` (< 0: no position test). A pair whose descriptors differ
// in length gets +inf, as DescriptorDistance gives it.
void ScoreCandidates(const MatchKernelOps& ops, const sift::FeatureBlock& x,
                     std::size_t begin, std::size_t end,
                     const sift::FeatureBlock& y,
                     const MatchingOptions& options, double max_shift,
                     MatchScratch::Candidates& out) {
  const std::size_t rows = end - begin;
  const std::size_t slots = rows * y.size() + kMatchLanes;
  if (out.j.size() < slots) {
    out.j.resize(slots);
    out.sq.resize(slots);
  }
  if (out.row_end.size() < rows) out.row_end.resize(rows);
  MatchRows m;
  m.x = SideOf(x);
  m.y = SideOf(y);
  m.x_begin = begin;
  m.x_end = end;
  m.tau_amplitude = options.tau_amplitude;
  m.tau_scale = options.tau_scale;
  m.max_shift = max_shift;
  // Past a shorter descriptor's end a block holds zeros, which add
  // exactly 0 to a sum, so equal-length pairs need no per-pair length.
  m.length = std::min(x.descriptor_length(), y.descriptor_length());
  m.j = out.j.data();
  m.sq = out.sq.data();
  m.row_end = out.row_end.data();
  ops.score_rows(m);
  if (x.uniform() && y.uniform() &&
      x.descriptor_length() == y.descriptor_length()) {
    return;
  }
  std::size_t c = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t length = x.descriptor_length(begin + r);
    for (; c < out.row_end[r]; ++c) {
      if (y.descriptor_length(out.j[c]) != length) out.sq[c] = kInf;
    }
  }
}

// Best and second-best squared distance among one keypoint's candidates,
// offered in index order.
struct BestTwo {
  std::size_t best_index = 0;
  double best_sq = kInf;
  double second_sq = kInf;
  bool found = false;

  // Selects instead of branching: which candidate wins is data, not a
  // pattern the branch predictor could learn.
  void Offer(std::size_t index, double sq) {
    const bool best = sq < best_sq;
    second_sq = best ? best_sq : (sq < second_sq ? sq : second_sq);
    best_sq = best ? sq : best_sq;
    best_index = best ? index : best_index;
    found = found || best;
  }

  // Offers the candidates [first, last) of `c`.
  void OfferAll(const MatchScratch::Candidates& c, std::size_t first,
                std::size_t last) {
    for (std::size_t k = first; k < last; ++k) Offer(c.j[k], c.sq[k]);
  }
};

}  // namespace

void FindDominantPairs(const sift::FeatureBlock& keypoints_x,
                       const sift::FeatureBlock& keypoints_y,
                       const MatchingOptions& options, std::size_t len_x,
                       std::size_t len_y, MatchScratch& scratch,
                       std::vector<MatchPair>* pairs) {
  pairs->clear();
  pairs->reserve(keypoints_x.size());  // at most one pair per X keypoint
  const double max_shift =
      (options.tau_position > 0.0 && len_x > 0 && len_y > 0)
          ? options.tau_position * static_cast<double>(std::max(len_x, len_y))
          : -1.0;
  const MatchKernelOps& ops =
      scratch.kernel != nullptr ? *scratch.kernel : ActiveMatchKernelOps();
  const MatchScratch::Candidates& forward = scratch.forward;
  ScoreCandidates(ops, keypoints_x, 0, keypoints_x.size(), keypoints_y,
                  options, max_shift, scratch.forward);
  for (std::size_t i = 0; i < keypoints_x.size(); ++i) {
    BestTwo candidates;
    candidates.OfferAll(forward, i == 0 ? 0 : forward.row_end[i - 1],
                        forward.row_end[i]);
    if (!candidates.found) continue;
    const double best = std::sqrt(candidates.best_sq);
    const double second = std::sqrt(candidates.second_sq);
    // Distinctiveness: the winner must beat the runner-up by the factor
    // τ_d. When only one candidate exists, second is +inf and the test
    // passes trivially.
    if (best * options.tau_distinct > second) continue;
    if (options.require_mutual) {
      // Distances and threshold tests are symmetric, so Y's best
      // keypoint scored against X is the back direction exactly.
      ScoreCandidates(ops, keypoints_y, candidates.best_index,
                      candidates.best_index + 1, keypoints_x, options,
                      max_shift, scratch.back);
      BestTwo back;
      back.OfferAll(scratch.back, 0, scratch.back.row_end[0]);
      if (!back.found || back.best_index != i) continue;
    }
    pairs->push_back(MatchPair{i, candidates.best_index, best});
  }
}

std::vector<MatchPair> FindDominantPairs(
    const std::vector<sift::Keypoint>& keypoints_x,
    const std::vector<sift::Keypoint>& keypoints_y,
    const MatchingOptions& options, std::size_t len_x, std::size_t len_y) {
  const ts::TimeSeries no_series;
  MatchScratch scratch;
  std::vector<MatchPair> pairs;
  FindDominantPairs(sift::FeatureBlock(keypoints_x, no_series),
                    sift::FeatureBlock(keypoints_y, no_series), options,
                    len_x, len_y, scratch, &pairs);
  return pairs;
}

}  // namespace align
}  // namespace sdtw
