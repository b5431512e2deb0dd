#include "sift/extractor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>

#include "signal/gaussian.h"

namespace sdtw {
namespace sift {

namespace {

// A point that passed the relaxed extremum test: sample `index` of DoG
// level `level` in octave `octave`. Kept small: a series has hundreds.
struct Candidate {
  double response = 0.0;
  std::size_t index = 0;
  std::uint32_t octave = 0;
  std::uint32_t level = 0;
};

// A candidate placed in the series: what the cap orders by and what a
// keypoint keeps.
struct Placed {
  Candidate at;
  double position = 0.0;
  double sigma = 0.0;
  double amplitude = 0.0;
};

bool ByPlace(const Placed& a, const Placed& b) {
  if (a.position != b.position) return a.position < b.position;
  return a.sigma < b.sigma;
}

bool Stronger(const Placed& a, const Placed& b) {
  return std::abs(a.at.response) > std::abs(b.at.response);
}

// Quadratic sub-sample refinement of an extremum at index i of d:
// fits a parabola through (i-1, i, i+1) and returns the fractional offset
// of its apex in [-0.5, 0.5].
double RefineOffset(std::span<const double> d, std::size_t i) {
  if (i == 0 || i + 1 >= d.size()) return 0.0;
  const double left = d[i - 1];
  const double mid = d[i];
  const double right = d[i + 1];
  const double denom = left - 2.0 * mid + right;
  if (std::abs(denom) < 1e-12) return 0.0;
  double offset = 0.5 * (left - right) / denom;
  return std::clamp(offset, -0.5, 0.5);
}

Placed Locate(const signal::ScaleSpace& space, const Candidate& c) {
  Placed p;
  p.at = c;
  const double offset = RefineOffset(space.dog(c.octave, c.level), c.index);
  p.position = space.ToOriginalPosition(
      c.octave, static_cast<double>(c.index) + offset);
  p.sigma = space.AbsoluteSigma(c.octave, c.level);
  // Amplitude from the matching Gaussian level (smoothed value at the
  // feature centre).
  p.amplitude = space.gaussian(c.octave, c.level)[c.index];
  return p;
}

// Scale-space extrema in (octave, level, sample) order.
void Detect(const signal::ScaleSpace& space, const ExtractorOptions& options,
            std::vector<Candidate>* candidates) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double keep = 1.0 - options.epsilon;
  const bool minima = options.detect_minima;
  const std::size_t num_dogs = space.num_dogs();
  if (num_dogs < 3) return;
  std::size_t tested = 0;
  for (std::size_t o = 0; o < space.num_octaves(); ++o) {
    tested += (num_dogs - 2) * (std::max<std::size_t>(space.length(o), 2) - 2);
  }
  candidates->reserve(tested);
  for (std::size_t o = 0; o < space.num_octaves(); ++o) {
    // Interior DoG levels have both scale neighbours.
    for (std::size_t l = 1; l + 1 < num_dogs; ++l) {
      const std::span<const double> cur = space.dog(o, l);
      const std::span<const double> down = space.dog(o, l - 1);
      const std::span<const double> up = space.dog(o, l + 1);
      const std::size_t len = cur.size();
      if (len < 3) continue;
      for (std::size_t i = 1; i + 1 < len; ++i) {
        const double v = cur[i];
        if (std::abs(v) < options.min_contrast) continue;
        // Relaxed extremum test against the 8 (time, scale) neighbours:
        // a maximum is rejected when v < (1 - eps) * max(nb, 0) for some
        // neighbour nb, a minimum when v > (1 - eps) * min(nb, 0). Written
        // on the signed values so that a peak among dips is not suppressed
        // by magnitude alone. Rounding keeps (1 - eps) * nb monotone in nb,
        // so for v > 0 (v < 0) the largest (smallest) neighbour decides:
        // one product per sample and no branch on a sign. The extremes skip
        // NaN neighbours, which never reject: std::max(NaN, 0.0) is NaN and
        // no comparison with it holds. A NaN v fails both signs, so it is
        // never a candidate.
        const double neighbors[8] = {cur[i - 1], cur[i + 1], down[i - 1],
                                     down[i],    down[i + 1], up[i - 1],
                                     up[i],      up[i + 1]};
        double hi = -kInf;
        double lo = kInf;
        for (const double nb : neighbors) {
          hi = nb > hi ? nb : hi;
          lo = nb < lo ? nb : lo;
        }
        const bool is_max = (v > 0.0) & !(v < keep * hi);
        const bool is_min = minima & (v < 0.0) & !(v > keep * lo);
        if (is_max | is_min) {
          candidates->push_back({v, i, static_cast<std::uint32_t>(o),
                                 static_cast<std::uint32_t>(l)});
        }
      }
    }
  }
}

// The `cap` strongest candidates by |response| in (position, σ) order:
// the set and the order of sorting all candidates by (position, σ),
// nth_element by strength and sorting the kept ones again, which is what
// defines the result (README, "Salient-feature extraction").
std::vector<Placed> Keep(const signal::ScaleSpace& space, std::size_t cap,
                         const std::vector<Candidate>& candidates) {
  const auto place_all = [&] {
    std::vector<Placed> all;
    all.reserve(candidates.size());
    for (const Candidate& c : candidates) all.push_back(Locate(space, c));
    std::sort(all.begin(), all.end(), ByPlace);
    return all;
  };
  if (cap == 0 || candidates.size() <= cap) return place_all();

  // c and v, the cap-th and (cap+1)-th largest |response|: the least two
  // of a min-heap of the cap+1 largest. It is filled from the coarsest
  // octave, where responses tend to be larger, so that fewer later ones
  // displace its least. |response| is never NaN: a NaN is no candidate.
  std::vector<double> top;
  top.reserve(cap + 1);
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    const double strength = std::abs(it->response);
    if (top.size() <= cap) {
      top.push_back(strength);
      std::push_heap(top.begin(), top.end(), std::greater<>());
    } else if (strength > top.front()) {
      std::pop_heap(top.begin(), top.end(), std::greater<>());
      top.back() = strength;
      std::push_heap(top.begin(), top.end(), std::greater<>());
    }
  }
  const double v = top[0];
  const double c = cap == 1 ? top[1] : std::min(top[1], top[2]);
  if (c > v) {
    // A strict boundary: nth_element keeps exactly {|response| > v},
    // however it breaks ties. (position, σ) orders that set totally
    // unless a position is NaN or two of them share (position, σ); then
    // the sorted order is unique, and sorting the kept candidates alone
    // reproduces it.
    std::vector<Placed> kept;
    kept.reserve(cap);
    bool ordered = true;
    for (const Candidate& candidate : candidates) {
      if (std::abs(candidate.response) > v) {
        kept.push_back(Locate(space, candidate));
        ordered = ordered && !std::isnan(kept.back().position);
      }
    }
    if (ordered) {
      std::sort(kept.begin(), kept.end(), ByPlace);
      const auto collision = std::adjacent_find(
          kept.begin(), kept.end(), [](const Placed& a, const Placed& b) {
            return a.position == b.position && a.sigma == b.sigma;
          });
      if (collision == kept.end()) return kept;
    }
  }
  // A tie at the boundary, a (position, σ) collision or a NaN position:
  // the three steps themselves. std::sort and std::nth_element make the
  // same comparisons on the same sequence, whatever the element type.
  std::vector<Placed> all = place_all();
  std::nth_element(all.begin(), all.begin() + static_cast<long>(cap),
                   all.end(), Stronger);
  all.resize(cap);
  std::sort(all.begin(), all.end(), ByPlace);
  return all;
}

// Gaussian-weighted gradient histogram of one keypoint over `grad`, the
// gradient of its Gaussian level.
std::vector<double> Describe(const Placed& keypoint,
                             std::span<const double> grad,
                             const ExtractorOptions& options) {
  const std::size_t num_cells = options.descriptor_length / 2;
  std::vector<double> desc(options.descriptor_length, 0.0);

  // Window on the octave's own grid, centred at the keypoint.
  const double octave_factor =
      static_cast<double>(std::size_t{1} << keypoint.at.octave);
  const double center = keypoint.position / octave_factor;
  // A keypoint next to NaN samples can sit at a NaN position; its window
  // holds no sample.
  if (std::isnan(center)) return desc;
  const double window = options.cell_width * static_cast<double>(num_cells);
  const double half = window / 2.0;
  // Gaussian weighting over the window (SIFT uses sigma = half window).
  const double wsigma = std::max(half / 2.0, 1e-6);
  const double spread = 2.0 * wsigma * wsigma;

  const long n = static_cast<long>(grad.size());
  const long first =
      std::max(0L, static_cast<long>(std::floor(center - half)));
  const long last =
      std::min(n - 1, static_cast<long>(std::ceil(center + half)));
  for (long t = first; t <= last; ++t) {
    const double rel = static_cast<double>(t) - center + half;  // [0, window)
    if (rel < 0.0 || rel >= window) continue;
    std::size_t cell = static_cast<std::size_t>(rel / options.cell_width);
    if (cell >= num_cells) cell = num_cells - 1;
    const double dist = static_cast<double>(t) - center;
    // One scalar exp per sample: a vector exp would change the bits.
    const double weight = std::exp(-(dist * dist) / spread);
    const double gv = grad[static_cast<std::size_t>(t)];
    // Two orientation bins per cell: rising (gradient >= 0) and falling,
    // chosen without a branch on the gradient's sign.
    const bool rising = gv >= 0.0;
    desc[cell * 2 + (rising ? 0 : 1)] += weight * (rising ? gv : -gv);
  }

  if (options.normalize_descriptor) {
    auto renorm = [&desc]() {
      double norm = 0.0;
      for (double v : desc) norm += v * v;
      norm = std::sqrt(norm);
      if (norm > 1e-12) {
        for (double& v : desc) v /= norm;
      }
      return norm;
    };
    if (renorm() > 1e-12 && options.descriptor_clamp > 0.0) {
      bool clamped = false;
      for (double& v : desc) {
        if (v > options.descriptor_clamp) {
          v = options.descriptor_clamp;
          clamped = true;
        }
      }
      if (clamped) renorm();
    }
  }
  return desc;
}

}  // namespace

SalientExtractor::SalientExtractor(ExtractorOptions options)
    : options_(std::move(options)), kernels_(options_.scale_space) {
  if (options_.descriptor_length < 2) options_.descriptor_length = 2;
  if (options_.descriptor_length % 2 != 0) ++options_.descriptor_length;
  options_.epsilon = std::clamp(options_.epsilon, 0.0, 1.0);
}

std::vector<Keypoint> SalientExtractor::Extract(
    const ts::TimeSeries& series) const {
  const signal::ScaleSpace space(series, kernels_);
  std::vector<Candidate> candidates;
  Detect(space, options_, &candidates);

  // Enforce the |S| << N cost model of §3.4: keep the strongest responses.
  std::size_t cap = options_.max_keypoints;
  if (cap == 0 && options_.max_keypoints_fraction > 0.0) {
    cap = static_cast<std::size_t>(
        std::ceil(options_.max_keypoints_fraction *
                  static_cast<double>(series.size())));
  }
  const std::vector<Placed> kept = Keep(space, cap, candidates);

  // The gradient of each Gaussian level that holds a kept keypoint,
  // computed once.
  constexpr std::size_t kNone = ~std::size_t{0};
  const std::size_t levels = space.num_levels();
  std::vector<std::size_t> gradient_at(space.num_octaves() * levels, kNone);
  std::size_t gradient_size = 0;
  for (const Placed& p : kept) {
    std::size_t& at = gradient_at[p.at.octave * levels + p.at.level];
    if (at == kNone) {
      at = gradient_size;
      gradient_size += space.length(p.at.octave);
    }
  }
  std::vector<double> gradients(gradient_size);
  for (std::size_t slot = 0; slot < gradient_at.size(); ++slot) {
    if (gradient_at[slot] == kNone) continue;
    const std::span<const double> g =
        space.gaussian(slot / levels, slot % levels);
    signal::Gradient(g, std::span<double>(gradients).subspan(
                            gradient_at[slot], g.size()));
  }

  std::vector<Keypoint> keypoints(kept.size());
  for (std::size_t k = 0; k < kept.size(); ++k) {
    const Placed& p = kept[k];
    Keypoint& kp = keypoints[k];
    kp.octave = p.at.octave;
    kp.level = p.at.level;
    kp.sigma = p.sigma;
    kp.response = p.at.response;
    kp.amplitude = p.amplitude;
    kp.descriptor = Describe(
        p,
        std::span<const double>(gradients)
            .subspan(gradient_at[p.at.octave * levels + p.at.level],
                     space.length(p.at.octave)),
        options_);
    // Clamp positions into the series (sub-sample refinement can nudge a
    // boundary feature slightly outside).
    kp.position = std::clamp(p.position, 0.0,
                             static_cast<double>(series.size() - 1));
  }
  return keypoints;
}

ScaleHistogram CountByScale(const std::vector<Keypoint>& keypoints) {
  ScaleHistogram h;
  for (const Keypoint& kp : keypoints) {
    switch (ClassifyScale(kp)) {
      case ScaleClass::kFine:
        h.fine += 1;
        break;
      case ScaleClass::kMedium:
        h.medium += 1;
        break;
      case ScaleClass::kRough:
        h.rough += 1;
        break;
    }
  }
  return h;
}

}  // namespace sift
}  // namespace sdtw
