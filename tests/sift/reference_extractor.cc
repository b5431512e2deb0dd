#include "reference_extractor.h"

#include <algorithm>
#include <cmath>

namespace sdtw {
namespace reference {

namespace {

using sift::ExtractorOptions;
using sift::Keypoint;
using signal::GaussianKernel;
using signal::ScaleSpaceOptions;

// --- signal -----------------------------------------------------------------

GaussianKernel MakeGaussianKernel(double sigma) {
  GaussianKernel k;
  k.sigma = sigma;
  if (sigma <= 0.0) {
    k.taps = {1.0};
    return k;
  }
  const long radius = std::max(1L, static_cast<long>(std::ceil(3.0 * sigma)));
  k.taps.resize(static_cast<std::size_t>(2 * radius + 1));
  double sum = 0.0;
  for (long i = -radius; i <= radius; ++i) {
    const double x = static_cast<double>(i);
    const double v = std::exp(-(x * x) / (2.0 * sigma * sigma));
    k.taps[static_cast<std::size_t>(i + radius)] = v;
    sum += v;
  }
  for (double& v : k.taps) v /= sum;
  return k;
}

std::vector<double> Gradient(const std::vector<double>& input) {
  const std::size_t n = input.size();
  std::vector<double> g(n, 0.0);
  if (n < 2) return g;
  g[0] = input[1] - input[0];
  g[n - 1] = input[n - 1] - input[n - 2];
  for (std::size_t i = 1; i + 1 < n; ++i) {
    g[i] = 0.5 * (input[i + 1] - input[i - 1]);
  }
  return g;
}

std::vector<double> Downsample2(const std::vector<double>& input) {
  std::vector<double> out;
  out.reserve((input.size() + 1) / 2);
  for (std::size_t i = 0; i < input.size(); i += 2) out.push_back(input[i]);
  return out;
}

std::size_t AutoOctaves(std::size_t n) {
  if (n < 2) return 1;
  const long o = static_cast<long>(std::floor(std::log2(
                     static_cast<double>(n)))) - 6;
  return static_cast<std::size_t>(std::max(3L, o));
}

struct Octave {
  std::size_t index = 0;
  std::vector<std::vector<double>> gaussians;
  std::vector<std::vector<double>> dogs;
};

struct ScaleSpace {
  ScaleSpaceOptions options;
  double kappa = 0.0;
  std::vector<Octave> octaves;

  ScaleSpace(const ts::TimeSeries& input, const ScaleSpaceOptions& opts)
      : options(opts) {
    const std::size_t s = std::max<std::size_t>(1, options.levels_per_octave);
    options.levels_per_octave = s;
    kappa = std::pow(2.0, 1.0 / static_cast<double>(s));

    std::size_t num_octaves = options.num_octaves;
    if (num_octaves == 0) num_octaves = AutoOctaves(input.size());

    std::vector<double> base = input.values();
    const double delta2 = options.base_sigma * options.base_sigma -
                          options.input_sigma * options.input_sigma;
    if (delta2 > 0.0) {
      base = reference::Convolve(base,
                                 MakeGaussianKernel(std::sqrt(delta2)));
    }

    for (std::size_t o = 0; o < num_octaves; ++o) {
      if (base.size() < options.min_length) break;
      Octave oct;
      oct.index = o;
      const std::size_t num_levels = s + 3;
      oct.gaussians.push_back(base);
      for (std::size_t l = 1; l < num_levels; ++l) {
        const double prev_sigma =
            options.base_sigma * std::pow(kappa, static_cast<double>(l - 1));
        const double next_sigma = prev_sigma * kappa;
        const double inc =
            std::sqrt(next_sigma * next_sigma - prev_sigma * prev_sigma);
        oct.gaussians.push_back(reference::Convolve(
            oct.gaussians.back(), MakeGaussianKernel(inc)));
      }
      for (std::size_t l = 0; l + 1 < oct.gaussians.size(); ++l) {
        std::vector<double> d(oct.gaussians[l].size());
        for (std::size_t i = 0; i < d.size(); ++i) {
          d[i] = oct.gaussians[l + 1][i] - oct.gaussians[l][i];
        }
        oct.dogs.push_back(std::move(d));
      }
      const std::size_t seed_level = std::min(s, oct.gaussians.size() - 1);
      std::vector<double> next_base = Downsample2(oct.gaussians[seed_level]);
      octaves.push_back(std::move(oct));
      base = std::move(next_base);
    }

    if (octaves.empty()) {
      Octave oct;
      oct.index = 0;
      oct.gaussians.push_back(base);
      octaves.push_back(std::move(oct));
    }
  }

  double AbsoluteSigma(std::size_t octave, std::size_t level) const {
    const double octave_factor =
        static_cast<double>(std::size_t{1} << octave);
    return options.base_sigma *
           std::pow(kappa, static_cast<double>(level)) * octave_factor;
  }

  double ToOriginalPosition(std::size_t octave, double pos) const {
    return pos * static_cast<double>(std::size_t{1} << octave);
  }
};

// --- sift -------------------------------------------------------------------

ExtractorOptions Normalised(ExtractorOptions options) {
  if (options.descriptor_length < 2) options.descriptor_length = 2;
  if (options.descriptor_length % 2 != 0) ++options.descriptor_length;
  options.epsilon = std::clamp(options.epsilon, 0.0, 1.0);
  return options;
}

double RefineOffset(const std::vector<double>& d, std::size_t i) {
  if (i == 0 || i + 1 >= d.size()) return 0.0;
  const double left = d[i - 1];
  const double mid = d[i];
  const double right = d[i + 1];
  const double denom = left - 2.0 * mid + right;
  if (std::abs(denom) < 1e-12) return 0.0;
  double offset = 0.5 * (left - right) / denom;
  return std::clamp(offset, -0.5, 0.5);
}

std::vector<Keypoint> DetectIn(const ScaleSpace& space,
                               const ExtractorOptions& options) {
  std::vector<Keypoint> keypoints;
  const double eps = options.epsilon;

  for (const Octave& oct : space.octaves) {
    const std::size_t num_dogs = oct.dogs.size();
    if (num_dogs < 3) continue;
    for (std::size_t l = 1; l + 1 < num_dogs; ++l) {
      const std::vector<double>& cur = oct.dogs[l];
      const std::vector<double>& down = oct.dogs[l - 1];
      const std::vector<double>& up = oct.dogs[l + 1];
      const std::size_t len = cur.size();
      if (len < 3) continue;
      for (std::size_t i = 1; i + 1 < len; ++i) {
        const double v = cur[i];
        if (std::abs(v) < options.min_contrast) continue;

        const double neighbors[8] = {cur[i - 1], cur[i + 1], down[i - 1],
                                     down[i],    down[i + 1], up[i - 1],
                                     up[i],      up[i + 1]};
        bool is_max = v > 0.0;
        bool is_min = options.detect_minima && v < 0.0;
        for (const double nb : neighbors) {
          if (is_max && v < (1.0 - eps) * std::max(nb, 0.0)) is_max = false;
          if (is_min && v > (1.0 - eps) * std::min(nb, 0.0)) is_min = false;
          if (!is_max && !is_min) break;
        }
        if (!is_max && !is_min) continue;

        Keypoint kp;
        kp.octave = oct.index;
        kp.level = l;
        const double offset = RefineOffset(cur, i);
        kp.position = space.ToOriginalPosition(
            oct.index, static_cast<double>(i) + offset);
        kp.sigma = space.AbsoluteSigma(oct.index, l);
        kp.response = v;
        const std::vector<double>& g = oct.gaussians[l];
        kp.amplitude = g[std::min(i, g.size() - 1)];
        keypoints.push_back(std::move(kp));
      }
    }
  }
  std::sort(keypoints.begin(), keypoints.end(),
            [](const Keypoint& a, const Keypoint& b) {
              if (a.position != b.position) return a.position < b.position;
              return a.sigma < b.sigma;
            });
  return keypoints;
}

std::vector<double> Describe(const ScaleSpace& space,
                             const Keypoint& keypoint,
                             const ExtractorOptions& options) {
  const std::size_t num_cells = options.descriptor_length / 2;
  std::vector<double> desc(options.descriptor_length, 0.0);

  if (keypoint.octave >= space.octaves.size()) return desc;
  const Octave& oct = space.octaves[keypoint.octave];
  const std::size_t gl = std::min(keypoint.level, oct.gaussians.size() - 1);
  const std::vector<double>& g = oct.gaussians[gl];
  if (g.size() < 2) return desc;
  const std::vector<double> grad = Gradient(g);

  const double octave_factor =
      static_cast<double>(std::size_t{1} << keypoint.octave);
  const double center = keypoint.position / octave_factor;
  const double window = options.cell_width * static_cast<double>(num_cells);
  const double half = window / 2.0;
  const double wsigma = std::max(half / 2.0, 1e-6);

  const long n = static_cast<long>(g.size());
  const long first = static_cast<long>(std::floor(center - half));
  const long last = static_cast<long>(std::ceil(center + half));
  for (long t = first; t <= last; ++t) {
    if (t < 0 || t >= n) continue;
    const double rel = static_cast<double>(t) - center + half;
    if (rel < 0.0 || rel >= window) continue;
    std::size_t cell = static_cast<std::size_t>(rel / options.cell_width);
    if (cell >= num_cells) cell = num_cells - 1;
    const double dist = static_cast<double>(t) - center;
    const double weight = std::exp(-(dist * dist) / (2.0 * wsigma * wsigma));
    const double gv = grad[static_cast<std::size_t>(t)];
    if (gv >= 0.0) {
      desc[cell * 2] += weight * gv;
    } else {
      desc[cell * 2 + 1] += weight * (-gv);
    }
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

std::vector<double> Convolve(const std::vector<double>& input,
                             const GaussianKernel& kernel) {
  const long n = static_cast<long>(input.size());
  if (n == 0) return {};
  const long radius = static_cast<long>(kernel.radius());
  std::vector<double> out(input.size(), 0.0);
  for (long i = 0; i < n; ++i) {
    double acc = 0.0;
    for (long t = -radius; t <= radius; ++t) {
      long idx = i + t;
      while (idx < 0 || idx >= n) {
        if (idx < 0) idx = -idx;
        if (idx >= n) idx = 2 * (n - 1) - idx;
        if (n == 1) {
          idx = 0;
          break;
        }
      }
      acc += input[static_cast<std::size_t>(idx)] *
             kernel.taps[static_cast<std::size_t>(t + radius)];
    }
    out[static_cast<std::size_t>(i)] = acc;
  }
  return out;
}

std::vector<Keypoint> Detect(const ts::TimeSeries& series,
                             const ExtractorOptions& options) {
  const ExtractorOptions opt = Normalised(options);
  return DetectIn(ScaleSpace(series, opt.scale_space), opt);
}

std::vector<Keypoint> Extract(const ts::TimeSeries& series,
                              const ExtractorOptions& options) {
  const ExtractorOptions opt = Normalised(options);
  const ScaleSpace space(series, opt.scale_space);
  std::vector<Keypoint> keypoints = DetectIn(space, opt);

  std::size_t cap = opt.max_keypoints;
  if (cap == 0 && opt.max_keypoints_fraction > 0.0) {
    cap = static_cast<std::size_t>(
        std::ceil(opt.max_keypoints_fraction *
                  static_cast<double>(series.size())));
  }
  if (cap > 0 && keypoints.size() > cap) {
    std::nth_element(keypoints.begin(),
                     keypoints.begin() + static_cast<long>(cap),
                     keypoints.end(),
                     [](const Keypoint& a, const Keypoint& b) {
                       return std::abs(a.response) > std::abs(b.response);
                     });
    keypoints.resize(cap);
    std::sort(keypoints.begin(), keypoints.end(),
              [](const Keypoint& a, const Keypoint& b) {
                if (a.position != b.position) return a.position < b.position;
                return a.sigma < b.sigma;
              });
  }

  for (Keypoint& kp : keypoints) {
    kp.descriptor = Describe(space, kp, opt);
    kp.position = std::clamp(kp.position, 0.0,
                             static_cast<double>(series.size() - 1));
  }
  return keypoints;
}

}  // namespace reference
}  // namespace sdtw
