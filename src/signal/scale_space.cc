#include "signal/scale_space.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "signal/gaussian.h"

namespace sdtw {
namespace signal {

std::size_t AutoOctaves(std::size_t n) {
  if (n < 2) return 1;
  const long o = static_cast<long>(std::floor(std::log2(
                     static_cast<double>(n)))) - 6;
  // The paper's o = floor(log2 N) - 6 (§4.3), floored at 3: Table 2 reports
  // salient points in three scale tiers (fine/medium/rough) even for the
  // Gun set (N = 150, where the formula alone gives 1), so the effective
  // pyramid must span at least three octaves. Octave construction still
  // stops early when the downsampled series drops below min_length.
  return static_cast<std::size_t>(std::max(3L, o));
}

ScaleSpaceKernels::ScaleSpaceKernels(const ScaleSpaceOptions& options)
    : options_(options) {
  const std::size_t s = std::max<std::size_t>(1, options_.levels_per_octave);
  options_.levels_per_octave = s;
  kappa_ = std::pow(2.0, 1.0 / static_cast<double>(s));

  // Bring the input up to base_sigma from its assumed native smoothing.
  const double delta2 = options_.base_sigma * options_.base_sigma -
                        options_.input_sigma * options_.input_sigma;
  if (delta2 > 0.0) base_kernel_ = MakeGaussianKernel(std::sqrt(delta2));
  max_radius_ = base_kernel_.radius();

  const std::size_t levels = s + 3;
  level_sigma_.reserve(levels);
  for (std::size_t l = 0; l < levels; ++l) {
    level_sigma_.push_back(options_.base_sigma *
                           std::pow(kappa_, static_cast<double>(l)));
  }
  level_kernels_.reserve(levels - 1);
  for (std::size_t l = 1; l < levels; ++l) {
    const double prev_sigma = level_sigma_[l - 1];
    const double next_sigma = prev_sigma * kappa_;
    // Incremental blur: sigma_inc^2 = next^2 - prev^2.
    const double inc =
        std::sqrt(next_sigma * next_sigma - prev_sigma * prev_sigma);
    level_kernels_.push_back(MakeGaussianKernel(inc));
    max_radius_ = std::max(max_radius_, level_kernels_.back().radius());
  }
}

ScaleSpace::ScaleSpace(const ts::TimeSeries& input,
                       const ScaleSpaceOptions& options)
    : ScaleSpace(input, ScaleSpaceKernels(options)) {}

ScaleSpace::ScaleSpace(const ts::TimeSeries& input,
                       const ScaleSpaceKernels& kernels)
    : options_(kernels.options()),
      kappa_(kernels.kappa()),
      input_length_(input.size()) {
  const std::size_t s = options_.levels_per_octave;
  const std::size_t n = input.size();
  std::size_t wanted = options_.num_octaves;
  if (wanted == 0) wanted = AutoOctaves(n);

  // Octaves stop early when the series becomes shorter than min_length.
  std::size_t samples = 0;
  for (std::size_t len = n; num_octaves_ < wanted && len >= options_.min_length;
       len = (len + 1) / 2) {
    ++num_octaves_;
    samples += len;
  }
  num_levels_ = kernels.levels();
  if (num_octaves_ == 0) {
    // Degenerate (very short) input: still provide a single octave so that
    // downstream code does not need special cases.
    num_octaves_ = 1;
    num_levels_ = 1;
    samples = n;
  }

  first_octave_ = kernels.levels();
  const std::size_t pyramid = samples * (2 * num_levels_ - 1);
  const std::size_t pad = n + 2 * kernels.max_radius();
  buffer_.resize(first_octave_ + pyramid + pad);
  for (std::size_t l = 0; l < kernels.levels(); ++l) {
    buffer_[l] = kernels.LevelSigma(l);
  }
  const std::span<double> padded(buffer_.data() + first_octave_ + pyramid,
                                 pad);

  double* octave = buffer_.data() + first_octave_;
  if (const GaussianKernel* base = kernels.base_kernel()) {
    Convolve(input.values(), *base, padded, std::span<double>(octave, n));
  } else {
    std::copy(input.values().begin(), input.values().end(), octave);
  }
  if (num_levels_ == 1) return;

  std::size_t len = n;
  for (std::size_t o = 0; o < num_octaves_; ++o) {
    double* const gauss = octave;
    double* const dogs = octave + num_levels_ * len;
    for (std::size_t l = 1; l < num_levels_; ++l) {
      Convolve(std::span<const double>(gauss + (l - 1) * len, len),
               kernels.level_kernel(l), padded,
               std::span<double>(gauss + l * len, len));
    }
    for (std::size_t l = 0; l + 1 < num_levels_; ++l) {
      const double* lo = gauss + l * len;
      const double* hi = lo + len;
      double* d = dogs + l * len;
      for (std::size_t i = 0; i < len; ++i) d[i] = hi[i] - lo[i];
    }
    // The level with sigma = 2 * base_sigma (index s) seeds the next octave
    // after downsampling by two ("picking every second pixel").
    double* const next = octave + (2 * num_levels_ - 1) * len;
    const std::size_t next_len = (len + 1) / 2;
    if (o + 1 < num_octaves_) {
      const double* seed = gauss + s * len;
      for (std::size_t j = 0; j < next_len; ++j) next[j] = seed[2 * j];
    }
    octave = next;
    len = next_len;
  }
}

std::pair<std::size_t, std::size_t> ScaleSpace::OctaveAt(
    std::size_t octave) const {
  std::size_t offset = first_octave_;
  std::size_t len = input_length_;
  for (std::size_t o = 0; o < octave; ++o) {
    offset += (2 * num_levels_ - 1) * len;
    len = (len + 1) / 2;
  }
  return {offset, len};
}

std::size_t ScaleSpace::length(std::size_t octave) const {
  return OctaveAt(octave).second;
}

std::span<const double> ScaleSpace::gaussian(std::size_t octave,
                                             std::size_t level) const {
  const auto [offset, len] = OctaveAt(octave);
  return {buffer_.data() + offset + level * len, len};
}

std::span<const double> ScaleSpace::dog(std::size_t octave,
                                        std::size_t level) const {
  const auto [offset, len] = OctaveAt(octave);
  return {buffer_.data() + offset + (num_levels_ + level) * len, len};
}

}  // namespace signal
}  // namespace sdtw
