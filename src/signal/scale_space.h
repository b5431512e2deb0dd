#ifndef SDTW_SIGNAL_SCALE_SPACE_H_
#define SDTW_SIGNAL_SCALE_SPACE_H_

/// \file scale_space.h
/// \brief Octave/level Gaussian scale-space and difference-of-Gaussian
/// pyramids for 1-D signals (paper §3.1.2, step 1).
///
/// The series is incrementally reduced into `o` octaves, each corresponding
/// to a doubling of the smoothing rate. Each octave is divided into `s`
/// levels built by repeated convolution with Gaussians of ratio
/// κ = 2^(1/s). Adjacent smoothed series are subtracted to obtain the
/// difference-of-Gaussian (DoG) series in which salient features are sought.

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "signal/gaussian.h"
#include "ts/time_series.h"

namespace sdtw {
namespace signal {

/// \brief Configuration of the scale-space pyramid.
struct ScaleSpaceOptions {
  /// Number of octaves; 0 means "auto": max(1, floor(log2(N)) - 6) as used in
  /// the paper's experiments (§4.3).
  std::size_t num_octaves = 0;

  /// Levels per octave (the paper uses s = 2). κ = 2^(1/s).
  std::size_t levels_per_octave = 2;

  /// Base smoothing applied to the input before the first octave (SIFT's
  /// σ0; 1.6 is Lowe's default and works well for time series too).
  double base_sigma = 1.6;

  /// Assumed smoothing already present in the raw input.
  double input_sigma = 0.5;

  /// Octaves stop early when the series becomes shorter than this.
  std::size_t min_length = 8;
};

/// Resolves the "auto" octave count for a series of length n.
std::size_t AutoOctaves(std::size_t n);

/// \brief What a pyramid needs from its options alone, resolved once: the
/// options (with levels_per_octave raised to at least 1), κ, the Gaussian
/// kernels and the σ of every level. Building them costs an `exp` per tap
/// and a `pow` per level, so one instance serves every series built under
/// the same options (a SalientExtractor holds one). Immutable, so
/// concurrent ScaleSpace constructions may share it.
class ScaleSpaceKernels {
 public:
  explicit ScaleSpaceKernels(const ScaleSpaceOptions& options);

  const ScaleSpaceOptions& options() const { return options_; }

  /// Multiplicative scale step κ = 2^(1/levels_per_octave).
  double kappa() const { return kappa_; }

  /// Gaussian levels per octave: levels_per_octave + 3, so that
  /// levels_per_octave + 2 DoG levels exist and extrema can be localised
  /// at levels_per_octave levels with both scale neighbours present.
  std::size_t levels() const { return level_sigma_.size(); }

  /// Brings the input from input_sigma up to base_sigma; nullptr when
  /// base_sigma <= input_sigma and the input is used as it is.
  const GaussianKernel* base_kernel() const {
    return base_kernel_.taps.empty() ? nullptr : &base_kernel_;
  }

  /// Incremental blur from level l − 1 to level l, 1 <= l < levels():
  /// σ_inc² = σ_l² − σ_{l−1}².
  const GaussianKernel& level_kernel(std::size_t l) const {
    return level_kernels_[l - 1];
  }

  /// Radius of the widest kernel.
  std::size_t max_radius() const { return max_radius_; }

  /// base_sigma · κ^level: the σ of `level` on its octave's own grid.
  double LevelSigma(std::size_t level) const { return level_sigma_[level]; }

 private:
  ScaleSpaceOptions options_;
  double kappa_ = 0.0;
  GaussianKernel base_kernel_;
  std::vector<GaussianKernel> level_kernels_;
  std::vector<double> level_sigma_;
  std::size_t max_radius_ = 0;
};

/// \brief The full scale-space pyramid of one series.
///
/// Octave o holds levels() Gaussian-smoothed series and levels() − 1 DoG
/// series, all of length(o) samples (octave 0 is the input's resolution;
/// each next octave downsamples the previous one's level
/// levels_per_octave, σ = 2 · base_sigma, by two). dog(o, l) =
/// gaussian(o, l + 1) − gaussian(o, l). A series shorter than min_length
/// still gets one octave, holding only its base level and no DoG.
///
/// Every level lives in one buffer (one allocation per series); the
/// accessors return views into it, valid while the pyramid lives.
class ScaleSpace {
 public:
  /// Builds the pyramid for `input` with precomputed `kernels`; nothing
  /// refers to `kernels` after the constructor returns.
  ScaleSpace(const ts::TimeSeries& input, const ScaleSpaceKernels& kernels);

  /// Convenience: resolves the kernels for this one pyramid.
  ScaleSpace(const ts::TimeSeries& input, const ScaleSpaceOptions& options);

  const ScaleSpaceOptions& options() const { return options_; }

  /// Multiplicative scale step κ = 2^(1/levels_per_octave).
  double kappa() const { return kappa_; }

  std::size_t num_octaves() const { return num_octaves_; }

  /// Gaussian levels per octave (1 for the single-level pyramid of a
  /// series shorter than min_length).
  std::size_t num_levels() const { return num_levels_; }

  /// DoG levels per octave: num_levels() − 1.
  std::size_t num_dogs() const { return num_levels_ - 1; }

  /// Samples per level of `octave`.
  std::size_t length(std::size_t octave) const;

  /// Gaussian level `level` of `octave`: σ = base_sigma · κ^level on the
  /// octave's grid.
  std::span<const double> gaussian(std::size_t octave,
                                   std::size_t level) const;

  /// DoG level `level` of `octave`.
  std::span<const double> dog(std::size_t octave, std::size_t level) const;

  /// Absolute sigma (in original-resolution samples) of level `level` in
  /// octave `octave`.
  double AbsoluteSigma(std::size_t octave, std::size_t level) const {
    return buffer_[level] * static_cast<double>(std::size_t{1} << octave);
  }

  /// Maps a position on an octave's grid back to original resolution.
  double ToOriginalPosition(std::size_t octave, double pos) const {
    return pos * static_cast<double>(std::size_t{1} << octave);
  }

 private:
  // Offset in buffer_ of octave `octave`'s first Gaussian level, and the
  // octave's length.
  std::pair<std::size_t, std::size_t> OctaveAt(std::size_t octave) const;

  ScaleSpaceOptions options_;
  double kappa_ = 0.0;
  std::size_t input_length_ = 0;
  std::size_t num_octaves_ = 0;
  std::size_t num_levels_ = 0;
  // Offset of octave 0 in buffer_: the σ table's length.
  std::size_t first_octave_ = 0;
  // The per-level σ table (ScaleSpaceKernels::LevelSigma), then octave by
  // octave its Gaussian levels and its DoG levels, then the convolution's
  // padding scratch.
  std::vector<double> buffer_;
};

}  // namespace signal
}  // namespace sdtw

#endif  // SDTW_SIGNAL_SCALE_SPACE_H_
