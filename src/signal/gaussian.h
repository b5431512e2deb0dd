#ifndef SDTW_SIGNAL_GAUSSIAN_H_
#define SDTW_SIGNAL_GAUSSIAN_H_

/// \file gaussian.h
/// \brief Gaussian kernels and Gaussian smoothing of 1-D signals.
///
/// The sDTW salient-feature search (paper §3.1.2) builds a multi-scale
/// representation of a time series through convolution with Gaussians
/// G(x, σ); this file provides the kernel construction and the convolution
/// entry points it needs.

#include <cstddef>
#include <span>
#include <vector>

#include "ts/time_series.h"

namespace sdtw {
namespace signal {

/// \brief A discrete, normalised Gaussian kernel.
struct GaussianKernel {
  double sigma = 0.0;
  /// Symmetric taps; taps.size() == 2*radius+1.
  std::vector<double> taps;

  std::size_t radius() const { return taps.empty() ? 0 : taps.size() / 2; }
};

/// Builds a normalised Gaussian kernel with the conventional 3σ support
/// (radius = ceil(3σ), minimum 1). sigma <= 0 yields the identity kernel.
GaussianKernel MakeGaussianKernel(double sigma);

/// Convolves `input` with `kernel` using reflective ("mirror") boundary
/// handling, which avoids fabricating edge discontinuities that would show
/// up as spurious scale-space extrema. The input is reflected as many
/// times as a kernel wider than the signal needs (…, 2, 1 | 0, 1, 2, … |
/// n−2, …); a one-sample signal repeats its sample.
///
/// Exactness: every output starts from +0.0 and adds input × tap for
/// t = −r…r in that order, so the result is bitwise fixed however the
/// outputs are computed (several at once in vector lanes here).
std::vector<double> Convolve(const std::vector<double>& input,
                             const GaussianKernel& kernel);

/// Convolve into caller storage, allocation-free: `out` receives
/// input.size() outputs and must not overlap `input`; `padded` is
/// scratch of at least input.size() + 2 * kernel.radius() doubles that
/// holds the reflected input.
void Convolve(std::span<const double> input, const GaussianKernel& kernel,
              std::span<double> padded, std::span<double> out);

/// Gaussian-smooths a time series: L(i, σ) = G(i, σ) * x_i.
ts::TimeSeries GaussianSmooth(const ts::TimeSeries& input, double sigma);

/// Central-difference gradient with one-sided differences at the ends;
/// same length as the input. This is the 1-D analogue of SIFT's image
/// gradients (only the horizontal direction exists; paper §3.1.2 step 2).
std::vector<double> Gradient(const std::vector<double>& input);

/// Gradient into caller storage: `out` has input.size() elements.
void Gradient(std::span<const double> input, std::span<double> out);

/// Downsamples by taking every second sample ("picking every second pixel",
/// paper §3.1.2), used when moving to the next octave.
std::vector<double> Downsample2(const std::vector<double>& input);

}  // namespace signal
}  // namespace sdtw

#endif  // SDTW_SIGNAL_GAUSSIAN_H_
