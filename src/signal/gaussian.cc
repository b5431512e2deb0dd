#include "signal/gaussian.h"

#include <algorithm>
#include <cmath>

namespace sdtw {
namespace signal {

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

void Convolve(std::span<const double> input, const GaussianKernel& kernel,
              std::span<double> padded, std::span<double> out) {
  const long n = static_cast<long>(input.size());
  if (n == 0) return;
  const long radius = static_cast<long>(kernel.radius());
  // Reflect-pad once: padded[k] = input[reflect(k - radius)], reflecting
  // around the boundary samples (…, 2, 1, 0 | 1, 2, …) as many times as
  // needed for kernels wider than the signal.
  for (long k = 0; k < n + 2 * radius; ++k) {
    long idx = k - radius;
    while (idx < 0 || idx >= n) {
      if (idx < 0) idx = -idx;
      if (idx >= n) idx = 2 * (n - 1) - idx;
      if (n == 1) {
        idx = 0;
        break;
      }
    }
    padded[static_cast<std::size_t>(k)] = input[static_cast<std::size_t>(idx)];
  }

  // Branch-free: output i reads padded[i .. i + 2r]. kBlock outputs share
  // each tap load and accumulate in independent lanes, each lane in tap
  // order from +0.0, exactly like the one-output tail loop.
  constexpr std::size_t kBlock = 8;
  const std::size_t len = input.size();
  const std::size_t taps = kernel.taps.size();
  const double* p = padded.data();
  const double* w = kernel.taps.data();
  std::size_t i = 0;
  for (; i + kBlock <= len; i += kBlock) {
    double acc[kBlock] = {};
    for (std::size_t t = 0; t < taps; ++t) {
      const double tap = w[t];
      for (std::size_t k = 0; k < kBlock; ++k) acc[k] += p[i + k + t] * tap;
    }
    for (std::size_t k = 0; k < kBlock; ++k) out[i + k] = acc[k];
  }
  for (; i < len; ++i) {
    double acc = 0.0;
    for (std::size_t t = 0; t < taps; ++t) acc += p[i + t] * w[t];
    out[i] = acc;
  }
}

std::vector<double> Convolve(const std::vector<double>& input,
                             const GaussianKernel& kernel) {
  std::vector<double> padded(input.size() + 2 * kernel.radius());
  std::vector<double> out(input.size());
  Convolve(input, kernel, padded, out);
  return out;
}

ts::TimeSeries GaussianSmooth(const ts::TimeSeries& input, double sigma) {
  ts::TimeSeries out(Convolve(input.values(), MakeGaussianKernel(sigma)));
  out.set_label(input.label());
  out.set_name(input.name());
  return out;
}

void Gradient(std::span<const double> input, std::span<double> out) {
  const std::size_t n = input.size();
  if (n < 2) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  out[0] = input[1] - input[0];
  out[n - 1] = input[n - 1] - input[n - 2];
  for (std::size_t i = 1; i + 1 < n; ++i) {
    out[i] = 0.5 * (input[i + 1] - input[i - 1]);
  }
}

std::vector<double> Gradient(const std::vector<double>& input) {
  std::vector<double> g(input.size());
  Gradient(input, g);
  return g;
}

std::vector<double> Downsample2(const std::vector<double>& input) {
  std::vector<double> out;
  out.reserve((input.size() + 1) / 2);
  for (std::size_t i = 0; i < input.size(); i += 2) out.push_back(input[i]);
  return out;
}

}  // namespace signal
}  // namespace sdtw
