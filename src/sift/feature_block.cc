#include "sift/feature_block.h"

#include <algorithm>
#include <cmath>

#include "ts/stats.h"

namespace sdtw {
namespace sift {

void ClampScope(double position, double sigma, std::size_t len,
                double* start, double* end) {
  const double maxi = len > 0 ? static_cast<double>(len - 1) : 0.0;
  const double radius = ScopeRadius(sigma);
  *start = std::clamp(position - radius, 0.0, maxi);
  *end = std::clamp(position + radius, 0.0, maxi);
}

double ScopeAmplitude(const ts::TimeSeries& series, double start,
                      double end) {
  // A NaN bound survives std::clamp, and converting it to an index is
  // undefined.
  if (series.empty() || std::isnan(start) || std::isnan(end)) return 0.0;
  const double last = static_cast<double>(series.size() - 1);
  const std::size_t b =
      static_cast<std::size_t>(std::clamp(start, 0.0, last));
  const std::size_t e = static_cast<std::size_t>(std::clamp(end, 0.0, last));
  if (e < b) return 0.0;
  return ts::MeanAbs(
      std::span<const double>(series.values().data() + b, e - b + 1));
}

void FeatureBlock::Assign(std::span<const Keypoint> keypoints,
                          const ts::TimeSeries& series) {
  size_ = keypoints.size();
  stride_ = (size_ + kLanes - 1) / kLanes * kLanes;
  series_length_ = series.size();
  descriptor_length_ = 0;
  bool uniform = true;
  for (const Keypoint& kp : keypoints) {
    uniform = uniform && kp.descriptor.size() == keypoints[0].descriptor.size();
    descriptor_length_ = std::max(descriptor_length_, kp.descriptor.size());
  }
  lengths_.clear();
  if (!uniform) {
    for (const Keypoint& kp : keypoints) {
      lengths_.push_back(kp.descriptor.size());
    }
  }
  // Zero-filled, so padding reads as 0; kLanes trailing doubles let a
  // kernel load a whole vector from any row's last lane.
  data_.assign(size_ == 0 ? 0 : stride_ * (kFields + descriptor_length_) +
                                    kLanes,
               0.0);
  double* data = data_.data();
  for (std::size_t k = 0; k < size_; ++k) {
    const Keypoint& kp = keypoints[k];
    data[kPosition * stride_ + k] = kp.position;
    data[kSigma * stride_ + k] = kp.sigma;
    data[kAmplitude * stride_ + k] = kp.amplitude;
    double start = 0.0;
    double end = 0.0;
    ClampScope(kp.position, kp.sigma, series_length_, &start, &end);
    data[kScopeStart * stride_ + k] = start;
    data[kScopeEnd * stride_ + k] = end;
    data[kScopeAmplitude * stride_ + k] = ScopeAmplitude(series, start, end);
    double* column = data + kFields * stride_ + k;
    for (std::size_t t = 0; t < kp.descriptor.size(); ++t) {
      column[t * stride_] = kp.descriptor[t];
    }
  }
}

}  // namespace sift
}  // namespace sdtw
