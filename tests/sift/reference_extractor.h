#ifndef SDTW_TESTS_SIFT_REFERENCE_EXTRACTOR_H_
#define SDTW_TESTS_SIFT_REFERENCE_EXTRACTOR_H_

/// \file reference_extractor.h
/// \brief Test-only reference copy of salient-feature extraction as it was
/// before the flat pyramid: the per-tap reflecting convolution, the
/// nested-vector scale space, detection into full keypoints, the
/// sort / nth_element / sort cap, and description that recomputes a
/// level's gradient per keypoint. The library's extractor must keep
/// producing exactly what this produces (every field and descriptor
/// element bitwise), so the copy is frozen: it is an oracle, not code to
/// maintain.

#include <cstddef>
#include <vector>

#include "sift/extractor.h"
#include "sift/keypoint.h"
#include "signal/gaussian.h"
#include "ts/time_series.h"

namespace sdtw {
namespace reference {

/// signal::Convolve with reflective boundaries, one index reflection per
/// tap.
std::vector<double> Convolve(const std::vector<double>& input,
                             const signal::GaussianKernel& kernel);

/// Candidates of one series: every keypoint that passes the relaxed
/// extremum test, sorted by (position, σ), before the cap and without
/// descriptors.
std::vector<sift::Keypoint> Detect(const ts::TimeSeries& series,
                                   const sift::ExtractorOptions& options);

/// The whole extraction: detection, the keypoint cap, description.
std::vector<sift::Keypoint> Extract(const ts::TimeSeries& series,
                                    const sift::ExtractorOptions& options);

}  // namespace reference
}  // namespace sdtw

#endif  // SDTW_TESTS_SIFT_REFERENCE_EXTRACTOR_H_
