#ifndef SDTW_SIFT_KEYPOINT_H_
#define SDTW_SIFT_KEYPOINT_H_

/// \file keypoint.h
/// \brief Salient feature (keypoint) representation for 1-D time series.
///
/// A salient feature, per paper §3.1.2, is a scale-space extremum ⟨x, σ⟩ of
/// the difference-of-Gaussian series. It carries a temporal position, a
/// temporal scale, a scope of radius 3σ (under Gaussian smoothing three
/// standard deviations cover ~99.73% of the contributing samples), an
/// amplitude, and a gradient-histogram descriptor used for matching.

#include <cstddef>
#include <vector>

namespace sdtw {
namespace sift {

/// Scope radius of a feature of temporal scale σ: 3σ. Every scope bound
/// and length in the library derives from this one rule.
inline double ScopeRadius(double sigma) { return 3.0 * sigma; }

/// \brief A salient feature with its temporal descriptor.
struct Keypoint {
  /// Centre position in original-resolution samples.
  double position = 0.0;
  /// Temporal scale σ in original-resolution samples.
  double sigma = 0.0;
  /// Octave index the feature was detected in (0 = original resolution).
  std::size_t octave = 0;
  /// DoG level within the octave.
  std::size_t level = 0;
  /// DoG response at the extremum (signed; sign distinguishes peaks from
  /// dips).
  double response = 0.0;
  /// Smoothed series value at the feature centre — the feature "amplitude"
  /// compared against τ_a during matching.
  double amplitude = 0.0;
  /// Gradient descriptor (length = 2a * 2, see Descriptor creation).
  std::vector<double> descriptor;

  /// Scope radius: ScopeRadius(σ).
  double scope_radius() const { return ScopeRadius(sigma); }

  /// Scope start, clamped at 0.
  double scope_start() const {
    const double s = position - scope_radius();
    return s > 0.0 ? s : 0.0;
  }

  /// Scope end (not clamped to the series length here; callers clamp).
  double scope_end() const { return position + scope_radius(); }

  /// Temporal length of the scope (unclamped).
  double scope_length() const { return 2.0 * scope_radius(); }
};

/// Scale classes used by the paper's Table 2 reporting.
enum class ScaleClass {
  kFine,    ///< Octave 0 — features at the original time resolution.
  kMedium,  ///< Octave 1.
  kRough,   ///< Octave 2 and coarser.
};

/// Buckets a keypoint into fine/medium/rough by its octave.
inline ScaleClass ClassifyScale(const Keypoint& kp) {
  if (kp.octave == 0) return ScaleClass::kFine;
  if (kp.octave == 1) return ScaleClass::kMedium;
  return ScaleClass::kRough;
}

}  // namespace sift
}  // namespace sdtw

#endif  // SDTW_SIFT_KEYPOINT_H_
