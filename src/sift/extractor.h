#ifndef SDTW_SIFT_EXTRACTOR_H_
#define SDTW_SIFT_EXTRACTOR_H_

/// \file extractor.h
/// \brief 1-D SIFT-style salient feature extraction (paper §3.1.2).
///
/// Step 1 (scale-space extrema detection) searches the DoG pyramid for
/// points ⟨x, σ⟩ that are larger than (1 − ε)× each of their neighbours in
/// time and scale — a *relaxed* extremum test: the paper deliberately does
/// not over-prune keypoints, since nearby features help rather than hurt
/// band construction. Step 2 (descriptor creation) samples Gaussian-weighted
/// gradient magnitudes around each surviving point into a 2a × 2 histogram.
///
/// Extraction is a one-time, per-series operation (paper §3.4): extract
/// once, reuse across every pairwise comparison.

#include <cstddef>
#include <vector>

#include "sift/keypoint.h"
#include "signal/scale_space.h"
#include "ts/time_series.h"

namespace sdtw {
namespace sift {

/// \brief Configuration of the salient feature extractor.
struct ExtractorOptions {
  /// Scale-space construction parameters (octaves default to the paper's
  /// o = ⌊log2 N⌋ − 6 via ScaleSpaceOptions::num_octaves == 0, s = 2).
  signal::ScaleSpaceOptions scale_space;

  /// Relaxation ε of the extremum test: a point survives when its |DoG|
  /// response is >= (1 − ε) × every neighbour's. The paper quotes
  /// "ε = 0.96%"; reproducing Table 2's keypoint densities (~3 points per
  /// sample) requires reading this as 1 − ε = 0.04, i.e. ε = 0.96 — a
  /// heavily relaxed test whose real filtering happens downstream in
  /// matching and inconsistency pruning (README, "Salient-feature
  /// extraction").
  double epsilon = 0.96;

  /// Minimum |DoG| response; suppresses low-contrast keypoints (SIFT step 2
  /// analogue). Relative to the series' value scale — series are typically
  /// z-normalised first. 0 disables the filter. 0.01 sits above the DoG
  /// response of typical observation noise on z-normalised series, which is
  /// what makes the per-scale keypoint counts reflect data structure rather
  /// than pyramid geometry (Table 2).
  double min_contrast = 0.01;

  /// Upper bound on the number of keypoints kept per series (strongest
  /// |DoG| response wins; 0 disables). §3.4's cost model assumes
  /// |S_X| ≪ N, so the default caps the count at a fraction of the series
  /// length via max_keypoints_fraction when this is 0.
  std::size_t max_keypoints = 0;

  /// When max_keypoints == 0, the cap is
  /// ceil(max_keypoints_fraction * series length); <= 0 disables capping
  /// entirely (used by the Table 2 density analysis). 0.1 keeps |S| ≪ N
  /// while measurably *improving* alignment quality over denser pools: the
  /// strongest responses give the most reliable matches.
  double max_keypoints_fraction = 0.1;

  /// Total descriptor length (2a × 2); must be an even number >= 2. The
  /// paper sweeps 4..128 and defaults to 64.
  std::size_t descriptor_length = 64;

  /// Samples per descriptor cell on the detection octave's grid (SIFT uses
  /// 16px/4cells = 4).
  double cell_width = 4.0;

  /// Normalise descriptors to unit length (invariance against variations in
  /// absolute values, §3.1.2; can be turned off when absolute amplitudes
  /// matter).
  bool normalize_descriptor = true;

  /// SIFT-style clamp applied after normalisation to reduce the influence
  /// of single large gradients; 0 disables.
  double descriptor_clamp = 0.2;

  /// When true, both maxima and minima of the DoG are detected (peaks and
  /// dips are both salient in time series).
  bool detect_minima = true;
};

/// \brief Extracts salient features from time series.
///
/// The options' Gaussian kernels and level σ are resolved once, at
/// construction; Extract keeps everything else in per-call storage, so
/// one extractor may serve any number of threads at once.
class SalientExtractor {
 public:
  explicit SalientExtractor(ExtractorOptions options = {});

  const ExtractorOptions& options() const { return options_; }

  /// Runs detection + description on one series. Returned keypoints are in
  /// original-resolution coordinates, sorted by position (then σ).
  std::vector<Keypoint> Extract(const ts::TimeSeries& series) const;

 private:
  ExtractorOptions options_;
  signal::ScaleSpaceKernels kernels_;
};

/// Counts keypoints per scale class (Table 2 reporting).
struct ScaleHistogram {
  double fine = 0;
  double medium = 0;
  double rough = 0;
  double total() const { return fine + medium + rough; }
};

/// Buckets `keypoints` into the Table 2 scale classes.
ScaleHistogram CountByScale(const std::vector<Keypoint>& keypoints);

}  // namespace sift
}  // namespace sdtw

#endif  // SDTW_SIFT_EXTRACTOR_H_
