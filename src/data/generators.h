#ifndef SDTW_DATA_GENERATORS_H_
#define SDTW_DATA_GENERATORS_H_

/// \file generators.h
/// \brief Synthetic data sets approximating the UCR sets of the paper's
/// experiments (Table 1: Gun 150/50/2, Trace 275/100/4, 50Words 270/450/50).
///
/// The real UCR archive is not redistributable with this repository, so the
/// generators below synthesise sets with the same cardinalities and the same
/// *structural profiles* the paper's analysis depends on (feature scale,
/// feature density, temporal shift), one per set:
///
///  * GunLike — two motion classes built from a rise–plateau–fall prototype;
///    class 2 adds a characteristic overshoot dip. Few, large-scale
///    features; moderate temporal shifts.
///  * TraceLike — four transient classes (step vs. ramp × with/without an
///    oscillation burst) with large random temporal shifts: the regime where
///    fixed-core bands fail badly.
///  * WordsLike — 50 random smooth prototypes with many fine features, only
///    minor deformation around the diagonal and no major shift.
///
/// A UCR-format loader (ts/io.h) lets benches run on the real sets when a
/// local copy exists.

#include <cstddef>
#include <cstdint>
#include <functional>

#include "ts/random.h"
#include "ts/time_series.h"

namespace sdtw {
namespace data {

/// \brief The deformation model applied to every generated instance: a
/// smooth order-preserving random time warp (the paper's assumed
/// transformation class), amplitude jitter, and additive Gaussian noise.
struct DeformationOptions {
  /// Maximum fractional local time dilation of the smooth random warp
  /// (0.25 = local speed varies by up to ±25%).
  double warp_strength = 0.25;

  /// Maximum global shift as a fraction of the series length.
  double shift_fraction = 0.05;

  /// Multiplicative amplitude jitter range (gain drawn uniformly in
  /// [1-a, 1+a]).
  double amplitude_jitter = 0.05;

  /// Standard deviation of i.i.d. Gaussian observation noise.
  double noise_sigma = 0.02;

  /// Number of random warp control points (more = wigglier warp).
  std::size_t warp_knots = 4;
};

/// Applies the deformation model to a prototype (output length = input
/// length). Deterministic given `rng` state.
ts::TimeSeries Deform(const ts::TimeSeries& prototype,
                      const DeformationOptions& options, ts::Rng& rng);

/// \brief Common generator parameters.
struct GeneratorOptions {
  std::size_t length = 0;       ///< Series length (0 = data set default).
  std::size_t num_series = 0;   ///< Total series count (0 = default).
  std::uint64_t seed = ts::Rng::kDefaultSeed;
  DeformationOptions deform;
  /// Z-normalise each generated series (UCR convention).
  bool z_normalize = true;
};

/// GunLike: length 150, 50 series, 2 classes by default.
ts::Dataset MakeGunLike(GeneratorOptions options = {});

/// TraceLike: length 275, 100 series, 4 classes by default.
ts::Dataset MakeTraceLike(GeneratorOptions options = {});

/// WordsLike: length 270, 450 series, 50 classes by default.
ts::Dataset MakeWordsLike(GeneratorOptions options = {});

/// Builds one of the three sets by name ("gun", "trace", "50words");
/// falls back to gun for unknown names.
ts::Dataset MakeByName(const std::string& name, GeneratorOptions options = {});

/// The three paper data sets with default options and the given seed.
std::vector<ts::Dataset> MakePaperDatasets(
    std::uint64_t seed = ts::Rng::kDefaultSeed);

/// \brief Primitive pattern vocabulary used by the generators; exposed for
/// tests and for building custom data sets.
namespace patterns {

/// Smooth sigmoid step from 0 to 1 centred at `center` with rise time
/// `width` (in samples), sampled over [0, length).
ts::TimeSeries Step(std::size_t length, double center, double width);

/// Linear ramp from 0 to 1 between `begin` and `end` (flat outside).
ts::TimeSeries Ramp(std::size_t length, double begin, double end);

/// Gaussian bump of the given centre/width/height.
ts::TimeSeries Bump(std::size_t length, double center, double width,
                    double height = 1.0);

/// Damped oscillation burst: sin with exponentially decaying envelope,
/// starting at `onset` with the given period (samples) and decay constant.
ts::TimeSeries Burst(std::size_t length, double onset, double period,
                     double decay, double height = 1.0);

/// Sum of `k` random Gaussian bumps (the WordsLike prototype family).
/// Bump widths are drawn uniformly from
/// [min_width_fraction, max_width_fraction] × length; the defaults give a
/// mixed fine/medium profile.
ts::TimeSeries RandomSmooth(std::size_t length, std::size_t k, ts::Rng& rng,
                            double min_width_fraction = 0.01,
                            double max_width_fraction = 0.08);

}  // namespace patterns

}  // namespace data
}  // namespace sdtw

#endif  // SDTW_DATA_GENERATORS_H_
