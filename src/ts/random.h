#ifndef SDTW_TS_RANDOM_H_
#define SDTW_TS_RANDOM_H_

/// \file random.h
/// \brief Deterministic random utilities shared by generators and tests.

#include <cstdint>
#include <random>

namespace sdtw {
namespace ts {

/// \brief A small wrapper over std::mt19937_64 with convenience draws.
///
/// All data generation in the library routes through Rng so experiments are
/// reproducible from a single seed.
class Rng {
 public:
  static constexpr std::uint64_t kDefaultSeed = 0x5D7C0FFEEULL;

  explicit Rng(std::uint64_t seed = kDefaultSeed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    std::uniform_real_distribution<double> d(lo, hi);
    return d(engine_);
  }

  /// Standard normal scaled by sigma, centred at mu. sigma = 0 is allowed
  /// and returns mu (std::normal_distribution itself requires sigma > 0):
  /// the standard draw z is scaled as z * sigma + mu, the arithmetic the
  /// library distribution performs, so every draw is bitwise the same and
  /// consumes the same engine output whatever sigma is.
  double Gaussian(double mu = 0.0, double sigma = 1.0) {
    std::normal_distribution<double> d;
    return d(engine_) * sigma + mu;
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    std::uniform_int_distribution<std::int64_t> d(lo, hi);
    return d(engine_);
  }

  /// Bernoulli draw.
  bool Coin(double p = 0.5) {
    std::bernoulli_distribution d(p);
    return d(engine_);
  }

  /// Underlying engine (for std::shuffle and distributions).
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace ts
}  // namespace sdtw

#endif  // SDTW_TS_RANDOM_H_
