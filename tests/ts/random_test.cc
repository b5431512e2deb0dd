#include "ts/random.h"

#include <cstdint>
#include <gtest/gtest.h>
#include <random>

namespace sdtw {
namespace ts {
namespace {

TEST(RngTest, GaussianWithZeroSigmaReturnsMean) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(1.5, rng.Gaussian(1.5, 0.0));
    EXPECT_EQ(0.0, rng.Gaussian(0.0, 0.0));
  }
}

TEST(RngTest, GaussianMatchesStdNormalDistributionBitwise) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const double sigma : {1e-9, 0.3, 1.0, 7.5, 1e6}) {
      for (const double mu : {0.0, -2.5, 3.0}) {
        Rng rng(seed);
        std::mt19937_64 engine(seed);
        for (int i = 0; i < 5; ++i) {
          // Rng draws from a fresh distribution each call; so does this.
          std::normal_distribution<double> d(mu, sigma);
          EXPECT_EQ(d(engine), rng.Gaussian(mu, sigma))
              << "seed " << seed << " sigma " << sigma << " mu " << mu;
        }
      }
    }
  }
}

TEST(RngTest, ZeroSigmaDrawConsumesTheEngineLikeAnyOther) {
  Rng zero(7);
  Rng unit(7);
  zero.Gaussian(1.5, 0.0);
  unit.Gaussian(1.5, 1.0);
  EXPECT_EQ(zero.engine()(), unit.engine()());
  EXPECT_EQ(zero.Uniform(0.0, 1.0), unit.Uniform(0.0, 1.0));
}

}  // namespace
}  // namespace ts
}  // namespace sdtw
