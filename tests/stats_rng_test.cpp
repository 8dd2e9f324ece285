// Unit tests for the deterministic RNG wrapper and the AR(1) fading
// process that models temporally-correlated RSSI.

#include "stats/rng.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include <gtest/gtest.h>

#include "stats/running_stats.hpp"

namespace loctk::stats {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NormalWithZeroSigmaIsTheMeanAndDrawsLikeUnitSigma) {
  for (const std::uint64_t seed : {1ull, 42ull, 4242ull, 0x5eedull}) {
    Rng noiseless(seed), unit(seed);
    for (int i = 0; i < 50; ++i) {
      const double mean = -40.0 - i;
      EXPECT_EQ(noiseless.normal(mean, 0.0), mean);
      (void)unit.normal(mean, 1.0);
      // Same engine position: later draws of a noiseless channel do
      // not shift.
      EXPECT_TRUE(noiseless.engine() == unit.engine()) << "draw " << i;
    }
  }
}

TEST(Rng, NormalBitEqualToAFreshStdNormalDistribution) {
  for (const std::uint64_t seed : {3ull, 96ull, 1020ull, 10032ull}) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    Rng params(seed ^ 0xabcdefull);
    for (int i = 0; i < 200; ++i) {
      const double mean = params.uniform(-100.0, 0.0);
      const double sigma = params.uniform(0.01, 8.0);
      const double want =
          std::normal_distribution<double>(mean, sigma)(reference);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(rng.normal(mean, sigma)),
                std::bit_cast<std::uint64_t>(want))
          << "seed " << seed << " draw " << i;
    }
    EXPECT_TRUE(rng.engine() == reference);
  }
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-5.0, 3.0);
    EXPECT_GE(v, -5.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStats rs;
  for (int i = 0; i < 20000; ++i) rs.add(rng.normal(-60.0, 4.0));
  EXPECT_NEAR(rs.mean(), -60.0, 0.15);
  EXPECT_NEAR(rs.stddev(), 4.0, 0.15);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkedStreamsAreIndependentButDeterministic) {
  Rng parent1(99);
  Rng parent2(99);
  Rng childA1 = parent1.fork(1);
  Rng childA2 = parent2.fork(1);
  // Same parent seed + same salt -> identical child stream.
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(childA1.uniform(), childA2.uniform());
  }
  // Different salts -> different streams.
  Rng parent3(99);
  Rng childB = parent3.fork(2);
  Rng parent4(99);
  Rng childA = parent4.fork(1);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (childA.uniform() == childB.uniform()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Ar1, StationaryMoments) {
  Rng rng(17);
  Ar1Process ar(4.0, 0.9, rng);
  RunningStats rs;
  for (int i = 0; i < 60000; ++i) rs.add(ar.next(rng));
  EXPECT_NEAR(rs.mean(), 0.0, 0.35);
  EXPECT_NEAR(rs.stddev(), 4.0, 0.35);
}

TEST(Ar1, LagOneCorrelationMatchesRho) {
  Rng rng(19);
  const double rho = 0.85;
  Ar1Process ar(3.0, rho, rng);
  double prev = ar.value();
  double sum_xy = 0.0, sum_xx = 0.0;
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    const double cur = ar.next(rng);
    sum_xy += prev * cur;
    sum_xx += prev * prev;
    prev = cur;
  }
  EXPECT_NEAR(sum_xy / sum_xx, rho, 0.02);
}

TEST(Ar1, RhoZeroIsWhiteNoise) {
  Rng rng(23);
  Ar1Process ar(2.0, 0.0, rng);
  double prev = ar.value();
  double sum_xy = 0.0, sum_xx = 0.0;
  for (int i = 0; i < 40000; ++i) {
    const double cur = ar.next(rng);
    sum_xy += prev * cur;
    sum_xx += prev * prev;
    prev = cur;
  }
  EXPECT_NEAR(sum_xy / sum_xx, 0.0, 0.02);
}

// Property sweep over rho: the process stays bounded and its sample
// stddev tracks the configured sigma.
class Ar1Sweep : public ::testing::TestWithParam<double> {};

TEST_P(Ar1Sweep, VarianceIsRhoIndependent) {
  const double rho = GetParam();
  Rng rng(31);
  Ar1Process ar(5.0, rho, rng);
  RunningStats rs;
  for (int i = 0; i < 50000; ++i) rs.add(ar.next(rng));
  EXPECT_NEAR(rs.stddev(), 5.0, 0.6) << "rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(Rhos, Ar1Sweep,
                         ::testing::Values(0.0, 0.3, 0.5, 0.7, 0.9, 0.95));

}  // namespace
}  // namespace loctk::stats
