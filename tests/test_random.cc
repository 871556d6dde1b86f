// Tests for the deterministic RNG stack: reproducibility, range contracts,
// and distributional sanity at fixed seeds (loose tolerances — these are
// regression guards, not GOF certifications).
#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

namespace sfa {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.Next(), b.Next());
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform(-3.5, 12.25);
    ASSERT_GE(u, -3.5);
    ASSERT_LT(u, 12.25);
  }
}

TEST(Rng, NextUint64CoversRangeWithoutBias) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[rng.NextUint64(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, draws / 10, 500);  // ~5 sigma for binomial(1e5, .1)
  }
}

TEST(Rng, NextUint64OfOneIsAlwaysZero) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(rng.NextUint64(1), 0u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    ASSERT_FALSE(rng.Bernoulli(0.0));
    ASSERT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, BernoulliMatchesRate) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliThresholdIsExactAtItsBoundary) {
  // For every 53-bit draw m, m·2^-53 < p must hold exactly when
  // m < BernoulliThreshold(p); it suffices to check the two draws around the
  // threshold, where rounding would show.
  const double rhos[] = {1e-300, 0x1.0p-53, 0x1.8p-53,
                         1e-9,   0.3,       0.5,
                         0.54,   0.62,      std::nextafter(0.5, 1.0),
                         std::nextafter(1.0, 0.0)};
  for (double p : rhos) {
    const uint64_t t = Rng::BernoulliThreshold(p);
    ASSERT_GE(t, 1u) << p;
    ASSERT_LE(t, uint64_t{1} << 53) << p;
    EXPECT_TRUE(static_cast<double>(t - 1) * 0x1.0p-53 < p) << p;
    EXPECT_FALSE(static_cast<double>(t) * 0x1.0p-53 < p) << p;
  }
  EXPECT_EQ(Rng::BernoulliThreshold(std::nan("")), 0u);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(14);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaleAndShift) {
  Rng rng(15);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(16);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(17);
  const int n = 100000;
  uint64_t sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(3.0);
  EXPECT_NEAR(static_cast<double>(sum) / n, 3.0, 0.05);
}

TEST(Rng, PoissonLargeMeanUsesSplitPath) {
  Rng rng(18);
  const int n = 20000;
  uint64_t sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(100.0);
  EXPECT_NEAR(static_cast<double>(sum) / n, 100.0, 1.0);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(19);
  EXPECT_EQ(rng.Poisson(0.0), 0u);
}

TEST(Rng, BinomialMatchesMoments) {
  Rng rng(20);
  const int n = 50000;
  uint64_t sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.Binomial(40, 0.25);
  EXPECT_NEAR(static_cast<double>(sum) / n, 10.0, 0.15);
}

TEST(Rng, BinomialEdgeCases) {
  Rng rng(21);
  EXPECT_EQ(rng.Binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.Binomial(10, 0.0), 0u);
  EXPECT_EQ(rng.Binomial(10, 1.0), 10u);
}

TEST(Rng, BinomialHighPReflection) {
  Rng rng(22);
  const int n = 50000;
  uint64_t sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.Binomial(20, 0.9);
  EXPECT_NEAR(static_cast<double>(sum) / n, 18.0, 0.1);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(23);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, CategoricalSkipsZeroWeights) {
  Rng rng(24);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) ASSERT_EQ(rng.Categorical(weights), 1u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(25);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.Shuffle(v.begin(), v.end());
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) ASSERT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng root(42);
  Rng a1 = root.Split(1);
  Rng a2 = root.Split(1);
  Rng b = root.Split(2);
  EXPECT_EQ(a1.Next(), a2.Next());
  // Streams from different indices should disagree immediately w.h.p.
  Rng a3 = root.Split(1);
  EXPECT_NE(a3.Next(), b.Next());
}

TEST(Rng, SplitDoesNotPerturbParent) {
  Rng a(5), b(5);
  (void)a.Split(3);
  EXPECT_EQ(a.Next(), b.Next());
}

// Property sweep: bounded generation respects [0, n) for many n.
class RngBoundSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngBoundSweep, NextUint64StaysInRange) {
  const uint64_t n = GetParam();
  Rng rng(n * 31 + 7);
  for (int i = 0; i < 2000; ++i) ASSERT_LT(rng.NextUint64(n), n);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundSweep,
                         ::testing::Values(1, 2, 3, 7, 10, 100, 1000, 1ULL << 20,
                                           (1ULL << 62) + 12345));

// Property sweep: Binomial(n, p) stays within [0, n] and near its mean.
class BinomialSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(BinomialSweep, WithinSupportAndNearMean) {
  const auto [n, p] = GetParam();
  Rng rng(99);
  const int reps = 20000;
  uint64_t sum = 0;
  for (int i = 0; i < reps; ++i) {
    const uint64_t k = rng.Binomial(n, p);
    ASSERT_LE(k, n);
    sum += k;
  }
  const double mean = static_cast<double>(sum) / reps;
  const double expected = static_cast<double>(n) * p;
  const double sigma = std::sqrt(static_cast<double>(n) * p * (1 - p) / reps);
  EXPECT_NEAR(mean, expected, std::max(6.0 * sigma, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Params, BinomialSweep,
    ::testing::Combine(::testing::Values<uint64_t>(1, 5, 50, 500),
                       ::testing::Values(0.01, 0.25, 0.5, 0.75, 0.99)));

TEST(Rng, BinomialIsDeterministic) {
  Rng a(55), b(55);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(a.Binomial(30, 0.1), b.Binomial(30, 0.1));   // inversion branch
    ASSERT_EQ(a.Binomial(200, 0.4), b.Binomial(200, 0.4));  // BTRS branch
  }
}

// Chi-square goodness of fit against the exact pmf, for both sampler
// branches: CDF inversion (n·p < 10) and BTRS rejection (n·p >= 10),
// including the p > 1/2 reflection. Deterministic (fixed seeds); the bound
// df + 5*sqrt(2 df) sits ~5 sigma above the chi-square mean.
class BinomialChiSquare
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(BinomialChiSquare, MatchesExactPmf) {
  const auto [n, p] = GetParam();
  Rng rng(4242 + n);
  const int draws = 40000;
  std::vector<int> observed(n + 1, 0);
  for (int i = 0; i < draws; ++i) {
    const uint64_t k = rng.Binomial(n, p);
    ASSERT_LE(k, n);
    ++observed[k];
  }
  // Exact pmf by the stable recurrence from the mode (independent of the
  // sampler under test).
  std::vector<double> pmf(n + 1, 0.0);
  const double nd = static_cast<double>(n);
  const auto mode = static_cast<uint64_t>(
      std::min(nd, std::floor((nd + 1) * p)));
  {
    double log_pmf = 0.0;  // log C(n, mode) + mode log p + (n-mode) log q
    for (uint64_t i = 1; i <= mode; ++i) {
      log_pmf += std::log(nd - static_cast<double>(i) + 1.0) -
                 std::log(static_cast<double>(i));
    }
    log_pmf += static_cast<double>(mode) * std::log(p) +
               (nd - static_cast<double>(mode)) * std::log1p(-p);
    pmf[mode] = std::exp(log_pmf);
  }
  const double odds = p / (1.0 - p);
  for (uint64_t k = mode; k > 0; --k) {
    pmf[k - 1] = pmf[k] * static_cast<double>(k) /
                 (odds * (nd - static_cast<double>(k) + 1.0));
  }
  for (uint64_t k = mode; k < n; ++k) {
    pmf[k + 1] = pmf[k] * odds * (nd - static_cast<double>(k)) /
                 (static_cast<double>(k) + 1.0);
  }
  // Merge outcomes into bins with expected >= 5, then chi-square.
  double chi2 = 0.0;
  int df = -1;
  double expected_bin = 0.0, observed_bin = 0.0;
  for (uint64_t k = 0; k <= n; ++k) {
    expected_bin += pmf[k] * draws;
    observed_bin += observed[k];
    if (expected_bin >= 5.0) {
      chi2 += (observed_bin - expected_bin) * (observed_bin - expected_bin) /
              expected_bin;
      ++df;
      expected_bin = 0.0;
      observed_bin = 0.0;
    }
  }
  if (expected_bin > 0.0) {
    chi2 += (observed_bin - expected_bin) * (observed_bin - expected_bin) /
            std::max(expected_bin, 1e-9);
    ++df;
  }
  ASSERT_GE(df, 1);
  EXPECT_LT(chi2, df + 5.0 * std::sqrt(2.0 * df))
      << "n=" << n << " p=" << p << " df=" << df << " chi2=" << chi2;
}

INSTANTIATE_TEST_SUITE_P(
    Params, BinomialChiSquare,
    ::testing::Values(std::make_tuple<uint64_t, double>(30, 0.1),    // inversion
                      std::make_tuple<uint64_t, double>(12, 0.45),   // inversion
                      std::make_tuple<uint64_t, double>(200, 0.4),   // BTRS
                      std::make_tuple<uint64_t, double>(5000, 0.3),  // BTRS
                      std::make_tuple<uint64_t, double>(64, 0.85),   // reflected
                      std::make_tuple<uint64_t, double>(400, 0.97)));  // refl+inv

}  // namespace
}  // namespace sfa
