// Tests for the probability distribution helpers against known values and
// cross-identities (pmf sums, cdf complements, normal symmetry).
#include "stats/distributions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/cell_sampler_bank.h"
#include "core/grid_family.h"
#include "testing_util.h"

namespace sfa::stats {
namespace {

TEST(LogGamma, MatchesFactorials) {
  // Γ(n) = (n-1)!
  EXPECT_NEAR(LogGamma(1.0), 0.0, 1e-12);                    // 0! = 1
  EXPECT_NEAR(LogGamma(2.0), 0.0, 1e-12);                    // 1! = 1
  EXPECT_NEAR(LogGamma(5.0), std::log(24.0), 1e-10);         // 4! = 24
  EXPECT_NEAR(LogGamma(11.0), std::log(3628800.0), 1e-8);    // 10!
}

TEST(LogGamma, HalfIntegerValues) {
  // Γ(1/2) = sqrt(pi).
  EXPECT_NEAR(LogGamma(0.5), 0.5 * std::log(M_PI), 1e-10);
  // Γ(3/2) = sqrt(pi)/2.
  EXPECT_NEAR(LogGamma(1.5), std::log(std::sqrt(M_PI) / 2.0), 1e-10);
}

TEST(LogBinomialCoefficient, SmallValues) {
  EXPECT_NEAR(LogBinomialCoefficient(5, 2), std::log(10.0), 1e-10);
  EXPECT_NEAR(LogBinomialCoefficient(10, 5), std::log(252.0), 1e-9);
  EXPECT_DOUBLE_EQ(LogBinomialCoefficient(7, 0), 0.0);
  EXPECT_DOUBLE_EQ(LogBinomialCoefficient(7, 7), 0.0);
}

TEST(LogBinomialCoefficient, Symmetry) {
  for (uint64_t k = 0; k <= 30; ++k) {
    EXPECT_NEAR(LogBinomialCoefficient(30, k), LogBinomialCoefficient(30, 30 - k),
                1e-9);
  }
}

TEST(BinomialPmf, KnownValues) {
  // Binomial(4, 0.5): pmf = 1/16, 4/16, 6/16, 4/16, 1/16.
  EXPECT_NEAR(BinomialPmf(0, 4, 0.5), 1.0 / 16, 1e-12);
  EXPECT_NEAR(BinomialPmf(2, 4, 0.5), 6.0 / 16, 1e-12);
  EXPECT_NEAR(BinomialPmf(4, 4, 0.5), 1.0 / 16, 1e-12);
}

TEST(BinomialPmf, DegenerateP) {
  EXPECT_DOUBLE_EQ(BinomialPmf(0, 5, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(1, 5, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(5, 5, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(4, 5, 1.0), 0.0);
}

TEST(BinomialPmf, ImpossibleOutcome) {
  EXPECT_DOUBLE_EQ(BinomialPmf(6, 5, 0.5), 0.0);
}

TEST(BinomialPmf, SumsToOne) {
  for (double p : {0.1, 0.37, 0.5, 0.93}) {
    double total = 0.0;
    for (uint64_t k = 0; k <= 25; ++k) total += BinomialPmf(k, 25, p);
    EXPECT_NEAR(total, 1.0, 1e-10) << p;
  }
}

TEST(BinomialCdf, MatchesPartialSums) {
  const uint64_t n = 30;
  const double p = 0.42;
  double partial = 0.0;
  for (uint64_t k = 0; k < n; ++k) {
    partial += BinomialPmf(k, n, p);
    EXPECT_NEAR(BinomialCdf(k, n, p), partial, 1e-10) << k;
  }
  EXPECT_DOUBLE_EQ(BinomialCdf(n, n, p), 1.0);
}

TEST(BinomialCdf, LargeNStability) {
  // Median of Binomial(10^5, 0.5) → CDF at n/2 is ~0.5.
  EXPECT_NEAR(BinomialCdf(50000, 100000, 0.5), 0.5, 0.01);
  EXPECT_NEAR(BinomialCdf(49000, 100000, 0.5), 0.0, 1e-6);
  EXPECT_NEAR(BinomialCdf(51000, 100000, 0.5), 1.0, 1e-6);
}

TEST(BinomialSf, ComplementsCdf) {
  const uint64_t n = 20;
  const double p = 0.3;
  for (uint64_t k = 1; k <= n; ++k) {
    EXPECT_NEAR(BinomialSf(k, n, p), 1.0 - BinomialCdf(k - 1, n, p), 1e-10);
  }
  EXPECT_DOUBLE_EQ(BinomialSf(0, n, p), 1.0);
}

TEST(NormalCdf, StandardValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.959964), 0.975, 1e-6);
  EXPECT_NEAR(NormalCdf(-1.959964), 0.025, 1e-6);
  EXPECT_NEAR(NormalCdf(3.0), 0.99865, 1e-5);
}

TEST(NormalCdf, Symmetry) {
  for (double z : {0.3, 1.1, 2.7}) {
    EXPECT_NEAR(NormalCdf(z) + NormalCdf(-z), 1.0, 1e-12);
  }
}

TEST(NormalPdf, PeakAndSymmetry) {
  EXPECT_NEAR(NormalPdf(0.0), 1.0 / std::sqrt(2 * M_PI), 1e-12);
  EXPECT_NEAR(NormalPdf(1.5), NormalPdf(-1.5), 1e-15);
}

TEST(BinomialTestTwoSided, FairCoinExtremes) {
  // 0 heads in 10 fair flips: p = 2 * (1/1024) ≈ 0.00195.
  EXPECT_NEAR(BinomialTestTwoSided(0, 10, 0.5), 2.0 / 1024, 1e-9);
  // 5 heads in 10 is the mode: p = 1.
  EXPECT_NEAR(BinomialTestTwoSided(5, 10, 0.5), 1.0, 1e-9);
}

TEST(BinomialTestTwoSided, FiveNegativesExample) {
  // The paper's Fig. 2(a) intuition: a region of 5 points all-negative when
  // the global negative rate is 0.38 is NOT statistically surprising.
  // Observing k=0 positives among n=5 at rho=0.62.
  const double p_value = BinomialTestTwoSided(0, 5, 0.62);
  EXPECT_GT(p_value, 0.005);  // not significant at the paper's level
}

// Property sweep: CDF is monotone in k and bounded in [0, 1].
class BinomialCdfSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(BinomialCdfSweep, MonotoneAndBounded) {
  const auto [n, p] = GetParam();
  double prev = -1.0;
  for (uint64_t k = 0; k <= n; ++k) {
    const double c = BinomialCdf(k, n, p);
    ASSERT_GE(c, prev - 1e-12);
    ASSERT_GE(c, 0.0);
    ASSERT_LE(c, 1.0);
    prev = c;
  }
  ASSERT_NEAR(prev, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Params, BinomialCdfSweep,
    ::testing::Combine(::testing::Values<uint64_t>(1, 2, 10, 100),
                       ::testing::Values(0.01, 0.3, 0.5, 0.8, 0.99)));

TEST(FixedBinomialSampler, PointMasses) {
  sfa::Rng rng(51);
  const FixedBinomialSampler zero_n(0, 0.5);
  const FixedBinomialSampler zero_p(25, 0.0);
  const FixedBinomialSampler one_p(25, 1.0);
  const FixedBinomialSampler default_constructed;
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(zero_n.Draw(&rng), 0u);
    EXPECT_EQ(zero_p.Draw(&rng), 0u);
    EXPECT_EQ(one_p.Draw(&rng), 25u);
    EXPECT_EQ(default_constructed.Draw(&rng), 0u);
  }
}

TEST(FixedBinomialSampler, DeterministicGivenRngState) {
  const FixedBinomialSampler sampler(100, 0.37);
  sfa::Rng a(9), b(9);
  for (int i = 0; i < 200; ++i) ASSERT_EQ(sampler.Draw(&a), sampler.Draw(&b));
}

// Chi-square goodness of fit of the alias sampler against the exact pmf.
// Deterministic (fixed seed); the acceptance bound df + 5*sqrt(2 df) is ~5
// sigma above the chi-square mean.
class FixedBinomialGof
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(FixedBinomialGof, MatchesExactPmf) {
  const auto [n, p] = GetParam();
  const FixedBinomialSampler sampler(n, p);
  sfa::Rng rng(1234 + n);
  const int draws = 40000;
  std::vector<int> observed(n + 1, 0);
  for (int i = 0; i < draws; ++i) {
    const uint64_t k = sampler.Draw(&rng);
    ASSERT_LE(k, n);
    ++observed[k];
  }
  // Merge outcomes into bins with expected count >= 5 (standard chi-square
  // validity rule), sweeping k in order.
  double chi2 = 0.0;
  int df = -1;  // one constraint: totals match
  double expected_bin = 0.0, observed_bin = 0.0;
  for (uint64_t k = 0; k <= n; ++k) {
    expected_bin += BinomialPmf(k, n, p) * draws;
    observed_bin += observed[k];
    if (expected_bin >= 5.0) {
      chi2 += (observed_bin - expected_bin) * (observed_bin - expected_bin) /
              expected_bin;
      ++df;
      expected_bin = 0.0;
      observed_bin = 0.0;
    }
  }
  if (expected_bin > 0.0) {  // trailing partial bin
    chi2 += (observed_bin - expected_bin) * (observed_bin - expected_bin) /
            std::max(expected_bin, 1e-9);
    ++df;
  }
  ASSERT_GE(df, 1);
  EXPECT_LT(chi2, df + 5.0 * std::sqrt(2.0 * df))
      << "n=" << n << " p=" << p << " df=" << df;
}

INSTANTIATE_TEST_SUITE_P(
    Params, FixedBinomialGof,
    ::testing::Values(std::make_tuple<uint64_t, double>(12, 0.3),
                      std::make_tuple<uint64_t, double>(40, 0.62),
                      std::make_tuple<uint64_t, double>(100, 0.5),
                      std::make_tuple<uint64_t, double>(1000, 0.01),
                      std::make_tuple<uint64_t, double>(500, 0.93)));

TEST(FixedBinomialSampler, LargeNMomentsMatch) {
  const uint64_t n = 20000;
  const double p = 0.62;
  const FixedBinomialSampler sampler(n, p);
  sfa::Rng rng(77);
  const int draws = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < draws; ++i) {
    const double k = static_cast<double>(sampler.Draw(&rng));
    sum += k;
    sum_sq += k * k;
  }
  const double mean = sum / draws;
  const double var = sum_sq / draws - mean * mean;
  const double expected_mean = n * p;
  const double expected_var = n * p * (1 - p);
  EXPECT_NEAR(mean, expected_mean, 6.0 * std::sqrt(expected_var / draws));
  EXPECT_NEAR(var, expected_var, 0.05 * expected_var);
}

}  // namespace
// The flat cell bank against one FixedBinomialSampler per cell on the same
// stream: same cell draws, same totals, the generator left in the same state,
// world after world.
void ExpectBankMatchesSamplers(const core::CellDecomposition& decomposition,
                               double rho) {
  SCOPED_TRACE(::testing::Message() << "rho=" << rho);
  const core::CellSamplerBank bank(decomposition, rho);
  const core::testing::ReferenceCellSamplers reference(decomposition, rho);
  const size_t num_cells = decomposition.cell_counts.size();
  ASSERT_EQ(bank.num_cells(), num_cells);
  std::vector<uint32_t> got(num_cells, 7), want(num_cells);
  sfa::Rng kernel(91), oracle(91);
  for (int world = 0; world < 20; ++world) {
    const uint64_t got_p = bank.Draw(&kernel, got.data());
    const uint64_t want_p = reference.Draw(&oracle, want.data());
    ASSERT_EQ(got, want) << "world " << world;
    ASSERT_EQ(got_p, want_p) << "world " << world;
    ASSERT_TRUE(kernel == oracle) << "world " << world;
  }
}

const double kBankRhos[] = {0.0,  1e-300, 0x1.0p-53, 0.5,
                            0.54, std::nextafter(1.0, 0.0), 1.0};

TEST(CellSamplerBank, MatchesPerCellSamplers) {
  for (uint64_t outside : {0ull, 1ull, 7ull, 5000ull}) {
    core::CellDecomposition decomposition;
    decomposition.cell_counts = {0, 1, 2, 0, 5, 100, 3000, 0, 1, 2, 64};
    decomposition.num_outside = outside;
    for (double rho : kBankRhos) ExpectBankMatchesSamplers(decomposition, rho);
  }
  ExpectBankMatchesSamplers(core::CellDecomposition{}, 0.5);
}

TEST(CellSamplerBank, MatchesPerCellSamplersOnGrid) {
  // Points clustered in one corner of a wider extent leave most cells
  // empty, and a few points fall outside the grid entirely.
  sfa::Rng rng(92);
  std::vector<geo::Point> points;
  for (int i = 0; i < 2000; ++i) {
    points.emplace_back(rng.Uniform(0.0, 3.0), rng.Uniform(0.0, 2.0));
  }
  for (int i = 0; i < 25; ++i) {
    points.emplace_back(rng.Uniform(20.0, 30.0), 1.0);
  }
  auto family = core::GridPartitionFamily::CreateWithExtent(
      points, geo::Rect(0.0, 0.0, 10.0, 5.0), 100, 50);
  ASSERT_TRUE(family.ok()) << family.status().ToString();
  const core::CellDecomposition& decomposition =
      *(*family)->cell_decomposition();
  ASSERT_EQ(decomposition.num_outside, 25u);
  ASSERT_GT(std::count(decomposition.cell_counts.begin(),
                       decomposition.cell_counts.end(), 0u),
            1000);
  for (double rho : kBankRhos) ExpectBankMatchesSamplers(decomposition, rho);
}

}  // namespace sfa::stats
