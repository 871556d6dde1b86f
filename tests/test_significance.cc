// Tests for Monte Carlo null calibration: p-value semantics, critical
// values, determinism across thread counts, and the two null models.
#include "core/significance.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/bernoulli_statistic.h"
#include "core/grid_family.h"
#include "core/scan.h"

namespace sfa::core {
namespace {

TEST(NullDistribution, PValueRankSemantics) {
  // Null maxima: 5 worlds. With the observed world, w = 6.
  NullDistribution dist({1.0, 2.0, 3.0, 4.0, 5.0});
  // Observed 10 beats everything: p = 1/6.
  EXPECT_NEAR(dist.PValue(10.0), 1.0 / 6, 1e-12);
  // Observed 0 beats nothing: p = 6/6.
  EXPECT_NEAR(dist.PValue(0.0), 1.0, 1e-12);
  // Observed 3.5: three null values >= 3.5? No — 4 and 5 → p = 3/6.
  EXPECT_NEAR(dist.PValue(3.5), 3.0 / 6, 1e-12);
  // Ties count against the observed world (conservative): observed 3.0 →
  // {3, 4, 5} are >= → p = 4/6.
  EXPECT_NEAR(dist.PValue(3.0), 4.0 / 6, 1e-12);
}

TEST(NullDistribution, CriticalValueMatchesPValue) {
  std::vector<double> maxima;
  for (int i = 1; i <= 999; ++i) maxima.push_back(static_cast<double>(i));
  NullDistribution dist(std::move(maxima));
  const double critical = dist.CriticalValue(0.005);
  // alpha*w = 0.005*1000 = 5 → the 5th largest null value, 995.
  EXPECT_DOUBLE_EQ(critical, 995.0);
  // Just above the critical value → significant.
  EXPECT_LE(dist.PValue(995.5), 0.005);
  // At or below → not significant.
  EXPECT_GT(dist.PValue(995.0), 0.005);
}

TEST(NullDistribution, UnattainableAlphaGivesInfinity) {
  NullDistribution dist({1.0, 2.0, 3.0});  // w = 4, min p = 0.25
  EXPECT_TRUE(std::isinf(dist.CriticalValue(0.1)));
  EXPECT_FALSE(std::isinf(dist.CriticalValue(0.25)));
}

TEST(NullDistribution, SortsInput) {
  NullDistribution dist({3.0, 1.0, 2.0});
  EXPECT_EQ(dist.MaximaVector(), (std::vector<double>{3.0, 2.0, 1.0}));
  // Already-descending input skips the sort; every order ends the same,
  // ties included.
  const std::vector<double> descending = {4.0, 3.0, 3.0, 2.0, 0.5, 0.0};
  for (const std::vector<double>& input :
       {descending, std::vector<double>(descending.rbegin(), descending.rend()),
        std::vector<double>{2.0, 0.0, 3.0, 4.0, 0.5, 3.0}}) {
    const NullDistribution sorted(input);
    EXPECT_EQ(std::vector<double>(sorted.sorted_max().begin(),
                                  sorted.sorted_max().end()),
              descending);
  }
}

TEST(NullDistribution, MetadataConstructorCarriesStopState) {
  const NullDistribution full({3.0, 1.0, 2.0});
  EXPECT_EQ(full.worlds_requested(), 3u);
  EXPECT_FALSE(full.early_stopped());
  EXPECT_EQ(full.stop_reason(), McStopReason::kNone);

  const NullDistribution stopped({3.0, 1.0, 2.0}, /*worlds_requested=*/99,
                                 McStopReason::kCiAboveAlpha);
  EXPECT_EQ(stopped.worlds_requested(), 99u);
  EXPECT_TRUE(stopped.early_stopped());
  EXPECT_EQ(stopped.stop_reason(), McStopReason::kCiAboveAlpha);
  // Same maxima → same p-values: the metadata annotates, never reweights.
  EXPECT_DOUBLE_EQ(stopped.PValue(2.5), full.PValue(2.5));
}

std::vector<double> GumbelLikeMaxima(size_t n, uint64_t seed) {
  // Inverse-CDF samples of a Gumbel(3, 0.8): x = mu - beta*log(-log(u)).
  sfa::Rng rng(seed);
  std::vector<double> out(n);
  for (auto& x : out) {
    x = 3.0 - 0.8 * std::log(-std::log(rng.Uniform(1e-12, 1.0)));
  }
  return out;
}

TEST(NullDistribution, GumbelPValueRejectsDegenerateNulls) {
  // Constant maxima (e.g. a tiny family where every world scans to 0) have
  // no tail to fit — the error must be explicit, not a NaN downstream.
  const NullDistribution constant({0.0, 0.0, 0.0, 0.0});
  EXPECT_FALSE(constant.GumbelPValue(1.0).ok());
  const NullDistribution single({2.0});
  EXPECT_FALSE(single.GumbelPValue(1.0).ok());
}

TEST(NullDistribution, AutoDegradesToEmpiricalOnDegenerateNull) {
  // kAuto on a constant-maxima null: the tail fit cannot be attempted, so
  // the estimate cleanly stays empirical — no error surfaces.
  const NullDistribution constant({0.0, 0.0, 0.0, 0.0});
  const PValueEstimate est =
      constant.ResolvePValue(1.0, SignificanceMethod::kAuto);
  EXPECT_EQ(est.method, SignificanceMethod::kEmpirical);
  EXPECT_FALSE(est.tail_fit_ok);
  EXPECT_DOUBLE_EQ(est.p_value, constant.PValue(1.0));
}

TEST(NullDistribution, AutoUsesEmpiricalInRange) {
  const NullDistribution dist(GumbelLikeMaxima(499, 11));
  const double in_range = dist.sorted_max()[100];  // well inside the sample
  const PValueEstimate est =
      dist.ResolvePValue(in_range, SignificanceMethod::kAuto);
  EXPECT_EQ(est.method, SignificanceMethod::kEmpirical);
  EXPECT_DOUBLE_EQ(est.p_value, dist.PValue(in_range));
}

TEST(NullDistribution, AutoUsesTailBeyondSimulatedRange) {
  const NullDistribution dist(GumbelLikeMaxima(499, 12));
  const double beyond = dist.sorted_max().front() + 5.0;
  const PValueEstimate est =
      dist.ResolvePValue(beyond, SignificanceMethod::kAuto);
  ASSERT_EQ(est.method, SignificanceMethod::kGumbelTail);
  EXPECT_TRUE(est.tail_fit_ok);
  EXPECT_LE(est.tail_ks, kDefaultTailKsGate);
  // The tail p-value breaks the empirical 1/(W+1) resolution cap, and kAuto
  // keeps it under that cap (monotone in the evidence).
  EXPECT_LT(est.p_value, dist.PValue(beyond));
  EXPECT_GT(est.p_value, 0.0);
}

TEST(NullDistribution, TailFitGateRejectsNonGumbelNulls) {
  // A bimodal null is nothing like a Gumbel: the KS gate must fail it and
  // kGumbelTail must then degrade to empirical instead of extrapolating.
  std::vector<double> bimodal;
  for (int i = 0; i < 250; ++i) bimodal.push_back(1.0 + 1e-3 * i);
  for (int i = 0; i < 250; ++i) bimodal.push_back(100.0 + 1e-3 * i);
  const NullDistribution dist(std::move(bimodal));
  const TailFit fit = dist.AssessTailFit();
  EXPECT_TRUE(fit.fitted);
  EXPECT_FALSE(fit.ok);
  EXPECT_GT(fit.ks_distance, kDefaultTailKsGate);
  const PValueEstimate est =
      dist.ResolvePValue(200.0, SignificanceMethod::kGumbelTail);
  EXPECT_EQ(est.method, SignificanceMethod::kEmpirical);
  EXPECT_FALSE(est.tail_fit_ok);
  EXPECT_DOUBLE_EQ(est.p_value, dist.PValue(200.0));
}

TEST(NullDistribution, CriticalValueExFlagsResolvability) {
  // W-1 = 19 worlds → w = 20. alpha = 0.05 = 1/w is the exact boundary:
  // floor(0.05*20) = 1 → resolvable (the largest null value). Any alpha
  // strictly below 1/w is unresolvable.
  std::vector<double> maxima;
  for (int i = 1; i <= 19; ++i) maxima.push_back(static_cast<double>(i));
  const NullDistribution dist(std::move(maxima));

  const CriticalValueInfo at_boundary = dist.CriticalValueEx(0.05);
  EXPECT_TRUE(at_boundary.resolvable);
  EXPECT_FALSE(at_boundary.advisory_tail);
  EXPECT_DOUBLE_EQ(at_boundary.value, 19.0);
  EXPECT_DOUBLE_EQ(at_boundary.value, dist.CriticalValue(0.05));

  const CriticalValueInfo below = dist.CriticalValueEx(0.049);
  EXPECT_FALSE(below.resolvable);
  EXPECT_FALSE(below.advisory_tail);
  EXPECT_TRUE(std::isinf(below.value));
}

TEST(NullDistribution, CriticalValueExAdvisoryUsesGumbelQuantile) {
  const NullDistribution dist(GumbelLikeMaxima(99, 13));
  // alpha far below the 1/100 resolution: empirically unresolvable, but the
  // healthy tail fit supplies a finite advisory threshold.
  const CriticalValueInfo plain = dist.CriticalValueEx(0.001);
  EXPECT_FALSE(plain.resolvable);
  EXPECT_TRUE(std::isinf(plain.value));

  const CriticalValueInfo advisory =
      dist.CriticalValueEx(0.001, /*tail_advisory=*/true);
  EXPECT_FALSE(advisory.resolvable);
  EXPECT_TRUE(advisory.advisory_tail);
  EXPECT_TRUE(std::isfinite(advisory.value));
  // The advisory threshold sits beyond the simulated range — it answers
  // "how extreme would Λ need to be", consistent with the tail p-value.
  EXPECT_GT(advisory.value, dist.CriticalValue(0.05));
}

TEST(SignificanceEnumToString, Names) {
  EXPECT_STREQ(SignificanceMethodToString(SignificanceMethod::kEmpirical),
               "empirical");
  EXPECT_STREQ(SignificanceMethodToString(SignificanceMethod::kGumbelTail),
               "gumbel-tail");
  EXPECT_STREQ(SignificanceMethodToString(SignificanceMethod::kAuto), "auto");
  EXPECT_STREQ(McStopReasonToString(McStopReason::kNone), "none");
  EXPECT_STREQ(McStopReasonToString(McStopReason::kCiBelowAlpha),
               "ci-below-alpha");
  EXPECT_STREQ(McStopReasonToString(McStopReason::kCiAboveAlpha),
               "ci-above-alpha");
}

std::unique_ptr<GridPartitionFamily> UniformFamily(size_t n, uint64_t seed,
                                                   uint32_t g = 4) {
  sfa::Rng rng(seed);
  std::vector<geo::Point> pts(n);
  for (auto& p : pts) p = {rng.Uniform(0, 1), rng.Uniform(0, 1)};
  auto family = GridPartitionFamily::Create(pts, g, g);
  EXPECT_TRUE(family.ok());
  return std::move(*family);
}

/// The two-sided Bernoulli null of `family` with `positives` of its points
/// positive (ρ = P/N).
Result<NullDistribution> SimulateTwoSided(const RegionFamily& family,
                                          uint64_t positives,
                                          const MonteCarloOptions& opts) {
  const BernoulliScanStatistic statistic(stats::ScanDirection::kTwoSided,
                                         family.num_points(), positives);
  return SimulateNull(statistic, family, opts);
}

TEST(SimulateNull, RejectsBadOptions) {
  auto family = UniformFamily(100, 71);
  MonteCarloOptions opts;
  opts.num_worlds = 0;
  EXPECT_FALSE(SimulateTwoSided(*family, 50, opts).ok());
  opts.num_worlds = 10;
  EXPECT_FALSE(SimulateTwoSided(*family, 200, opts).ok());
  // A statistic bound to a different view size than the family.
  const BernoulliScanStatistic mismatched(stats::ScanDirection::kTwoSided, 99,
                                          50);
  EXPECT_FALSE(SimulateNull(mismatched, *family, opts).ok());
}

TEST(SimulateNull, DeterministicAcrossParallelism) {
  auto family = UniformFamily(500, 72);
  MonteCarloOptions serial;
  serial.num_worlds = 50;
  serial.seed = 7;
  serial.parallel = false;
  MonteCarloOptions parallel = serial;
  parallel.parallel = true;
  auto a = SimulateTwoSided(*family, 200, serial);
  auto b = SimulateTwoSided(*family, 200, parallel);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->MaximaVector(), b->MaximaVector());
}

TEST(SimulateNull, DifferentSeedsGiveDifferentDistributions) {
  auto family = UniformFamily(500, 73);
  MonteCarloOptions opts;
  opts.num_worlds = 20;
  opts.seed = 1;
  auto a = SimulateTwoSided(*family, 250, opts);
  opts.seed = 2;
  auto b = SimulateTwoSided(*family, 250, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->MaximaVector(), b->MaximaVector());
}

TEST(SimulateNull, NullMaximaArePositiveAndFinite) {
  auto family = UniformFamily(1000, 74);
  MonteCarloOptions opts;
  opts.num_worlds = 100;
  auto dist = SimulateTwoSided(*family, 620, opts);
  ASSERT_TRUE(dist.ok());
  for (double v : dist->sorted_max()) {
    ASSERT_GT(v, 0.0);  // some cell always deviates a little
    ASSERT_LT(v, 100.0);
  }
}

TEST(SimulateNull, PermutationNullWorksToo) {
  auto family = UniformFamily(500, 75);
  MonteCarloOptions opts;
  opts.num_worlds = 50;
  opts.null_model = NullModel::kPermutation;
  auto dist = SimulateTwoSided(*family, 250, opts);
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(dist->num_worlds(), 50u);
}

TEST(SimulateNull, BernoulliAndPermutationNullsAgreeRoughly) {
  // For moderate N the two null models produce similar critical values.
  auto family = UniformFamily(2000, 76);
  MonteCarloOptions opts;
  opts.num_worlds = 199;
  opts.null_model = NullModel::kBernoulli;
  auto bern = SimulateTwoSided(*family, 1000, opts);
  opts.null_model = NullModel::kPermutation;
  auto perm = SimulateTwoSided(*family, 1000, opts);
  ASSERT_TRUE(bern.ok() && perm.ok());
  const double c_bern = bern->CriticalValue(0.05);
  const double c_perm = perm->CriticalValue(0.05);
  EXPECT_NEAR(c_bern, c_perm, std::max(c_bern, c_perm));  // same order of magnitude
}

// The statistical contract: under a fair world, the p-value of a fresh
// fair draw should be roughly uniform — in particular, it should exceed
// 0.05 most of the time. (Smoke-level calibration check.)
TEST(SimulateNull, FairWorldsAreRarelySignificant) {
  auto family = UniformFamily(800, 77);
  MonteCarloOptions opts;
  opts.num_worlds = 99;
  opts.seed = 31;
  auto dist = SimulateTwoSided(*family, 400, opts);
  ASSERT_TRUE(dist.ok());

  sfa::Rng rng(32);
  int significant = 0;
  const int trials = 60;
  const stats::LogLikelihoodTable table(800);
  for (int trial = 0; trial < trials; ++trial) {
    const Labels labels = Labels::SampleBernoulli(800, 0.5, &rng);
    const double observed =
        ScanAllRegions(*family, labels, stats::ScanDirection::kTwoSided, table)
            .max_llr;
    if (dist->PValue(observed) <= 0.05) ++significant;
  }
  // Expect about 5% of 60 ≈ 3; allow generous slack.
  EXPECT_LE(significant, 10);
}

TEST(NullModelToString, Names) {
  EXPECT_STREQ(NullModelToString(NullModel::kBernoulli),
               "unconditional Bernoulli");
  EXPECT_STREQ(NullModelToString(NullModel::kPermutation),
               "conditional permutation");
}

TEST(EnumToString, NamesAreDistinct) {
  // Reports embed these strings; two enum values must never render alike.
  EXPECT_STRNE(NullModelToString(NullModel::kBernoulli),
               NullModelToString(NullModel::kPermutation));
}

}  // namespace
}  // namespace sfa::core
