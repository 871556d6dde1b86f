// The adaptive sequential Monte Carlo contract (tier1 + stat):
//
//   prefix identity     an adaptive run's completed worlds are byte-identical
//                       to a fixed-num_worlds run of the same length;
//   engine invariance   the stop point and the maxima depend only on the
//                       decision-relevant options — never on batch size,
//                       thread count, or parallel on/off;
//   decision agreement  early-stopped calibrations reach the same
//                       significant/not-significant verdict at alpha as the
//                       full-precision run, across seeds, both scan
//                       directions, and both statistics (property test);
//   key hygiene         adaptive calibrations never alias full-precision
//                       cache/store entries;
//   propagation         AuditView, the batch pipeline manifest, and the
//                       streaming stats all surface the early-stop metadata.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/audit.h"
#include "core/audit_pipeline.h"
#include "core/bernoulli_statistic.h"
#include "core/calibration_cache.h"
#include "core/grid_family.h"
#include "core/multinomial_statistic.h"
#include "core/scan_statistic.h"
#include "core/significance.h"
#include "testing_util.h"

namespace sfa::core {
namespace {

using core::testing::MakePlantedCity;

/// A 3-class city on [0,10)²: class 2 is oversampled inside the planted
/// zone when `planted` (otherwise the mix is location-independent).
data::OutcomeDataset MakeClassCity(uint64_t seed, size_t n, bool planted) {
  Rng rng(seed);
  data::OutcomeDataset ds("classcity");
  const geo::Rect zone(6.0, 6.0, 9.0, 9.0);
  for (size_t i = 0; i < n; ++i) {
    const geo::Point loc(rng.Uniform(0, 10), rng.Uniform(0, 10));
    const double u = rng.Uniform(0, 1);
    uint8_t cls;
    if (planted && zone.Contains(loc)) {
      cls = u < 0.1 ? 0 : (u < 0.2 ? 1 : 2);  // zone: mostly class 2
    } else {
      cls = u < 0.4 ? 0 : (u < 0.8 ? 1 : 2);
    }
    ds.Add(loc, cls);
  }
  return ds;
}

std::unique_ptr<GridPartitionFamily> FamilyFor(
    const data::OutcomeDataset& ds) {
  auto family = GridPartitionFamily::Create(ds.locations(), 6, 6);
  SFA_CHECK_OK(family.status());
  return std::move(family).value();
}

MonteCarloOptions AdaptiveOptions(double observed, double alpha,
                                  uint32_t num_worlds, uint64_t seed) {
  MonteCarloOptions mc;
  mc.num_worlds = num_worlds;
  mc.seed = seed;
  mc.adaptive.enabled = true;
  mc.adaptive.observed = observed;
  mc.adaptive.alpha = alpha;
  return mc;
}

TEST(AdaptiveMc, PrefixByteIdenticalToFixedWorldsRun) {
  const data::OutcomeDataset city = MakePlantedCity(301, 1500, 0.55);
  const auto family = FamilyFor(city);
  const BernoulliScanStatistic statistic(stats::ScanDirection::kTwoSided,
                                         city.size(), city.PositiveCount());
  AuditScratch scratch;
  const double tau =
      statistic
          .ScanObserved(*family, city.predicted().data(), city.size(), &scratch)
          .max_llr;

  const MonteCarloOptions mc = AdaptiveOptions(tau, 0.05, 499, 17);
  auto adaptive = SimulateNull(statistic, *family, mc);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status();
  ASSERT_TRUE(adaptive->early_stopped());  // a fair city settles fast
  ASSERT_LT(adaptive->num_worlds(), 499u);
  EXPECT_EQ(adaptive->worlds_requested(), 499u);

  // A fixed run of exactly the completed-world count, same seed, adaptive
  // off: identical maxima — the prefix is a pure function of its length.
  MonteCarloOptions fixed;
  fixed.num_worlds = static_cast<uint32_t>(adaptive->num_worlds());
  fixed.seed = 17;
  auto pinned = SimulateNull(statistic, *family, fixed);
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  EXPECT_EQ(adaptive->MaximaVector(), pinned->MaximaVector());
}

TEST(AdaptiveMc, StopPointInvariantAcrossExecutionStrategies) {
  const data::OutcomeDataset city = MakePlantedCity(302, 1200, 0.55);
  const auto family = FamilyFor(city);
  const BernoulliScanStatistic statistic(stats::ScanDirection::kTwoSided,
                                         city.size(), city.PositiveCount());
  AuditScratch scratch;
  const double tau =
      statistic
          .ScanObserved(*family, city.predicted().data(), city.size(), &scratch)
          .max_llr;
  const MonteCarloOptions base = AdaptiveOptions(tau, 0.05, 399, 23);

  auto reference = SimulateNull(statistic, *family, base);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->early_stopped());

  std::vector<MonteCarloOptions> variants;
  {
    MonteCarloOptions v = base;
    v.parallel = false;
    variants.push_back(v);
  }
  {
    MonteCarloOptions v = base;
    v.batch_size = 1;
    variants.push_back(v);
  }
  {
    MonteCarloOptions v = base;
    v.batch_size = 7;  // does not divide check_every
    variants.push_back(v);
  }
  for (size_t i = 0; i < variants.size(); ++i) {
    SCOPED_TRACE("variant " + std::to_string(i));
    auto got = SimulateNull(statistic, *family, variants[i]);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->num_worlds(), reference->num_worlds());
    EXPECT_EQ(got->stop_reason(), reference->stop_reason());
    EXPECT_EQ(got->MaximaVector(), reference->MaximaVector());
  }
}

TEST(AdaptiveMc, ErrorValidationStillApplies) {
  const data::OutcomeDataset city = MakePlantedCity(303, 300, 0.55);
  const auto family = FamilyFor(city);
  const BernoulliScanStatistic statistic(stats::ScanDirection::kTwoSided,
                                         city.size(), city.PositiveCount());
  MonteCarloOptions mc = AdaptiveOptions(1.0, 0.05, 99, 5);
  mc.adaptive.alpha = 1.5;
  EXPECT_FALSE(SimulateNull(statistic, *family, mc).ok());
  mc.adaptive.alpha = 0.05;
  mc.adaptive.observed = std::nan("");
  EXPECT_FALSE(SimulateNull(statistic, *family, mc).ok());
  mc.adaptive.z = -1.0;
  mc.adaptive.observed = 1.0;
  EXPECT_FALSE(SimulateNull(statistic, *family, mc).ok());
  mc = AdaptiveOptions(1.0, 0.05, 99, 5);
  mc.adaptive.check_every = 0;
  EXPECT_FALSE(SimulateNull(statistic, *family, mc).ok());
  mc = AdaptiveOptions(1.0, 0.05, 99, 5);
  mc.adaptive.min_worlds = 0;
  EXPECT_FALSE(SimulateNull(statistic, *family, mc).ok());
}

// The property test (satellite): early-stopped decisions match full-run
// decisions at equal alpha — across seeds, BOTH scan directions, and BOTH
// statistics. Everything is seeded, so this pins deterministic agreement,
// and it also asserts the early stop actually engages on most cases (the
// worlds saved are the point of the feature).
TEST(AdaptiveMc, DecisionAgreementAcrossSeedsDirectionsAndStatistics) {
  constexpr double kAlpha = 0.05;
  // W must leave room for the significant side to stop: with zero
  // exceedances the Wilson upper bound first drops below α = 0.05 around
  // world 206, so W = 399 lets clear rejections stop near 256 while clear
  // fair cases stop at min_worlds.
  constexpr uint32_t kWorlds = 399;
  size_t cases = 0, early = 0;
  uint64_t requested = 0, completed = 0;

  const auto check = [&](const ScanStatistic& statistic,
                         const RegionFamily& family, const uint8_t* outcomes,
                         size_t n, uint64_t mc_seed) {
    AuditScratch scratch;
    const double tau =
        statistic.ScanObserved(family, outcomes, n, &scratch).max_llr;
    MonteCarloOptions full;
    full.num_worlds = kWorlds;
    full.seed = mc_seed;
    auto exact = SimulateNull(statistic, family, full);
    ASSERT_TRUE(exact.ok()) << exact.status();
    auto adaptive = SimulateNull(statistic, family,
                                 AdaptiveOptions(tau, kAlpha, kWorlds, mc_seed));
    ASSERT_TRUE(adaptive.ok()) << adaptive.status();

    const bool exact_sig = exact->PValue(tau) <= kAlpha;
    const bool adaptive_sig = adaptive->PValue(tau) <= kAlpha;
    EXPECT_EQ(exact_sig, adaptive_sig)
        << "exact p=" << exact->PValue(tau)
        << " adaptive p=" << adaptive->PValue(tau) << " at "
        << adaptive->num_worlds() << "/" << kWorlds << " worlds";
    ++cases;
    if (adaptive->early_stopped()) ++early;
    requested += kWorlds;
    completed += adaptive->num_worlds();
  };

  for (uint64_t seed = 401; seed <= 406; ++seed) {
    for (const bool planted : {false, true}) {
      const data::OutcomeDataset city =
          MakePlantedCity(seed, 1200, planted ? 0.85 : 0.55);
      const auto family = FamilyFor(city);
      for (const auto direction :
           {stats::ScanDirection::kTwoSided, stats::ScanDirection::kHigh}) {
        SCOPED_TRACE("bernoulli seed=" + std::to_string(seed) +
                     " planted=" + std::to_string(planted) + " dir=" +
                     stats::ScanDirectionToString(direction));
        const BernoulliScanStatistic statistic(direction, city.size(),
                                               city.PositiveCount());
        check(statistic, *family, city.predicted().data(), city.size(),
              seed * 7 + 1);
      }
    }
  }
  for (uint64_t seed = 421; seed <= 424; ++seed) {
    for (const bool planted : {false, true}) {
      const data::OutcomeDataset city = MakeClassCity(seed, 1200, planted);
      const auto family = FamilyFor(city);
      SCOPED_TRACE("multinomial seed=" + std::to_string(seed) +
                   " planted=" + std::to_string(planted));
      auto statistic = MultinomialScanStatistic::FromOutcomes(
          city.predicted().data(), city.size(), 3);
      ASSERT_TRUE(statistic.ok()) << statistic.status();
      check(**statistic, *family, city.predicted().data(), city.size(),
            seed * 7 + 1);
    }
  }

  // The rule must actually engage: clear-cut cases (most of the suite by
  // construction) stop early, and the aggregate world count shrinks.
  EXPECT_GE(early, cases / 2);
  EXPECT_LT(completed, requested / 2)
      << "adaptive MC saved too few worlds: " << completed << "/" << requested;
}

TEST(AdaptiveMc, KeysNeverAliasFullPrecisionCalibrations) {
  const data::OutcomeDataset city = MakePlantedCity(305, 800, 0.55);
  const auto family = FamilyFor(city);
  const BernoulliScanStatistic statistic(stats::ScanDirection::kTwoSided,
                                         city.size(), city.PositiveCount());
  MonteCarloOptions full;
  full.num_worlds = 199;
  full.seed = 3;
  const CalibrationKey full_key = MakeCalibrationKey(*family, statistic, full);

  MonteCarloOptions adaptive = AdaptiveOptions(8.5, 0.05, 199, 3);
  const CalibrationKey adaptive_key =
      MakeCalibrationKey(*family, statistic, adaptive);
  EXPECT_NE(full_key.hash, adaptive_key.hash);
  EXPECT_NE(full_key.debug, adaptive_key.debug);
  EXPECT_NE(adaptive_key.debug.find("adaptive"), std::string::npos);

  // The stop point depends on (observed, alpha): different rules, different
  // calibrations — they must not share entries either.
  MonteCarloOptions other = adaptive;
  other.adaptive.observed = 9.5;
  EXPECT_NE(MakeCalibrationKey(*family, statistic, other).hash,
            adaptive_key.hash);
  other = adaptive;
  other.adaptive.alpha = 0.01;
  EXPECT_NE(MakeCalibrationKey(*family, statistic, other).hash,
            adaptive_key.hash);
}

TEST(AdaptiveMc, AuditViewResolvesRuleAndSurfacesMetadata) {
  // A saturated plant (every zone prediction positive) at n = 4000: the zone
  // cells alone push τ far beyond any null maximum — null maxima don't grow
  // with n, so this is the regime where the empirical p-value floors at
  // 1/(W+1) and kAuto must reach for the Gumbel tail.
  const data::OutcomeDataset city = MakePlantedCity(306, 4000, 1.0);
  const auto family = FamilyFor(city);
  AuditOptions options;
  options.alpha = 0.05;
  options.measure = FairnessMeasure::kStatisticalParity;
  options.significance = SignificanceMethod::kAuto;
  options.monte_carlo.num_worlds = 399;
  options.monte_carlo.seed = 41;
  options.monte_carlo.adaptive.enabled = true;

  auto result = Auditor(options).AuditView(city, *family);
  ASSERT_TRUE(result.ok()) << result.status();
  // A hard plant: unfair verdict, early CI stop on the significant side.
  EXPECT_FALSE(result->spatially_fair);
  ASSERT_TRUE(result->null_distribution.early_stopped());
  EXPECT_EQ(result->null_distribution.stop_reason(),
            McStopReason::kCiBelowAlpha);
  EXPECT_EQ(result->null_distribution.worlds_requested(), 399u);
  // τ dwarfs every null maximum, so kAuto reaches for the tail fit; either
  // gate outcome is legal, but the attempt must be recorded.
  EXPECT_LT(result->tail_ks, 1.0);
  if (result->tail_fit_ok) {
    EXPECT_EQ(result->p_value_method, SignificanceMethod::kGumbelTail);
    EXPECT_LT(result->p_value,
              1.0 / (static_cast<double>(result->null_distribution.num_worlds()) + 1.0));
  } else {
    EXPECT_EQ(result->p_value_method, SignificanceMethod::kEmpirical);
  }
}

TEST(AdaptiveMc, BatchPipelineCountsEarlyStopsAndWorldsSaved) {
  const data::OutcomeDataset fair = MakePlantedCity(307, 1200, 0.55);
  const data::OutcomeDataset unfair = MakePlantedCity(308, 1200, 0.9);
  const auto fair_family = FamilyFor(fair);
  const auto unfair_family = FamilyFor(unfair);

  std::vector<AuditRequest> batch;
  for (const auto* pair :
       {&fair, &unfair}) {
    AuditRequest r;
    r.id = pair == &fair ? "fair" : "unfair";
    r.dataset = pair;
    r.family = pair == &fair ? fair_family.get() : unfair_family.get();
    r.options.alpha = 0.05;
    r.options.significance = SignificanceMethod::kAuto;
    r.options.monte_carlo.num_worlds = 399;
    r.options.monte_carlo.seed = 51;
    r.options.monte_carlo.adaptive.enabled = true;
    batch.push_back(r);
  }

  AuditPipeline pipeline;
  PipelineManifest manifest;
  auto responses = pipeline.Run(batch, &manifest);
  ASSERT_TRUE(responses.ok()) << responses.status();
  for (const AuditResponse& r : *responses) ASSERT_TRUE(r.status.ok()) << r.status;

  EXPECT_GE(manifest.early_stops, 1u);
  EXPECT_GT(manifest.worlds_saved, 0u);
  EXPECT_NE(manifest.ToJson().find("\"worlds_saved\""), std::string::npos);
  EXPECT_NE(manifest.ToJson().find("\"p_value_method\""), std::string::npos);

  // Decisions match a full-precision (non-adaptive) pipeline run.
  std::vector<AuditRequest> full = batch;
  for (AuditRequest& r : full) r.options.monte_carlo.adaptive.enabled = false;
  AuditPipeline exact_pipeline;
  auto exact = exact_pipeline.Run(full);
  ASSERT_TRUE(exact.ok());
  for (size_t i = 0; i < exact->size(); ++i) {
    ASSERT_TRUE((*exact)[i].status.ok());
    EXPECT_EQ((*responses)[i].result.spatially_fair,
              (*exact)[i].result.spatially_fair)
        << batch[i].id;
  }
}

TEST(AdaptiveMc, StreamingStatsCountEarlyStopsAndTailFits) {
  const data::OutcomeDataset unfair = MakePlantedCity(309, 1500, 0.9);
  const auto family = FamilyFor(unfair);

  AuditRequest r;
  r.id = "stream-adaptive";
  r.dataset = &unfair;
  r.family = family.get();
  r.options.alpha = 0.05;
  r.options.significance = SignificanceMethod::kAuto;
  r.options.monte_carlo.num_worlds = 399;
  r.options.monte_carlo.seed = 61;
  r.options.monte_carlo.adaptive.enabled = true;

  AuditPipeline pipeline;
  ASSERT_TRUE(pipeline.StartStream({.num_workers = 1}).ok());
  auto ticket = pipeline.Submit(r);
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  const AuditResponse& response = (*ticket)->Get();
  ASSERT_TRUE(response.status.ok()) << response.status;
  ASSERT_TRUE(pipeline.FinishStream().ok());

  const StreamStats stats = pipeline.stream_stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.early_stops, 1u);
  EXPECT_GT(stats.worlds_saved, 0u);
  EXPECT_EQ(stats.worlds_saved,
            399u - response.result.null_distribution.num_worlds());
  if (response.result.p_value_method == SignificanceMethod::kGumbelTail) {
    EXPECT_EQ(stats.tail_fits, 1u);
  }
  EXPECT_NE(stats.ToJson().find("\"early_stops\":1"), std::string::npos);
  EXPECT_NE(stats.ToJson().find("\"worlds_saved\""), std::string::npos);
}

}  // namespace
}  // namespace sfa::core
