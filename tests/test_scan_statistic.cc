// Tests of the pluggable ScanStatistic layer (core/scan_statistic.h):
//
//   * the Bernoulli statistic's observed scan is byte-identical to
//     ScanAllRegions, the scan the Monte Carlo engine's arithmetic matches;
//   * statistic-fingerprint keying: calibrations of different statistics
//     (or differently-configured instances of one statistic) over the SAME
//     family, N, and Monte Carlo options never collide;
//   * the multinomial statistic: observed Λ matches the brute-force
//     std::log evaluation, class counts are consistent, the engine
//     strategies are bit-identical across batch size and parallelism for
//     both null models, and it runs over non-grid families.
#include "core/scan_statistic.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "core/audit.h"
#include "core/bernoulli_statistic.h"
#include "core/calibration_cache.h"
#include "core/grid_family.h"
#include "core/knn_circle_family.h"
#include "core/multinomial_statistic.h"
#include "core/scan.h"
#include "core/significance.h"
#include "testing_util.h"

namespace sfa::core {
namespace {

using core::testing::MakeFairDataset;

/// A multiclass "city": uniform locations on [0,10)², classes drawn from a
/// fixed mix (optionally shifted inside one zone to plant unfairness).
struct MulticlassCity {
  std::vector<geo::Point> locations;
  std::vector<uint8_t> classes;
  data::OutcomeDataset view{"multiclass-city"};
};

MulticlassCity MakeMulticlassCity(uint64_t seed, size_t n,
                                  const std::vector<double>& mix,
                                  bool planted = false) {
  Rng rng(seed);
  MulticlassCity city;
  const geo::Rect zone(6.0, 6.0, 9.0, 9.0);
  const std::vector<double> shifted = {0.1, 0.2, 0.7};
  for (size_t i = 0; i < n; ++i) {
    const geo::Point loc(rng.Uniform(0, 10), rng.Uniform(0, 10));
    const auto& m = planted && zone.Contains(loc) ? shifted : mix;
    const auto c = static_cast<uint8_t>(rng.Categorical(m));
    city.locations.push_back(loc);
    city.classes.push_back(c);
    city.view.Add(loc, c);
  }
  return city;
}

// ------------------------------------------------------- Bernoulli re-seat --

TEST(BernoulliStatistic, ObservedScanMatchesLegacyScanBitForBit) {
  const auto ds = MakeFairDataset(11, 600, 0.4);
  auto family = GridPartitionFamily::Create(ds.locations(), 5, 4);
  ASSERT_TRUE(family.ok());

  const BernoulliScanStatistic statistic(stats::ScanDirection::kTwoSided,
                                         ds.size(), ds.PositiveCount());
  AuditScratch scratch;
  const ScanResult via_statistic = statistic.ScanObserved(
      **family, ds.predicted().data(), ds.size(), &scratch);

  const Labels labels = Labels::FromBytes(ds.predicted());
  const ScanResult legacy =
      ScanAllRegions(**family, labels, stats::ScanDirection::kTwoSided);

  EXPECT_EQ(via_statistic.llr, legacy.llr);
  EXPECT_EQ(via_statistic.positives, legacy.positives);
  EXPECT_EQ(via_statistic.max_llr, legacy.max_llr);
  EXPECT_EQ(via_statistic.argmax, legacy.argmax);
  EXPECT_EQ(via_statistic.total_p, legacy.total_p);
  EXPECT_TRUE(via_statistic.class_counts.empty());
}

// ------------------------------------------------ statistic-aware keying ---

TEST(ScanStatisticKeying, DifferentStatisticsNeverCollide) {
  // Identical family, N, and Monte Carlo options — only the statistic
  // differs. Keys must differ in hash AND debug rendering (CalibrationKey
  // equality compares both), for every pair.
  auto city = MakeMulticlassCity(21, 800, {0.5, 0.3, 0.2});
  auto family = GridPartitionFamily::Create(city.locations, 5, 5);
  ASSERT_TRUE(family.ok());
  const MonteCarloOptions mc;

  uint64_t positives = 0;  // count of class 1 as a binary projection
  for (uint8_t c : city.classes) positives += c == 1 ? 1 : 0;

  const BernoulliScanStatistic two_sided(stats::ScanDirection::kTwoSided,
                                         city.locations.size(), positives);
  const BernoulliScanStatistic low(stats::ScanDirection::kLow,
                                   city.locations.size(), positives);
  auto multinomial = MultinomialScanStatistic::FromOutcomes(
      city.classes.data(), city.classes.size(), 3);
  ASSERT_TRUE(multinomial.ok());
  // A different class decomposition of the SAME points (coarser relabeling).
  std::vector<uint8_t> binary_classes(city.classes.size());
  for (size_t i = 0; i < city.classes.size(); ++i) {
    binary_classes[i] = city.classes[i] == 1 ? 1 : 0;
  }
  auto multinomial_k2 = MultinomialScanStatistic::FromOutcomes(
      binary_classes.data(), binary_classes.size(), 2);
  ASSERT_TRUE(multinomial_k2.ok());

  const std::vector<const ScanStatistic*> statistics = {
      &two_sided, &low, multinomial->get(), multinomial_k2->get()};
  std::vector<CalibrationKey> keys;
  for (const ScanStatistic* statistic : statistics) {
    keys.push_back(MakeCalibrationKey(**family, *statistic, mc));
    // Every key carries the statistic fingerprint in its debug rendering.
    EXPECT_NE(keys.back().debug.find(statistic->Fingerprint()),
              std::string::npos);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    for (size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i].hash, keys[j].hash) << i << " vs " << j;
      EXPECT_NE(keys[i].debug, keys[j].debug) << i << " vs " << j;
      EXPECT_FALSE(keys[i] == keys[j]);
    }
  }
}

// ------------------------------------------------------------ multinomial --

TEST(MultinomialStatistic, ObservedScanMatchesBruteForce) {
  auto city = MakeMulticlassCity(31, 1200, {0.5, 0.3, 0.2}, /*planted=*/true);
  auto family = GridPartitionFamily::Create(city.locations, 6, 6);
  ASSERT_TRUE(family.ok());
  auto statistic = MultinomialScanStatistic::FromOutcomes(
      city.classes.data(), city.classes.size(), 3);
  ASSERT_TRUE(statistic.ok());

  AuditScratch scratch;
  const ScanResult scan = (*statistic)->ScanObserved(
      **family, city.classes.data(), city.classes.size(), &scratch);
  ASSERT_EQ(scan.llr.size(), (*family)->num_regions());
  ASSERT_EQ(scan.num_classes, 3u);
  ASSERT_EQ(scan.class_counts.size(), (*family)->num_regions() * 3);

  // Brute force per region: count classes point-by-point, evaluate the
  // std::log LLR, compare (table arithmetic agrees to reassociation ulps).
  const std::vector<uint64_t>& totals = (*statistic)->class_totals();
  double max_llr = 0.0;
  for (size_t r = 0; r < (*family)->num_regions(); ++r) {
    const geo::Rect rect = (*family)->Describe(r).rect;
    std::vector<uint64_t> inside(3, 0);
    for (size_t i = 0; i < city.locations.size(); ++i) {
      if (rect.Contains(city.locations[i])) ++inside[city.classes[i]];
    }
    for (uint32_t k = 0; k < 3; ++k) {
      EXPECT_EQ(scan.class_counts[r * 3 + k], inside[k])
          << "region " << r << " class " << k;
    }
    const double expected =
        testing::MultinomialLogLikelihoodRatio(inside, totals);
    EXPECT_NEAR(scan.llr[r], expected, 1e-8) << "region " << r;
    max_llr = std::max(max_llr, scan.llr[r]);
  }
  EXPECT_EQ(scan.max_llr, max_llr);
  EXPECT_GT(scan.max_llr, 0.0) << "planted shift should light up";
}

TEST(MultinomialStatistic, TwoClassCaseTracksBernoulliTau) {
  // K=2 multinomial Λ reduces to the two-sided Bernoulli Λ (class 1 as
  // "positive"), so the observed max statistics must agree numerically.
  const auto ds = MakeFairDataset(32, 700, 0.45);
  auto family = GridPartitionFamily::Create(ds.locations(), 5, 5);
  ASSERT_TRUE(family.ok());

  AuditScratch scratch;
  // The multinomial LLR is symmetric in its classes, so {0,1} outcomes need
  // no relabeling to match the Bernoulli "class 1 = positive" convention.
  auto statistic = MultinomialScanStatistic::FromOutcomes(
      ds.predicted().data(), ds.size(), 2);
  ASSERT_TRUE(statistic.ok());
  const ScanResult multinomial = (*statistic)->ScanObserved(
      **family, ds.predicted().data(), ds.size(), &scratch);

  const BernoulliScanStatistic bernoulli(stats::ScanDirection::kTwoSided,
                                         ds.size(), ds.PositiveCount());
  AuditScratch bernoulli_scratch;
  const ScanResult binary = bernoulli.ScanObserved(
      **family, ds.predicted().data(), ds.size(), &bernoulli_scratch);

  EXPECT_NEAR(multinomial.max_llr, binary.max_llr, 1e-8);
  for (size_t r = 0; r < multinomial.llr.size(); ++r) {
    EXPECT_NEAR(multinomial.llr[r], binary.llr[r], 1e-8) << "region " << r;
  }
}

TEST(MultinomialStatistic, EngineStrategiesBitIdentical) {
  auto city = MakeMulticlassCity(33, 900, {0.4, 0.35, 0.25});
  auto family = GridPartitionFamily::Create(city.locations, 5, 4);
  ASSERT_TRUE(family.ok());
  auto statistic = MultinomialScanStatistic::FromOutcomes(
      city.classes.data(), city.classes.size(), 3);
  ASSERT_TRUE(statistic.ok());

  for (const NullModel null_model :
       {NullModel::kBernoulli, NullModel::kPermutation}) {
    for (const bool closed_form : {true, false}) {
      MonteCarloOptions reference;
      reference.num_worlds = 80;
      reference.seed = 404;
      reference.null_model = null_model;
      reference.closed_form_cells = closed_form;
      reference.engine = McEngine::kReference;
      reference.parallel = false;
      auto baseline = SimulateNull(**statistic, **family, reference);
      ASSERT_TRUE(baseline.ok());
      EXPECT_GT(baseline->sorted_max().front(), 0.0);

      for (const uint32_t batch_size : {1u, 3u, 16u}) {
        for (const bool parallel : {false, true}) {
          MonteCarloOptions batched = reference;
          batched.engine = McEngine::kBatched;
          batched.batch_size = batch_size;
          batched.parallel = parallel;
          auto got = SimulateNull(**statistic, **family, batched);
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(got->MaximaVector(), baseline->MaximaVector())
              << NullModelToString(null_model) << " cf=" << closed_form
              << " batch=" << batch_size << " parallel=" << parallel;
        }
      }
    }
  }
}

TEST(MultinomialStatistic, RunsOverNonGridFamilies) {
  // The whole point of the refactor: multiclass audits are no longer
  // grid-only. A kNN circle family (overlapping regions, sparse-annulus
  // counting, no cell decomposition) calibrates and scans fine.
  auto city = MakeMulticlassCity(34, 600, {0.5, 0.3, 0.2}, /*planted=*/true);
  KnnCircleOptions options;
  options.centers = {{2.0, 2.0}, {5.0, 5.0}, {7.5, 7.5}, {8.0, 2.0}};
  auto family = KnnCircleFamily::Create(city.locations, options);
  ASSERT_TRUE(family.ok());

  AuditOptions audit_options;
  audit_options.statistic = StatisticKind::kMultinomial;
  audit_options.num_classes = 3;
  audit_options.alpha = 0.05;
  audit_options.monte_carlo.num_worlds = 99;
  auto result = Auditor(audit_options).AuditView(city.view, **family);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->statistic, StatisticKind::kMultinomial);
  EXPECT_EQ(result->total_n, city.locations.size());
  ASSERT_EQ(result->class_distribution.size(), 3u);
  // The planted corner around (7.5, 7.5) should reject fairness.
  EXPECT_FALSE(result->spatially_fair) << "p=" << result->p_value;

  auto again = Auditor(audit_options).AuditView(city.view, **family);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(ResultsBitIdentical(*result, *again));
}

TEST(MakeScanStatistic, ValidatesOutcomeModel) {
  auto city = MakeMulticlassCity(35, 50, {0.5, 0.3, 0.2});

  // Bernoulli over class ids > 1 must fail loudly, not miscount.
  AuditOptions bernoulli;
  auto statistic = MakeScanStatistic(bernoulli, city.view);
  ASSERT_TRUE(statistic.ok());  // construction only counts positives...
  EXPECT_FALSE(
      (*statistic)
          ->ValidateOutcomes(city.view.predicted().data(), city.view.size())
          .ok());

  AuditOptions multinomial;
  multinomial.statistic = StatisticKind::kMultinomial;
  multinomial.num_classes = 1;
  EXPECT_FALSE(MakeScanStatistic(multinomial, city.view).ok());
  multinomial.num_classes = 2;  // data holds class 2 -> out of range
  EXPECT_FALSE(MakeScanStatistic(multinomial, city.view).ok());
  multinomial.num_classes = 3;
  EXPECT_TRUE(MakeScanStatistic(multinomial, city.view).ok());

  // The audit itself rejects an empty view, an alpha outside (0, 1) and a
  // zero world budget before any scan.
  auto family = GridPartitionFamily::Create(city.locations, 6, 6);
  ASSERT_TRUE(family.ok());
  multinomial.monte_carlo.num_worlds = 9;
  EXPECT_TRUE(Auditor(multinomial).AuditView(city.view, **family).ok());
  const data::OutcomeDataset empty("empty");
  EXPECT_FALSE(Auditor(multinomial).AuditView(empty, **family).ok());
  AuditOptions bad_alpha = multinomial;
  bad_alpha.alpha = 1.5;
  EXPECT_FALSE(Auditor(bad_alpha).AuditView(city.view, **family).ok());
  AuditOptions no_worlds = multinomial;
  no_worlds.monte_carlo.num_worlds = 0;
  EXPECT_FALSE(Auditor(no_worlds).AuditView(city.view, **family).ok());
}

}  // namespace
}  // namespace sfa::core
