// Multiclass audits (StatisticKind::kMultinomial) through the unified
// serving stack: calibration cache sharing with Bernoulli requests in the
// same batch, persistent-store round-trips, and streaming Submit() — all
// byte-identical per the pipeline determinism contract.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "core/audit_pipeline.h"
#include "core/calibration_store.h"
#include "core/grid_family.h"
#include "testing_util.h"

namespace sfa::core {
namespace {

using core::testing::ExpectIdenticalResult;

struct MulticlassCity {
  std::vector<geo::Point> locations;
  std::vector<uint8_t> classes;
  data::OutcomeDataset view{"multiclass-city"};
};

MulticlassCity MakeCity(uint64_t seed, size_t n, bool planted) {
  Rng rng(seed);
  MulticlassCity city;
  const geo::Rect zone(6.0, 6.0, 9.0, 9.0);
  const std::vector<double> base = {0.5, 0.3, 0.2};
  const std::vector<double> shifted = {0.15, 0.25, 0.6};
  for (size_t i = 0; i < n; ++i) {
    const geo::Point loc(rng.Uniform(0, 10), rng.Uniform(0, 10));
    const auto& mix = planted && zone.Contains(loc) ? shifted : base;
    const auto c = static_cast<uint8_t>(rng.Categorical(mix));
    city.locations.push_back(loc);
    city.classes.push_back(c);
    city.view.Add(loc, c);
  }
  return city;
}

AuditOptions MultinomialOptions(uint32_t num_classes, double alpha = 0.01,
                                uint32_t worlds = 99) {
  AuditOptions options;
  options.alpha = alpha;
  options.statistic = StatisticKind::kMultinomial;
  options.num_classes = num_classes;
  options.monte_carlo.num_worlds = worlds;
  return options;
}

TEST(MulticlassPipeline, MixedStatisticBatchSharesNothingAcrossStatistics) {
  // One batch holding a Bernoulli and a multinomial audit of the SAME
  // points/family/Monte Carlo options: two distinct calibrations must be
  // simulated (fingerprinted keys keep them apart — the satellite contract).
  const MulticlassCity city = MakeCity(42, 1500, /*planted=*/false);
  data::OutcomeDataset binary_view("binary-projection");
  for (size_t i = 0; i < city.locations.size(); ++i) {
    binary_view.Add(city.locations[i], city.classes[i] == 2 ? 1 : 0);
  }
  auto family = GridPartitionFamily::Create(city.locations, 6, 6);
  ASSERT_TRUE(family.ok());

  AuditRequest multinomial;
  multinomial.id = "multinomial";
  multinomial.dataset = &city.view;
  multinomial.family = family->get();
  multinomial.options = MultinomialOptions(3);

  AuditRequest bernoulli;
  bernoulli.id = "bernoulli";
  bernoulli.dataset = &binary_view;
  bernoulli.family = family->get();
  bernoulli.options.alpha = 0.01;
  bernoulli.options.monte_carlo.num_worlds = 99;

  AuditPipeline pipeline;
  PipelineManifest manifest;
  auto responses = pipeline.Run({multinomial, bernoulli}, &manifest);
  ASSERT_TRUE(responses.ok());
  for (const AuditResponse& response : *responses) {
    ASSERT_TRUE(response.status.ok()) << response.id;
  }
  EXPECT_EQ(manifest.calibrations_computed, 2u);
  EXPECT_EQ(pipeline.cache().stats().entries, 2u);
  EXPECT_NE((*responses)[0].calibration_key, (*responses)[1].calibration_key);
  EXPECT_EQ((*responses)[0].result.statistic, StatisticKind::kMultinomial);
  EXPECT_EQ((*responses)[1].result.statistic, StatisticKind::kBernoulli);
}

TEST(MulticlassPipeline, StreamedEqualsBatchAndSurvivesStoreRestart) {
  const MulticlassCity city = MakeCity(43, 2000, /*planted=*/true);
  auto family = GridPartitionFamily::Create(city.locations, 7, 7);
  ASSERT_TRUE(family.ok());

  AuditRequest request;
  request.id = "mc";
  request.dataset = &city.view;
  request.family = family->get();
  request.options = MultinomialOptions(3);

  // Batch reference result.
  AuditPipeline batch_pipeline;
  auto batch = batch_pipeline.Run({request});
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE((*batch)[0].status.ok());

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("sfa_multiclass_store_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  {
    // Streamed, persisting to a fresh store.
    CalibrationStore::Options store_options;
    store_options.directory = dir;
    auto store = CalibrationStore::Open(store_options);
    ASSERT_TRUE(store.ok());
    AuditPipeline pipeline;
    pipeline.cache().AttachStore(std::move(*store));
    ASSERT_TRUE(pipeline.StartStream({}).ok());
    auto ticket = pipeline.Submit(request);
    ASSERT_TRUE(ticket.ok());
    const AuditResponse& response = (*ticket)->Get();
    ASSERT_TRUE(response.status.ok());
    ExpectIdenticalResult(response.result, (*batch)[0].result,
                          "streamed == batch");
    ASSERT_TRUE(pipeline.FinishStream().ok());
  }
  {
    // "Restart": a fresh pipeline over the same store directory serves the
    // multinomial calibration persisted-warm, byte-identically.
    CalibrationStore::Options store_options;
    store_options.directory = dir;
    auto store = CalibrationStore::Open(store_options);
    ASSERT_TRUE(store.ok());
    AuditPipeline pipeline;
    pipeline.cache().AttachStore(std::move(*store));
    PipelineManifest manifest;
    auto warm = pipeline.Run({request}, &manifest);
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE((*warm)[0].status.ok());
    ExpectIdenticalResult((*warm)[0].result, (*batch)[0].result,
                          "persisted-warm == batch");
    EXPECT_EQ(manifest.calibrations_loaded, 1u);
    EXPECT_EQ(manifest.calibrations_computed, 0u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sfa::core
