// The pipeline's headline guarantee: for a fixed request batch (seeds
// included), the statistical payload of every AuditResponse is byte-identical
// regardless of scheduling order, parallel on/off, request order within the
// batch, and calibration cache state (cold, warm, or shared intra-batch) —
// and equals what a standalone Auditor::Audit of the same request produces.
#include "core/audit_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "core/bernoulli_statistic.h"
#include "core/grid_family.h"
#include "core/knn_circle_family.h"
#include "core/measure.h"
#include "core/square_family.h"
#include "data/dataset.h"
#include "spatial/simd_popcount.h"
#include "testing_util.h"

namespace sfa::core {
namespace {

using core::testing::ExpectIdenticalResult;
using core::testing::MakePlantedCity;

data::OutcomeDataset MakeCity(uint64_t seed, size_t n, bool planted_bias) {
  return MakePlantedCity(seed, n, planted_bias ? 0.35 : 0.55, 0.55,
                         planted_bias ? "biased-city" : "fair-city");
}

/// A reusable batch fixture: two cities, several families (incl. one bound
/// to the equal-opportunity view), mixed α / null models / engines.
struct Batch {
  data::OutcomeDataset city_a = MakeCity(101, 6000, /*planted_bias=*/true);
  data::OutcomeDataset city_b = MakeCity(202, 4000, /*planted_bias=*/false);
  data::OutcomeDataset city_a_eo_view;
  std::unique_ptr<GridPartitionFamily> family_a;
  std::unique_ptr<GridPartitionFamily> family_a_eo;
  std::unique_ptr<GridPartitionFamily> family_b;
  std::vector<AuditRequest> requests;

  Batch() {
    auto view = BuildMeasureView(city_a, FairnessMeasure::kEqualOpportunity);
    SFA_CHECK_OK(view.status());
    city_a_eo_view = std::move(view).value();

    auto fa = GridPartitionFamily::Create(city_a.locations(), 8, 8);
    auto fae = GridPartitionFamily::Create(city_a_eo_view.locations(), 6, 6);
    auto fb = GridPartitionFamily::Create(city_b.locations(), 10, 5);
    SFA_CHECK_OK(fa.status());
    SFA_CHECK_OK(fae.status());
    SFA_CHECK_OK(fb.status());
    family_a = std::move(fa).value();
    family_a_eo = std::move(fae).value();
    family_b = std::move(fb).value();

    auto base = [](double alpha) {
      AuditOptions o;
      o.alpha = alpha;
      o.monte_carlo.num_worlds = 99;
      o.monte_carlo.seed = 7;
      return o;
    };
    // City A, statistical parity, three α levels → one shared calibration.
    for (double alpha : {0.05, 0.01, 0.005}) {
      AuditRequest r;
      r.id = "a-sp-" + std::to_string(alpha);
      r.dataset = &city_a;
      r.family = family_a.get();
      r.options = base(alpha);
      requests.push_back(r);
    }
    // Same audit through the reference engine: excluded from the key, so it
    // must share the calibration AND produce identical results.
    {
      AuditRequest r;
      r.id = "a-sp-reference-engine";
      r.dataset = &city_a;
      r.family = family_a.get();
      r.options = base(0.01);
      r.options.monte_carlo.engine = McEngine::kReference;
      requests.push_back(r);
    }
    // City A, equal opportunity (view rebuilt by the pipeline) — distinct
    // totals, distinct calibration.
    {
      AuditRequest r;
      r.id = "a-eo";
      r.dataset = &city_a;
      r.family = family_a_eo.get();
      r.options = base(0.01);
      r.options.measure = FairnessMeasure::kEqualOpportunity;
      requests.push_back(r);
    }
    // City A under the permutation null — distinct calibration.
    {
      AuditRequest r;
      r.id = "a-sp-permutation";
      r.dataset = &city_a;
      r.family = family_a.get();
      r.options = base(0.01);
      r.options.monte_carlo.null_model = NullModel::kPermutation;
      requests.push_back(r);
    }
    // City B at two α levels and one low-direction variant.
    for (double alpha : {0.05, 0.005}) {
      AuditRequest r;
      r.id = "b-sp-" + std::to_string(alpha);
      r.dataset = &city_b;
      r.family = family_b.get();
      r.options = base(alpha);
      requests.push_back(r);
    }
    {
      AuditRequest r;
      r.id = "b-sp-low";
      r.dataset = &city_b;
      r.family = family_b.get();
      r.options = base(0.01);
      r.options.direction = stats::ScanDirection::kLow;
      requests.push_back(r);
    }
  }
};

std::vector<AuditResponse> RunOrDie(AuditPipeline& pipeline,
                                    const std::vector<AuditRequest>& batch,
                                    PipelineManifest* manifest = nullptr) {
  auto responses = pipeline.Run(batch, manifest);
  SFA_CHECK_OK(responses.status());
  for (const AuditResponse& r : *responses) SFA_CHECK_OK(r.status);
  return std::move(responses).value();
}

TEST(AuditPipeline, MatchesStandaloneAuditor) {
  Batch b;
  AuditPipeline pipeline(PipelineOptions{.parallel = true});
  const auto responses = RunOrDie(pipeline, b.requests);
  ASSERT_EQ(responses.size(), b.requests.size());
  for (size_t i = 0; i < b.requests.size(); ++i) {
    auto direct = Auditor(b.requests[i].options)
                      .Audit(*b.requests[i].dataset, *b.requests[i].family);
    ASSERT_TRUE(direct.ok()) << direct.status();
    ExpectIdenticalResult(responses[i].result, *direct,
                          "request " + b.requests[i].id);
  }
}

TEST(AuditPipeline, DeterministicAcrossParallelismAndCacheState) {
  Batch b;
  // Baseline: serial, cold cache.
  AuditPipeline serial(PipelineOptions{.parallel = false});
  const auto baseline = RunOrDie(serial, b.requests);

  // Parallel, cold cache.
  AuditPipeline parallel_cold(PipelineOptions{.parallel = true});
  const auto cold = RunOrDie(parallel_cold, b.requests);
  // Parallel, fully warm cache (same pipeline, second run).
  const auto warm = RunOrDie(parallel_cold, b.requests);

  for (size_t i = 0; i < b.requests.size(); ++i) {
    ExpectIdenticalResult(baseline[i].result, cold[i].result,
                          "serial-vs-parallel " + b.requests[i].id);
    ExpectIdenticalResult(baseline[i].result, warm[i].result,
                          "cold-vs-warm " + b.requests[i].id);
    EXPECT_TRUE(warm[i].cache_hit);
  }
}

TEST(AuditPipeline, DeterministicUnderRequestShuffle) {
  Batch b;
  AuditPipeline pipeline(PipelineOptions{.parallel = true});
  const auto in_order = RunOrDie(pipeline, b.requests);

  std::vector<size_t> perm(b.requests.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  Rng rng(5);
  rng.Shuffle(perm.begin(), perm.end());
  std::vector<AuditRequest> shuffled;
  for (size_t i : perm) shuffled.push_back(b.requests[i]);

  AuditPipeline pipeline2(PipelineOptions{.parallel = true});
  const auto out_of_order = RunOrDie(pipeline2, shuffled);
  for (size_t j = 0; j < perm.size(); ++j) {
    ASSERT_EQ(out_of_order[j].id, b.requests[perm[j]].id);
    ExpectIdenticalResult(in_order[perm[j]].result, out_of_order[j].result,
                          "shuffled " + out_of_order[j].id);
  }
}

TEST(AuditPipeline, SharesCalibrationsAndReportsThem) {
  Batch b;
  AuditPipeline pipeline(PipelineOptions{.parallel = true});
  PipelineManifest manifest;
  RunOrDie(pipeline, b.requests, &manifest);

  // 9 requests, 5 unique calibrations: a-sp (3 α's + reference engine share
  // one), a-eo, a-sp-permutation, b-sp (2 α's share one), b-sp-low.
  EXPECT_EQ(manifest.num_requests, 9u);
  EXPECT_EQ(manifest.num_failed, 0u);
  EXPECT_EQ(manifest.calibrations_computed, 5u);
  EXPECT_EQ(manifest.calibrations_reused, 4u);
  EXPECT_NEAR(manifest.HitRate(), 4.0 / 9.0, 1e-12);

  // Warm rerun: everything is reused.
  PipelineManifest warm;
  RunOrDie(pipeline, b.requests, &warm);
  EXPECT_EQ(warm.calibrations_computed, 0u);
  EXPECT_EQ(warm.calibrations_reused, 9u);
  EXPECT_EQ(pipeline.cache().stats().entries, 5u);

  // Requests sharing a key report the same calibration identity.
  auto key_of = [&](const std::string& id) {
    for (const auto& row : warm.rows) {
      if (row.id == id) return row.calibration_key;
    }
    ADD_FAILURE() << "row not found: " << id;
    return std::string();
  };
  EXPECT_EQ(key_of("a-sp-0.050000"), key_of("a-sp-0.010000"));
  EXPECT_EQ(key_of("a-sp-0.010000"), key_of("a-sp-reference-engine"));
  EXPECT_NE(key_of("a-sp-0.010000"), key_of("a-sp-permutation"));
  EXPECT_NE(key_of("a-sp-0.010000"), key_of("a-eo"));
  EXPECT_NE(key_of("b-sp-0.050000"), key_of("b-sp-low"));
}

TEST(AuditPipeline, ManifestSerializesToJson) {
  Batch b;
  AuditPipeline pipeline;
  PipelineManifest manifest;
  RunOrDie(pipeline, b.requests, &manifest);
  const std::string json = manifest.ToJson();
  EXPECT_NE(json.find("\"num_requests\":9"), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"a-eo\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit\":"), std::string::npos);
  EXPECT_NE(json.find("\"hit_rate\":"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(AuditPipeline, IsolatesPerRequestFailures) {
  Batch b;
  // A family bound to the wrong point set: per-request error, not batch.
  AuditRequest bad;
  bad.id = "bad-binding";
  bad.dataset = &b.city_b;
  bad.family = b.family_a.get();
  bad.options.monte_carlo.num_worlds = 99;
  std::vector<AuditRequest> batch = {b.requests[0], bad, b.requests[4]};

  AuditPipeline pipeline;
  PipelineManifest manifest;
  auto responses = pipeline.Run(batch, &manifest);
  ASSERT_TRUE(responses.ok());
  EXPECT_TRUE((*responses)[0].status.ok());
  EXPECT_FALSE((*responses)[1].status.ok());
  EXPECT_TRUE((*responses)[2].status.ok());
  EXPECT_EQ(manifest.num_failed, 1u);
  EXPECT_FALSE(manifest.rows[1].ok);
  EXPECT_NE(manifest.rows[1].error.find("bad-binding"), std::string::npos);
}

TEST(AuditPipeline, RejectsNullPointersAtBatchLevel) {
  AuditPipeline pipeline;
  AuditRequest r;
  r.id = "null";
  auto responses = pipeline.Run({r});
  EXPECT_FALSE(responses.ok());
}

TEST(AuditPipeline, EmptyBatchYieldsEmptyResponses) {
  AuditPipeline pipeline;
  PipelineManifest manifest;
  auto responses = pipeline.Run({}, &manifest);
  ASSERT_TRUE(responses.ok());
  EXPECT_TRUE(responses->empty());
  EXPECT_EQ(manifest.num_requests, 0u);
  EXPECT_EQ(manifest.HitRate(), 0.0);
}

TEST(CalibrationKey, DistinguishesDrawRelevantInputsOnly) {
  Batch b;
  MonteCarloOptions mc;
  mc.num_worlds = 99;
  mc.seed = 7;
  const BernoulliScanStatistic statistic(stats::ScanDirection::kTwoSided,
                                         b.city_a.size(),
                                         b.city_a.PositiveCount());
  const auto key = [&](const MonteCarloOptions& m) {
    return MakeCalibrationKey(*b.family_a, statistic, m);
  };
  const CalibrationKey base = key(mc);

  MonteCarloOptions engine = mc;
  engine.engine = McEngine::kReference;
  engine.batch_size = 3;
  engine.parallel = false;
  EXPECT_EQ(base, key(engine)) << "execution-only knobs must not split keys";

  // Repeat the execution-only sweep over every counting path (grid cells,
  // and the annulus gather of squares and kNN circles) at both ends of the
  // popcount tier range: the best arm the CPU supports (forcing avx512 clamps
  // down to it) and scalar. The active tier is restored afterwards.
  SquareScanOptions square_opts;
  square_opts.centers = {{2.0, 2.0}, {5.0, 5.0}, {7.5, 7.5}};
  square_opts.side_lengths = SquareScanOptions::DefaultSideLengths(0.5, 3.0, 5);
  auto squares = SquareScanFamily::Create(b.city_a.locations(), square_opts);
  ASSERT_TRUE(squares.ok());
  KnnCircleOptions knn_opts;
  knn_opts.centers = square_opts.centers;
  auto knn = KnnCircleFamily::Create(b.city_a.locations(), knn_opts);
  ASSERT_TRUE(knn.ok());
  const std::vector<const RegionFamily*> families = {
      b.family_a.get(), squares->get(), knn->get()};
  for (const RegionFamily* family : families) {
    const auto family_key = [&](const MonteCarloOptions& m) {
      return MakeCalibrationKey(*family, statistic, m);
    };
    const CalibrationKey family_base = family_key(mc);
    const spatial::PopcountKernel previous = spatial::ActivePopcountKernel();
    for (const spatial::PopcountKernel tier :
         {spatial::PopcountKernel::kAvx512, spatial::PopcountKernel::kScalar}) {
      spatial::ForcePopcountKernel(tier);
      EXPECT_EQ(family_base, family_key(mc)) << family->Name();
      EXPECT_EQ(family_base, family_key(engine)) << family->Name();
    }
    spatial::ForcePopcountKernel(previous);
  }

  MonteCarloOptions seeded = mc;
  seeded.seed = 8;
  EXPECT_NE(base, key(seeded));
  MonteCarloOptions worlds = mc;
  worlds.num_worlds = 199;
  EXPECT_NE(base, key(worlds));
  MonteCarloOptions null_model = mc;
  null_model.null_model = NullModel::kPermutation;
  EXPECT_NE(base, key(null_model));
  MonteCarloOptions closed_form = mc;
  closed_form.closed_form_cells = false;
  EXPECT_NE(base, key(closed_form));

  // Different family, same totals → different fingerprint.
  const BernoulliScanStatistic statistic_eo(stats::ScanDirection::kTwoSided,
                                            b.city_a_eo_view.size(),
                                            b.city_a_eo_view.PositiveCount());
  EXPECT_NE(base.hash,
            MakeCalibrationKey(*b.family_a_eo, statistic_eo, mc).hash);
}

}  // namespace
}  // namespace sfa::core
