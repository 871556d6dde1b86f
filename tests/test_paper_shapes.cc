// Integration tests asserting the paper's qualitative claims end to end at
// test scale — miniature versions of the figure experiments. These are the
// repository's regression contract for the reproduction: if any of these
// break, a bench harness would print a wrong "measured" column.
#include <gtest/gtest.h>

#include "common/macros.h"
#include "common/random.h"
#include "core/audit.h"
#include "core/bernoulli_statistic.h"
#include "core/evidence.h"
#include "core/grid_family.h"
#include "core/meanvar.h"
#include "core/partitioning_family.h"
#include "core/scan.h"
#include "core/square_family.h"
#include "data/crime_sim.h"
#include "data/lar_sim.h"
#include "data/synth.h"
#include "stats/kmeans.h"
#include "testing_util.h"

namespace sfa {
namespace {

data::LarSimResult SmallLar() {
  data::LarSimOptions opts;
  opts.num_locations = 8000;
  opts.num_applications = 32000;
  auto result = data::MakeLarSim(opts);
  SFA_CHECK_OK(result.status());
  return std::move(result).value();
}

core::AuditOptions FastAudit(double alpha = 0.005) {
  core::AuditOptions opts;
  opts.alpha = alpha;
  opts.monte_carlo.num_worlds = 199;
  return opts;
}

// --- Figure 1: the MeanVar inversion, with the real generators.
TEST(PaperShapes, Fig1MeanVarInversion) {
  data::SemiSynthOptions semi_opts;
  semi_opts.num_outcomes = 6000;
  auto semi = data::MakeSemiSynthStandalone(semi_opts);
  ASSERT_TRUE(semi.ok());
  data::SynthOptions synth_opts;
  synth_opts.num_outcomes = 6000;
  auto synth = data::MakeSynth(synth_opts);
  ASSERT_TRUE(synth.ok());

  Rng rng(11);
  auto semi_parts = geo::MakeRandomResolutionPartitionings(
      semi->BoundingBox().Expanded(1e-6), 30, 10, 40, &rng);
  auto synth_parts = geo::MakeRandomResolutionPartitionings(
      synth->BoundingBox().Expanded(1e-6), 30, 10, 40, &rng);
  ASSERT_TRUE(semi_parts.ok() && synth_parts.ok());

  auto mv_semi = core::ComputeMeanVar(*semi, *semi_parts);
  auto mv_synth = core::ComputeMeanVar(*synth, *synth_parts);
  ASSERT_TRUE(mv_semi.ok() && mv_synth.ok());
  // The inversion: MeanVar calls the FAIR dataset less fair.
  EXPECT_GT(mv_semi->mean_var, mv_synth->mean_var);
}

// --- §4.2 "Is it fair?": our audit gets both verdicts right where MeanVar
// cannot discriminate.
TEST(PaperShapes, Fig1AuditVerdicts) {
  data::SemiSynthOptions semi_opts;
  semi_opts.num_outcomes = 6000;
  auto semi = data::MakeSemiSynthStandalone(semi_opts);
  data::SynthOptions synth_opts;
  synth_opts.num_outcomes = 6000;
  auto synth = data::MakeSynth(synth_opts);
  ASSERT_TRUE(semi.ok() && synth.ok());

  Rng rng(13);
  for (const data::OutcomeDataset* ds : {&*semi, &*synth}) {
    auto parts = geo::MakeRandomResolutionPartitionings(
        ds->BoundingBox().Expanded(1e-6), 20, 10, 30, &rng);
    ASSERT_TRUE(parts.ok());
    auto family = core::PartitioningCollectionFamily::Create(ds->locations(),
                                                             *parts);
    ASSERT_TRUE(family.ok());
    auto result = core::Auditor(FastAudit()).Audit(*ds, **family);
    ASSERT_TRUE(result.ok());
    if (ds == &*semi) {
      EXPECT_TRUE(result->spatially_fair) << "SemiSynth, p=" << result->p_value;
    } else {
      EXPECT_FALSE(result->spatially_fair) << "Synth, p=" << result->p_value;
    }
  }
}

// --- Figures 2/3: MeanVar's champions are sparse extremes; ours are dense
// with non-extreme rates, and the verdict is unfair.
TEST(PaperShapes, Fig3SparseVsDenseSuspects) {
  const data::LarSimResult lar = SmallLar();
  const geo::Rect extent = lar.dataset.BoundingBox().Expanded(1e-9);
  auto family = core::GridPartitionFamily::CreateWithExtent(
      lar.dataset.locations(), extent, 60, 30);
  ASSERT_TRUE(family.ok());
  auto audit = core::Auditor(FastAudit()).Audit(lar.dataset, **family);
  ASSERT_TRUE(audit.ok());
  EXPECT_FALSE(audit->spatially_fair);
  ASSERT_FALSE(audit->findings.empty());
  // Our flagged regions: dense, non-extreme.
  for (const auto& f : audit->findings) {
    EXPECT_GT(f.n, 50u);
    EXPECT_GT(f.local_rate, 0.0);
    EXPECT_LT(f.local_rate, 1.0);
  }

  auto partitioning = geo::Partitioning::Regular(extent, 60, 30);
  ASSERT_TRUE(partitioning.ok());
  auto meanvar = core::ComputeMeanVar(lar.dataset, {*partitioning});
  ASSERT_TRUE(meanvar.ok());
  // MeanVar's top-10: sparse and extreme.
  for (size_t i = 0; i < std::min<size_t>(10, meanvar->ranked_partitions.size());
       ++i) {
    const auto& c = meanvar->ranked_partitions[i];
    EXPECT_LE(c.n, 20u) << i;
    EXPECT_TRUE(c.measure == 0.0 || c.measure == 1.0) << i;
  }
}

// --- Figures 11/12: directional scans recover the planted Miami (red) and
// Bay Area (green) regions.
TEST(PaperShapes, Fig11And12DirectionalRecovery) {
  const data::LarSimResult lar = SmallLar();
  stats::KMeansOptions km;
  km.k = 40;
  km.seed = 5;
  auto clusters = stats::KMeans(lar.dataset.locations(), km);
  ASSERT_TRUE(clusters.ok());
  core::SquareScanOptions scan;
  scan.centers = clusters->centers;
  scan.side_lengths = core::SquareScanOptions::DefaultSideLengths(0.25, 2.0, 8);
  auto family = core::SquareScanFamily::Create(lar.dataset.locations(), scan);
  ASSERT_TRUE(family.ok());

  core::AuditOptions red_opts = FastAudit();
  red_opts.direction = stats::ScanDirection::kLow;
  auto red = core::Auditor(red_opts).Audit(lar.dataset, **family);
  ASSERT_TRUE(red.ok());
  ASSERT_FALSE(red->findings.empty());
  const geo::Rect miami(-80.50, 25.40, -80.05, 26.40);
  EXPECT_TRUE(red->findings[0].rect.Intersects(miami))
      << red->findings[0].rect.ToString();
  EXPECT_LT(red->findings[0].local_rate, red->overall_rate);

  core::AuditOptions green_opts = FastAudit();
  green_opts.direction = stats::ScanDirection::kHigh;
  auto green = core::Auditor(green_opts).Audit(lar.dataset, **family);
  ASSERT_TRUE(green.ok());
  ASSERT_FALSE(green->findings.empty());
  const geo::Rect bay_area(-122.80, 37.00, -121.60, 38.60);
  EXPECT_TRUE(green->findings[0].rect.Intersects(bay_area))
      << green->findings[0].rect.ToString();
  EXPECT_GT(green->findings[0].local_rate, green->overall_rate);
}

// --- Figure 5 pipeline: significant regions → best per center →
// non-overlapping exhibits, all disjoint and significant.
TEST(PaperShapes, Fig5NonOverlappingExhibits) {
  const data::LarSimResult lar = SmallLar();
  stats::KMeansOptions km;
  km.k = 30;
  km.seed = 6;
  auto clusters = stats::KMeans(lar.dataset.locations(), km);
  ASSERT_TRUE(clusters.ok());
  core::SquareScanOptions scan;
  scan.centers = clusters->centers;
  scan.side_lengths = core::SquareScanOptions::DefaultSideLengths(0.25, 2.0, 8);
  auto family = core::SquareScanFamily::Create(lar.dataset.locations(), scan);
  ASSERT_TRUE(family.ok());
  auto audit = core::Auditor(FastAudit()).Audit(lar.dataset, **family);
  ASSERT_TRUE(audit.ok());
  ASSERT_FALSE(audit->findings.empty());

  const auto exhibits =
      core::SelectNonOverlapping(core::BestPerGroup(audit->findings));
  ASSERT_FALSE(exhibits.empty());
  EXPECT_LE(exhibits.size(), audit->findings.size());
  for (size_t i = 0; i < exhibits.size(); ++i) {
    EXPECT_GT(exhibits[i].llr, audit->critical_value);
    for (size_t j = i + 1; j < exhibits.size(); ++j) {
      EXPECT_FALSE(exhibits[i].rect.Intersects(exhibits[j].rect));
    }
  }
}

// --- Figure 4: the Crime equal-opportunity audit flags Hollywood as an
// under-detection region.
TEST(PaperShapes, Fig4CrimeHollywoodUnderDetection) {
  data::CrimeAuditOptions opts;
  opts.sim.num_incidents = 150000;
  opts.forest.num_trees = 10;
  auto bundle = data::BuildCrimeAudit(opts);
  ASSERT_TRUE(bundle.ok());
  const data::OutcomeDataset& view = bundle->equal_opportunity;
  auto family = core::GridPartitionFamily::Create(view.locations(), 20, 20);
  ASSERT_TRUE(family.ok());
  core::AuditOptions audit_opts = FastAudit(/*alpha=*/0.01);
  audit_opts.measure = core::FairnessMeasure::kEqualOpportunity;
  auto audit = core::Auditor(audit_opts).AuditView(view, **family);
  ASSERT_TRUE(audit.ok());
  EXPECT_FALSE(audit->spatially_fair);

  const geo::Rect hollywood(-118.33 - 0.08, 34.10 - 0.08, -118.33 + 0.08,
                            34.10 + 0.08);
  bool found_hollywood_dip = false;
  for (const auto& f : audit->findings) {
    if (f.local_rate < audit->overall_rate && f.rect.Intersects(hollywood)) {
      found_hollywood_dip = true;
      break;
    }
  }
  EXPECT_TRUE(found_hollywood_dip);
}

// --- Figure 6: fair worlds contain extreme-looking small clusters, but the
// audit's false-alarm rate stays at the nominal level.
TEST(PaperShapes, Fig6ExtremeClustersAreNotEvidence) {
  // Irregular locations, like the paper's Figure 6 panels: a few dense
  // clusters plus scatter (tight pockets of 5+ points are common).
  Rng rng(606);
  std::vector<geo::Point> pts;
  for (int c = 0; c < 6; ++c) {
    const geo::Point center{rng.Uniform(1, 9), rng.Uniform(1, 9)};
    for (int i = 0; i < 130; ++i) {
      pts.push_back({rng.Normal(center.x, 0.35), rng.Normal(center.y, 0.35)});
    }
  }
  while (pts.size() < 1000) pts.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  core::SquareScanOptions scan;
  for (double x = 0.25; x < 10.0; x += 0.5) {
    for (double y = 0.25; y < 10.0; y += 0.5) scan.centers.push_back({x, y});
  }
  scan.side_lengths = {0.5, 1.0, 1.5};
  auto family = core::SquareScanFamily::Create(pts, scan);
  ASSERT_TRUE(family.ok());

  core::MonteCarloOptions mc;
  mc.num_worlds = 199;
  const core::BernoulliScanStatistic statistic(stats::ScanDirection::kTwoSided,
                                               1000, 500);
  auto null_dist = core::SimulateNull(statistic, **family, mc);
  ASSERT_TRUE(null_dist.ok());

  int with_cluster = 0, rejections = 0;
  const int worlds = 40;
  const stats::LogLikelihoodTable table(1000);
  for (int w = 0; w < worlds; ++w) {
    const core::Labels labels = core::Labels::SampleBernoulli(1000, 0.5, &rng);
    const std::vector<uint64_t> positives =
        core::testing::PositivesOf(**family, labels);
    for (size_t r = 0; r < (*family)->num_regions(); ++r) {
      if ((*family)->PointCount(r) >= 5 && positives[r] == 0) {
        ++with_cluster;
        break;
      }
    }
    const double tau =
        core::ScanAllRegions(**family, labels, stats::ScanDirection::kTwoSided,
                             table)
            .max_llr;
    if (null_dist->PValue(tau) <= 0.005) ++rejections;
  }
  // Extreme-looking clusters are common in fair data...
  EXPECT_GT(with_cluster, worlds / 2);
  // ...but the audit almost never rejects.
  EXPECT_LE(rejections, 2);
}

}  // namespace
}  // namespace sfa
