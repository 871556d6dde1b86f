// Equivalence suite for the batched Monte Carlo world engine: the batched
// strategy must reproduce the per-world reference bit-for-bit — same
// NullDistribution for the same seed — across every bundled region family,
// both null models, any batch size, and parallel on/off. Also checks the
// batch counting interface against scalar counting directly, the engine's
// inlined table LLR against the stats layer, and the closed-form cell
// sampler's distributional agreement with point-level labeling.
#include "core/mc_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/random.h"
#include "core/grid_family.h"
#include "core/knn_circle_family.h"
#include "core/partitioning_family.h"
#include "core/rectangle_sweep_family.h"
#include "core/significance.h"
#include "core/square_family.h"
#include "geo/partitioning.h"
#include "stats/bernoulli_scan.h"
#include "testing_util.h"

namespace sfa::core {
namespace {

constexpr size_t kPoints = 700;
constexpr double kRho = 0.43;
constexpr uint64_t kPositives = 300;

std::vector<geo::Point> Cloud(uint64_t seed) {
  Rng rng(seed);
  std::vector<geo::Point> pts(kPoints);
  for (auto& p : pts) {
    if (rng.Bernoulli(0.6)) {
      p = {rng.Normal(4, 0.8), rng.Normal(6, 0.8)};
    } else {
      p = {rng.Uniform(0, 10), rng.Uniform(0, 10)};
    }
  }
  return pts;
}

struct NamedFamily {
  std::string name;
  std::unique_ptr<RegionFamily> family;
};

std::vector<NamedFamily> AllFamilies() {
  const auto pts = Cloud(41);
  std::vector<NamedFamily> out;

  auto grid = GridPartitionFamily::Create(pts, 8, 6);
  EXPECT_TRUE(grid.ok());
  out.push_back({"grid", std::move(*grid)});

  const geo::Rect extent = geo::Rect::BoundingBox(pts);
  Rng prng(7);
  auto partitionings = geo::MakeRandomPartitionings(extent, 3, 2, 5, &prng);
  EXPECT_TRUE(partitionings.ok());
  auto collection = PartitioningCollectionFamily::Create(pts, std::move(*partitionings));
  EXPECT_TRUE(collection.ok());
  out.push_back({"partitioning-collection", std::move(*collection)});

  auto single = geo::MakeRandomPartitionings(extent, 1, 3, 6, &prng);
  EXPECT_TRUE(single.ok());
  auto single_family = PartitioningCollectionFamily::Create(pts, std::move(*single));
  EXPECT_TRUE(single_family.ok());
  out.push_back({"single-partitioning", std::move(*single_family)});

  // The overlapping families ride through the whole engine equivalence
  // suite, each next to its geometry-built member-list reference.
  SquareScanOptions square_opts;
  Rng crng(13);
  for (int i = 0; i < 12; ++i) {
    square_opts.centers.push_back({crng.Uniform(0, 10), crng.Uniform(0, 10)});
  }
  square_opts.side_lengths = SquareScanOptions::DefaultSideLengths(0.5, 3.0, 5);
  auto square = SquareScanFamily::Create(pts, square_opts);
  EXPECT_TRUE(square.ok());
  auto square_reference = testing::MemberListFamily::Squares(pts, **square);
  out.push_back({"square", std::move(*square)});
  out.push_back({"square-reference", std::move(square_reference)});

  KnnCircleOptions knn_opts;
  for (int i = 0; i < 10; ++i) {
    knn_opts.centers.push_back({crng.Uniform(0, 10), crng.Uniform(0, 10)});
  }
  auto knn = KnnCircleFamily::Create(pts, knn_opts);
  EXPECT_TRUE(knn.ok());
  out.push_back({"knn-circle", std::move(*knn)});
  out.push_back({"knn-circle-reference",
                 testing::MemberListFamily::KnnCircles(pts, knn_opts)});

  auto sweep = RectangleSweepFamily::Create(pts, 6, 5);
  EXPECT_TRUE(sweep.ok());
  out.push_back({"rectangle-sweep", std::move(*sweep)});

  return out;
}

NullDistribution Simulate(const RegionFamily& family, const MonteCarloOptions& mc) {
  auto dist = SimulateNull(family, kRho, kPositives,
                           stats::ScanDirection::kTwoSided, mc);
  EXPECT_TRUE(dist.ok());
  return *dist;
}

// The batched engine must equal the per-world reference exactly — same
// maxima, double-for-double — for every family, both null models, and
// parallel on/off.
TEST(McEngineEquivalence, BatchedMatchesReferenceExactly) {
  const auto families = AllFamilies();
  for (const auto& [name, family] : families) {
    for (NullModel null_model : {NullModel::kBernoulli, NullModel::kPermutation}) {
      MonteCarloOptions mc;
      mc.num_worlds = 60;
      mc.seed = 2024;
      mc.null_model = null_model;
      mc.parallel = false;
      mc.engine = McEngine::kReference;
      const NullDistribution reference = Simulate(*family, mc);

      for (bool parallel : {false, true}) {
        for (McEngine engine : {McEngine::kBatched, McEngine::kReference}) {
          mc.parallel = parallel;
          mc.engine = engine;
          const NullDistribution run = Simulate(*family, mc);
          EXPECT_EQ(run.MaximaVector(), reference.MaximaVector())
              << name << " / " << NullModelToString(null_model) << " / "
              << McEngineToString(engine) << " / parallel=" << parallel;
        }
      }
    }
  }
}

// Batch size is a performance knob, never a semantic one.
TEST(McEngineEquivalence, BatchSizeNeverChangesResults) {
  const auto families = AllFamilies();
  for (const auto& [name, family] : families) {
    MonteCarloOptions mc;
    mc.num_worlds = 45;
    mc.seed = 5;
    mc.batch_size = 1;
    const NullDistribution baseline = Simulate(*family, mc);
    for (uint32_t batch_size : {2u, 3u, 8u, 64u}) {
      mc.batch_size = batch_size;
      const NullDistribution run = Simulate(*family, mc);
      EXPECT_EQ(run.MaximaVector(), baseline.MaximaVector())
          << name << " batch_size=" << batch_size;
    }
  }
}

// CountPositivesBatch is integer-exact against scalar CountPositives for
// every family (including the tuned overrides).
TEST(McEngineEquivalence, BatchCountingMatchesScalarCounting) {
  const auto families = AllFamilies();
  Rng rng(77);
  constexpr size_t kWorlds = 7;  // a partial 8-world gather group
  std::vector<Labels> labels;
  std::vector<const Labels*> ptrs;
  for (size_t b = 0; b < kWorlds; ++b) {
    labels.push_back(Labels::SampleBernoulli(kPoints, 0.37, &rng));
  }
  for (const auto& label : labels) ptrs.push_back(&label);
  for (const auto& [name, family] : families) {
    std::vector<uint64_t> batched(kWorlds * family->num_regions());
    family->CountPositivesBatch(ptrs.data(), kWorlds, batched.data());
    for (size_t b = 0; b < kWorlds; ++b) {
      std::vector<uint64_t> scalar;
      family->CountPositives(*ptrs[b], &scalar);
      const std::vector<uint64_t> row(
          batched.begin() + b * family->num_regions(),
          batched.begin() + (b + 1) * family->num_regions());
      EXPECT_EQ(row, scalar) << name << " world " << b;
    }
  }
}

// With closed-form sampling off, the engine's per-world maxima must equal a
// hand-rolled oracle: sample the same labels, count with the scalar
// interface, evaluate every region through the stats-layer table LLR.
TEST(McEngineEquivalence, EngineMatchesStatsLayerOracle) {
  const auto pts = Cloud(41);
  auto family = GridPartitionFamily::Create(pts, 8, 6);
  ASSERT_TRUE(family.ok());

  MonteCarloOptions mc;
  mc.num_worlds = 25;
  mc.seed = 99;
  mc.closed_form_cells = false;
  const NullDistribution dist = Simulate(**family, mc);

  const stats::LogLikelihoodTable table(kPoints);
  Rng root(mc.seed);
  std::vector<double> oracle(mc.num_worlds);
  for (size_t w = 0; w < mc.num_worlds; ++w) {
    Rng rng = root.Split(w);
    const Labels labels = Labels::SampleBernoulli(kPoints, kRho, &rng);
    std::vector<uint64_t> positives;
    (*family)->CountPositives(labels, &positives);
    double max_llr = 0.0;
    for (size_t r = 0; r < (*family)->num_regions(); ++r) {
      stats::ScanCounts counts;
      counts.n = (*family)->PointCount(r);
      counts.p = positives[r];
      counts.total_n = kPoints;
      counts.total_p = labels.positive_count();
      max_llr = std::max(max_llr, stats::BernoulliLogLikelihoodRatio(
                                      counts, stats::ScanDirection::kTwoSided, table));
    }
    oracle[w] = max_llr;
  }
  EXPECT_EQ(dist.MaximaVector(), NullDistribution(oracle).MaximaVector());
}

// Closed-form cell sampling draws a different RNG stream but the same
// distribution: per-cell counts of i.i.d. Bernoulli labels are independent
// binomials. Compare summary statistics of the two nulls (fixed seeds, so
// this is deterministic, with tolerances far above Monte Carlo noise).
TEST(McEngine, ClosedFormMatchesPointLevelDistributionally) {
  const auto pts = Cloud(41);
  auto family = GridPartitionFamily::Create(pts, 8, 6);
  ASSERT_TRUE(family.ok());

  MonteCarloOptions mc;
  mc.num_worlds = 499;
  mc.seed = 17;
  mc.closed_form_cells = true;
  const NullDistribution closed = Simulate(**family, mc);
  mc.closed_form_cells = false;
  const NullDistribution point_level = Simulate(**family, mc);

  const auto mean = [](const NullDistribution& d) {
    double sum = 0.0;
    for (double v : d.sorted_max()) sum += v;
    return sum / static_cast<double>(d.sorted_max().size());
  };
  const double m_closed = mean(closed);
  const double m_point = mean(point_level);
  EXPECT_NEAR(m_closed, m_point, 0.15 * std::max(m_closed, m_point));
  const double c_closed = closed.CriticalValue(0.05);
  const double c_point = point_level.CriticalValue(0.05);
  EXPECT_NEAR(c_closed, c_point, 0.2 * std::max(c_closed, c_point));
}

// Closed-form sampling only applies where it is sound: families exposing a
// cell decomposition, and only under the Bernoulli null.
TEST(McEngine, CellDecompositionAvailability) {
  const auto families = AllFamilies();
  for (const auto& [name, family] : families) {
    const bool has_cells = family->cell_decomposition() != nullptr;
    const bool expected = name == "grid" || name == "single-partitioning" ||
                          name == "rectangle-sweep";
    EXPECT_EQ(has_cells, expected) << name;
    if (has_cells) {
      const CellDecomposition& cells = *family->cell_decomposition();
      uint64_t total = cells.num_outside;
      for (uint32_t c : cells.cell_counts) total += c;
      EXPECT_EQ(total, family->num_points()) << name;
    }
  }
}

// Identical options => identical distribution, run to run (the engine holds
// no hidden mutable state; thread-local arenas never leak into results).
TEST(McEngine, Reproducible) {
  const auto families = AllFamilies();
  for (const auto& [name, family] : families) {
    MonteCarloOptions mc;
    mc.num_worlds = 30;
    mc.seed = 3;
    const NullDistribution a = Simulate(*family, mc);
    const NullDistribution b = Simulate(*family, mc);
    EXPECT_EQ(a.MaximaVector(), b.MaximaVector()) << name;
  }
}

}  // namespace
}  // namespace sfa::core
