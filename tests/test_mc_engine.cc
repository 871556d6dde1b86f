// Equivalence suite for the batched Monte Carlo world engine: its maxima
// must equal the per-world oracle testing::ReferenceNullMaxima (scalar
// samplers, scalar counting, every region's Λ) bit-for-bit, world by world,
// across every bundled region family, both null models, every scan
// direction, any batch size, and parallel on/off. Also checks the batch
// counting interface against scalar counting directly, the size-grouped LLR
// max against the per-region definition exhaustively at small N on every
// SIMD tier and each tier's LLR max against the scalar arm bit for bit, the
// closed-form cell sampler's distributional agreement with point-level
// labeling, and a table of null maxima pinned as constants.
#include "core/mc_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/bernoulli_statistic.h"
#include "core/grid_family.h"
#include "core/knn_circle_family.h"
#include "core/multinomial_statistic.h"
#include "core/partitioning_family.h"
#include "core/rectangle_sweep_family.h"
#include "core/scan.h"
#include "core/significance.h"
#include "core/square_family.h"
#include "geo/partitioning.h"
#include "spatial/simd_popcount.h"
#include "stats/bernoulli_scan.h"
#include "testing_util.h"

namespace sfa::core {
namespace {

constexpr size_t kPoints = 700;
constexpr uint64_t kPositives = 301;
// The null rate ρ = P/N (301/700 is the double 0.43).
constexpr double kRho = static_cast<double>(kPositives) / kPoints;

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

/// The options of AllFamilies()' squares and kNN circles, whose centers are
/// drawn from one generator.
std::pair<SquareScanOptions, KnnCircleOptions> OverlappingOptions() {
  SquareScanOptions square_opts;
  Rng crng(13);
  for (int i = 0; i < 12; ++i) {
    square_opts.centers.push_back({crng.Uniform(0, 10), crng.Uniform(0, 10)});
  }
  square_opts.side_lengths = SquareScanOptions::DefaultSideLengths(0.5, 3.0, 5);
  KnnCircleOptions knn_opts;
  for (int i = 0; i < 10; ++i) {
    knn_opts.centers.push_back({crng.Uniform(0, 10), crng.Uniform(0, 10)});
  }
  return {square_opts, knn_opts};
}

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
  const auto [square_opts, knn_opts] = OverlappingOptions();
  auto square = SquareScanFamily::Create(pts, square_opts);
  EXPECT_TRUE(square.ok());
  auto square_reference = testing::MemberListFamily::Of(pts, **square);
  out.push_back({"square", std::move(*square)});
  out.push_back({"square-reference", std::move(square_reference)});

  auto knn = KnnCircleFamily::Create(pts, knn_opts);
  EXPECT_TRUE(knn.ok());
  auto knn_reference = testing::MemberListFamily::Of(pts, **knn, &knn_opts);
  out.push_back({"knn-circle", std::move(*knn)});
  out.push_back({"knn-circle-reference", std::move(knn_reference)});

  auto sweep = RectangleSweepFamily::Create(pts, 6, 5);
  EXPECT_TRUE(sweep.ok());
  out.push_back({"rectangle-sweep", std::move(*sweep)});

  return out;
}

/// The member-list oracle of one of AllFamilies(), built from the same
/// cloud's geometry.
std::unique_ptr<testing::MemberListFamily> Oracle(const RegionFamily& family) {
  const KnnCircleOptions knn_opts = OverlappingOptions().second;
  return testing::MemberListFamily::Of(Cloud(41), family, &knn_opts);
}

BernoulliScanStatistic Statistic() {
  return BernoulliScanStatistic(stats::ScanDirection::kTwoSided, kPoints,
                                kPositives);
}

NullDistribution Simulate(const RegionFamily& family, const MonteCarloOptions& mc) {
  auto dist = SimulateNull(Statistic(), family, mc);
  EXPECT_TRUE(dist.ok());
  return *dist;
}

// The engine must equal the oracle exactly — same maxima in the same world
// order, double-for-double — for every family, both null models, and
// parallel on/off.
TEST(McEngineEquivalence, BatchedMatchesReferenceExactly) {
  const auto families = AllFamilies();
  for (const auto& [name, family] : families) {
    for (NullModel null_model : {NullModel::kBernoulli, NullModel::kPermutation}) {
      MonteCarloOptions mc;
      mc.num_worlds = 60;
      mc.seed = 2024;
      mc.null_model = null_model;
      const std::vector<double> oracle =
          testing::ReferenceNullMaxima(Statistic(), *Oracle(*family), mc);
      for (bool parallel : {false, true}) {
        mc.parallel = parallel;
        EXPECT_EQ(
            RunMonteCarloWorlds(*Statistic().MakeSimulation(*family, mc), mc),
            oracle)
            << name << " / " << NullModelToString(null_model)
            << " / parallel=" << parallel;
      }
    }
  }
}

// Batch size is a performance knob, never a semantic one: every batch size,
// including partial 8-world lane groups, matches the oracle.
TEST(McEngineEquivalence, BatchSizeNeverChangesResults) {
  const auto families = AllFamilies();
  for (const auto& [name, family] : families) {
    MonteCarloOptions mc;
    mc.num_worlds = 45;
    mc.seed = 5;
    const std::vector<double> oracle =
        testing::ReferenceNullMaxima(Statistic(), *Oracle(*family), mc);
    for (bool parallel : {false, true}) {
      for (uint32_t batch_size :
           {1u, 2u, 3u, 7u, 8u, 9u, 17u, 64u, 128u, 999u}) {
        mc.parallel = parallel;
        mc.batch_size = batch_size;
        EXPECT_EQ(
            RunMonteCarloWorlds(*Statistic().MakeSimulation(*family, mc), mc),
            oracle)
            << name << " batch_size=" << batch_size
            << " parallel=" << parallel;
      }
    }
  }
}

/// Counts each plane through another family's CountPositivesBatch, one
/// unpacked world at a time, so an engine batch runs a packing adapter while
/// it holds its own pooled block.
class AdapterCountingFamily : public RegionFamily {
 public:
  explicit AdapterCountingFamily(const RegionFamily& inner) : inner_(inner) {}

  size_t num_regions() const override { return inner_.num_regions(); }
  size_t num_points() const override { return inner_.num_points(); }
  RegionDescriptor Describe(size_t r) const override {
    return inner_.Describe(r);
  }
  uint64_t PointCount(size_t r) const override { return inner_.PointCount(r); }
  void CountPlanes(const uint64_t* masks, size_t num_planes, uint32_t* out,
                   size_t out_stride) const override {
    std::vector<uint8_t> bytes(num_points());
    std::vector<uint64_t> row(num_regions());
    for (size_t p = 0; p < num_planes; ++p) {
      for (size_t i = 0; i < bytes.size(); ++i) bytes[i] = (masks[i] >> p) & 1;
      const Labels labels = Labels::FromBytes(bytes);
      const Labels* batch[] = {&labels};
      inner_.CountPositivesBatch(batch, 1, row.data());
      std::copy(row.begin(), row.end(), out + p * out_stride);
    }
  }
  std::string Name() const override { return "adapter:" + inner_.Name(); }

 private:
  const RegionFamily& inner_;
};

// An adapter called inside an engine batch gets storage of its own: the
// batch's mask words and rows survive it. The wrapper hides the cell
// decomposition, so its worlds are point-level; the oracle counts them over
// the inner family's member lists.
TEST(McEngineEquivalence, AdaptersInsideAnEngineBatchKeepTheBatchBlock) {
  const auto families = AllFamilies();
  for (const auto& [name, family] : families) {
    const AdapterCountingFamily wrapped(*family);
    for (NullModel null_model :
         {NullModel::kBernoulli, NullModel::kPermutation}) {
      MonteCarloOptions mc;
      mc.num_worlds = 30;
      mc.seed = 11;
      mc.null_model = null_model;
      mc.parallel = false;
      mc.closed_form_cells = false;
      EXPECT_EQ(
          RunMonteCarloWorlds(*Statistic().MakeSimulation(wrapped, mc), mc),
          testing::ReferenceNullMaxima(Statistic(), *Oracle(*family), mc))
          << name << " / " << NullModelToString(null_model);
    }
  }
}

// CountPlanes is integer-exact against the member-list oracle, built from
// geometry alone, for every family (the annulus walks, the cell scatters
// and the oracle's own plane count), on every tier, in a full 64-plane call
// and a partial one, and with an output stride wider than a row; so is
// CountPlaneBytes at 1 to 8 planes.
TEST(McEngineEquivalence, PlaneCountingMatchesScalarCounting) {
  const auto families = AllFamilies();
  Rng rng(77);
  constexpr size_t kWorlds = 71;  // one full 64-plane call, one of 7
  constexpr size_t kPlanes = RegionFamily::kMaxPlanes;
  std::vector<Labels> labels;
  std::vector<const uint8_t*> ptrs;
  for (size_t b = 0; b < kWorlds; ++b) {
    labels.push_back(Labels::SampleBernoulli(kPoints, 0.1 + 0.01 * b, &rng));
  }
  for (const auto& label : labels) ptrs.push_back(label.bytes().data());
  const std::vector<uint64_t> masks = testing::PackPlaneWords(
      std::vector<const uint8_t*>(ptrs.begin(), ptrs.begin() + kPlanes),
      kPoints);
  for (const spatial::PopcountKernel tier : testing::kTiers) {
    const testing::ScopedTier scoped(tier);
    for (const auto& [name, family] : families) {
      const size_t regions = family->num_regions();
      const auto oracle = Oracle(*family);
      const std::vector<uint64_t> batched = testing::CountByPlanes(
          [&family = *family](const uint64_t* words, size_t planes,
                              uint32_t* out, size_t stride) {
            family.CountPlanes(words, planes, out, stride);
          },
          ptrs, kPoints, regions);
      // A stride of 3 rows puts plane p at row 3p and leaves the rows
      // between untouched.
      std::vector<uint32_t> strided(3 * kPlanes * regions, ~0u);
      family->CountPlanes(masks.data(), kPlanes, strided.data(), 3 * regions);
      for (size_t p = 0; p < kPlanes; ++p) {
        EXPECT_TRUE(std::equal(batched.begin() + p * regions,
                               batched.begin() + (p + 1) * regions,
                               strided.begin() + 3 * p * regions))
            << name << " plane " << p;
        EXPECT_TRUE(std::all_of(strided.begin() + (3 * p + 1) * regions,
                                strided.begin() + (3 * p + 3) * regions,
                                [](uint32_t v) { return v == ~0u; }))
            << name << " plane " << p;
      }
      const std::vector<uint8_t> low_bytes(masks.begin(), masks.end());
      for (size_t planes = 1; planes <= RegionFamily::kBytePlanes; ++planes) {
        std::vector<uint32_t> rows(planes * regions);
        family->CountPlaneBytes(low_bytes.data(), planes, rows.data(),
                                regions);
        EXPECT_TRUE(std::equal(rows.begin(), rows.end(), batched.begin()))
            << name << " CountPlaneBytes, " << planes << " planes";
      }
      for (size_t b = 0; b < kWorlds; ++b) {
        const std::vector<uint64_t> scalar =
            oracle->Count(labels[b].bytes().data());
        const std::vector<uint64_t> row(batched.begin() + b * regions,
                                        batched.begin() + (b + 1) * regions);
        EXPECT_EQ(row, scalar) << name << " world " << b << " tier "
                               << spatial::PopcountKernelName(tier);
      }
    }
  }
}

// Every family's engine maxima must equal two oracles exactly, in every
// scan direction, from closed-form and point-level worlds: the per-world
// oracle, which pins the size-grouped LLR max against the per-region
// definition, and — for point-level worlds — the observed-world scan,
// ScanAllRegions, which pins the rank p-value's tie contract: an observed
// world and a null world with the same labels produce the same double.
TEST(McEngineEquivalence, EngineMatchesStatsLayerOracle) {
  const stats::LogLikelihoodTable table(kPoints);
  const auto families = AllFamilies();
  for (const stats::ScanDirection direction :
       {stats::ScanDirection::kTwoSided, stats::ScanDirection::kHigh,
        stats::ScanDirection::kLow}) {
    const BernoulliScanStatistic statistic(direction, kPoints, kPositives);
    const char* dir = stats::ScanDirectionToString(direction);
    for (const auto& [name, family] : families) {
      for (const bool closed_form : {true, false}) {
        MonteCarloOptions mc;
        mc.num_worlds = 25;
        mc.seed = 99;
        mc.closed_form_cells = closed_form;
        const std::vector<double> engine =
            RunMonteCarloWorlds(*statistic.MakeSimulation(*family, mc), mc);
        EXPECT_EQ(engine,
                  testing::ReferenceNullMaxima(statistic, *Oracle(*family), mc))
            << name << " / " << dir << " / cells=" << closed_form;
        if (closed_form) continue;
        Rng root(mc.seed);
        for (size_t w = 0; w < mc.num_worlds; ++w) {
          Rng rng = root.Split(w);
          const Labels labels = Labels::SampleBernoulli(kPoints, kRho, &rng);
          EXPECT_EQ(engine[w],
                    ScanAllRegions(*family, labels, direction, table).max_llr)
              << name << " / " << dir << " world " << w;
        }
      }
    }
  }
}

// The size-grouped max against the per-region definition, exhaustively at
// small N: for every N <= 48, P <= N, region size n in [1, N-1] and feasible
// count range [lo, hi], a group of three regions holding lo, hi and a count
// between them must give exactly the max of Λ over EVERY count in [lo, hi],
// in all three directions. That is the convexity claim the plan rests on
// (no interior count beats both ends, after table rounding) plus the
// group's min/max reduction.
void ExpectGroupedMaxEqualsPerRegionMaxExhaustively() {
  using stats::ScanDirection;
  size_t checked = 0;
  for (uint64_t total_n = 2; total_n <= 48; ++total_n) {
    const stats::LogLikelihoodTable table(total_n);
    for (uint64_t n = 1; n < total_n; ++n) {
      const internal::LlrMaxPlan plan({n, n, n}, total_n);
      ASSERT_EQ(plan.num_groups(), 1u);
      for (uint64_t total_p = 0; total_p <= total_n; ++total_p) {
        const uint64_t p_min =
            total_p > total_n - n ? total_p - (total_n - n) : 0;
        const uint64_t p_max = std::min(n, total_p);
        for (const ScanDirection direction :
             {ScanDirection::kTwoSided, ScanDirection::kHigh,
              ScanDirection::kLow}) {
          for (uint64_t lo = p_min; lo <= p_max; ++lo) {
            double per_region = 0.0;  // max of Λ over every count in [lo, hi]
            for (uint64_t hi = lo; hi <= p_max; ++hi) {
              stats::ScanCounts counts;
              counts.n = n;
              counts.p = hi;
              counts.total_n = total_n;
              counts.total_p = total_p;
              per_region = std::max(
                  per_region,
                  stats::BernoulliLogLikelihoodRatio(counts, direction, table));
              const uint32_t positives[3] = {
                  static_cast<uint32_t>((lo + hi) / 2),
                  static_cast<uint32_t>(hi), static_cast<uint32_t>(lo)};
              ASSERT_EQ(plan.Max(positives, total_p, direction, table),
                        per_region)
                  << "N=" << total_n << " P=" << total_p << " n=" << n
                  << " lo=" << lo << " hi=" << hi << " "
                  << stats::ScanDirectionToString(direction);
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 1000000u);
}

TEST(LlrMaxPlan, GroupedMaxEqualsPerRegionMaxExhaustively) {
  for (const spatial::PopcountKernel tier : testing::kTiers) {
    const testing::ScopedTier scoped(tier);
    SCOPED_TRACE(spatial::PopcountKernelName(spatial::ActiveSamplerKernel()));
    ExpectGroupedMaxEqualsPerRegionMaxExhaustively();
  }
}

// Only size groups of 3+ regions with 0 < n < N are reduced, and none once N
// passes the exactness bound; a family mixing reduced groups, directly
// evaluated regions and dropped regions of size 0 or N gives the per-region
// max in every direction.
TEST(LlrMaxPlan, ReducesOnlyGroupsOfThreeOrMoreBelowTheBound) {
  EXPECT_EQ(internal::LlrMaxPlan({4, 4, 5, 5, 6}, 20).num_groups(), 0u);
  EXPECT_EQ(internal::LlrMaxPlan({0, 0, 0, 20, 20, 20}, 20).num_groups(), 0u);
  EXPECT_EQ(internal::LlrMaxPlan({4, 5, 4, 4, 5}, 20).num_groups(), 1u);
  constexpr uint64_t kLarge = internal::LlrMaxPlan::kMaxGroupedPoints;
  EXPECT_EQ(internal::LlrMaxPlan({9, 9, 9}, kLarge).num_groups(), 1u);
  EXPECT_EQ(internal::LlrMaxPlan({9, 9, 9}, kLarge + 1).num_groups(), 0u);

  const auto expect_per_region_max = [](const std::vector<uint64_t>& sizes,
                                        const std::vector<uint64_t>& positives,
                                        uint64_t total_n, uint64_t total_p,
                                        size_t groups) {
    const internal::LlrMaxPlan plan(sizes, total_n);
    EXPECT_EQ(plan.num_groups(), groups);
    const stats::LogLikelihoodTable table(total_n);
    for (const stats::ScanDirection direction :
         {stats::ScanDirection::kTwoSided, stats::ScanDirection::kHigh,
          stats::ScanDirection::kLow}) {
      double expected = 0.0;
      for (size_t r = 0; r < sizes.size(); ++r) {
        stats::ScanCounts counts;
        counts.n = sizes[r];
        counts.p = positives[r];
        counts.total_n = total_n;
        counts.total_p = total_p;
        expected = std::max(expected, stats::BernoulliLogLikelihoodRatio(
                                          counts, direction, table));
      }
      EXPECT_GT(expected, 0.0);
      const std::vector<uint32_t> rows(positives.begin(), positives.end());
      EXPECT_EQ(plan.Max(rows.data(), total_p, direction, table), expected)
          << "N=" << total_n << " " << stats::ScanDirectionToString(direction);
    }
  };
  for (const spatial::PopcountKernel tier : testing::kTiers) {
    const testing::ScopedTier scoped(tier);
    SCOPED_TRACE(spatial::PopcountKernelName(spatial::ActiveSamplerKernel()));
    // N = 20, P = 8: group {5, 5, 5}, direct {3} and {7, 7}, dropped 0 and
    // 20.
    expect_per_region_max({5, 3, 5, 7, 5, 7, 0, 20},
                          {4, 0, 1, 7, 2, 3, 0, 8}, 20, 8, 1);
    // Sizes on both sides of the sort's 11-bit digit boundary, interleaved
    // so that sizes sharing a low digit (2047 and 4095) only separate on the
    // high one: groups 2047, 2048 and 4095, direct 3000.
    expect_per_region_max(
        {2047, 4095, 2048, 2047, 4095, 2048, 2047, 4095, 2048, 3000},
        {1100, 2100, 900, 1000, 1900, 1024, 1023, 2300, 1200, 1600}, 10000,
        5000, 3);
  }
}

// The k·log k table serves at most 2^32 − 1 points, which keeps the rate
// gate's cross-products p·n_out and p_out·n within 64 bits.
TEST(LogLikelihoodTable, RejectsMoreThan32BitCounts) {
  EXPECT_DEATH(stats::LogLikelihoodTable(uint64_t{UINT32_MAX} + 1),
               "exceeds");
}

/// Region sizes shaped like one of the engine's families at N points, with
/// regions of size 0 and N (which the plan drops) mixed in.
enum class PlanShape { kGrid, kSquares, kKnn, kDirect };

std::vector<uint64_t> ShapedSizes(PlanShape shape, uint64_t total_n,
                                  Rng* rng) {
  std::vector<uint64_t> sizes;
  switch (shape) {
    case PlanShape::kGrid:
      // Partition cells: a few very large groups of small sizes, empty
      // cells, and a handful of large cells evaluated one by one.
      for (int r = 0; r < 5000; ++r) sizes.push_back(rng->NextUint64(9));
      for (int r = 0; r < 5; ++r) sizes.push_back(100 + 37 * r);
      break;
    case PlanShape::kSquares:
      // Overlapping squares: hundreds of groups of 3 to ~15 regions plus
      // sizes held by only one or two regions.
      for (int r = 0; r < 2000; ++r) {
        sizes.push_back(1 + rng->NextUint64(300) * (total_n / 400));
      }
      for (int r = 0; r < 139; ++r) {
        sizes.push_back(1 + rng->NextUint64(total_n - 1));
      }
      break;
    case PlanShape::kKnn:
      // kNN circles: one group of 100 regions per rung of the ladder.
      for (uint64_t k = 8; k < total_n && k <= 512; k *= 2) {
        for (int c = 0; c < 100; ++c) sizes.push_back(k);
      }
      break;
    case PlanShape::kDirect:
      for (int r = 0; r < 333; ++r) {
        sizes.push_back(1 + rng->NextUint64(total_n - 1));
      }
      break;
  }
  sizes.push_back(0);
  sizes.push_back(total_n);
  std::shuffle(sizes.begin(), sizes.end(), *rng);
  return sizes;
}

// Every tier's Max must equal the scalar arm's bit for bit: seeded worlds on
// plans shaped like the grid, squares and kNN families, in all three
// directions, with P at 0, N and in between, and on a plan over more than
// kMaxGroupedPoints points, which evaluates every region directly.
TEST(LlrMaxPlan, EveryTierMatchesTheScalarArmBitForBit) {
  using stats::ScanDirection;
  struct Case {
    PlanShape shape;
    uint64_t total_n;
  };
  const Case cases[] = {
      {PlanShape::kGrid, 8192},
      {PlanShape::kSquares, 8192},
      {PlanShape::kKnn, 8192},
      {PlanShape::kKnn, 700},
      {PlanShape::kDirect, internal::LlrMaxPlan::kMaxGroupedPoints + 1}};
  Rng rng(53);
  for (const Case& c : cases) {
    const std::vector<uint64_t> sizes = ShapedSizes(c.shape, c.total_n, &rng);
    const internal::LlrMaxPlan plan(sizes, c.total_n);
    EXPECT_EQ(plan.num_groups() == 0, c.shape == PlanShape::kDirect);
    const stats::LogLikelihoodTable table(c.total_n);
    for (int world = 0; world < 24; ++world) {
      const uint64_t total_p = world == 0   ? 0
                               : world == 1 ? c.total_n
                                            : rng.NextUint64(c.total_n + 1);
      // Any count p with p <= n, p <= P and n − p <= N − P is feasible.
      std::vector<uint32_t> positives(sizes.size());
      for (size_t r = 0; r < sizes.size(); ++r) {
        const uint64_t lo = total_p + sizes[r] > c.total_n
                                ? total_p + sizes[r] - c.total_n
                                : 0;
        const uint64_t hi = std::min(sizes[r], total_p);
        positives[r] = static_cast<uint32_t>(lo + rng.NextUint64(hi - lo + 1));
      }
      for (const ScanDirection direction :
           {ScanDirection::kTwoSided, ScanDirection::kHigh,
            ScanDirection::kLow}) {
        double want;
        {
          const testing::ScopedTier scalar(spatial::PopcountKernel::kScalar);
          want = plan.Max(positives.data(), total_p, direction, table);
        }
        if (world >= 2) {
          EXPECT_GT(want, 0.0);
        }
        for (const spatial::PopcountKernel tier : testing::kTiers) {
          const testing::ScopedTier scoped(tier);
          const double got =
              plan.Max(positives.data(), total_p, direction, table);
          ASSERT_EQ(std::bit_cast<uint64_t>(got),
                    std::bit_cast<uint64_t>(want))
              << spatial::PopcountKernelName(spatial::ActiveSamplerKernel())
              << " shape " << static_cast<int>(c.shape) << " N=" << c.total_n
              << " P=" << total_p << " "
              << stats::ScanDirectionToString(direction) << ": " << got
              << " vs " << want;
        }
      }
    }
  }
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

// Null maxima pinned as constants. The equivalence tests above compare the
// engine against the oracle, which shares the samplers and the family
// counting with it, so a change that moves both together (a sampler's draw
// order, the class draw) would pass them; only these values catch such
// drift. Each row holds the first kPinnedWorlds maxima of one configuration
// and must hold for the engine and for the oracle. The partitioning and
// rectangle-sweep rows cover the closed-form cell draws of every
// cell-decomposed family; the K = 2 and K = 5 multinomial rows cover the
// class counts the K-class max is specialized on and its general fallback.
constexpr size_t kPinnedWorlds = 3;

struct PinnedMaxima {
  const char* family;
  const char* statistic;  // "two-sided", "high", "low" or "multinomial"
  NullModel null_model;
  bool closed_form_cells;
  double maxima[kPinnedWorlds];
};

constexpr PinnedMaxima kPinnedMaxima[] = {
    {"grid", "two-sided", NullModel::kBernoulli, true,
     {0x1.cdebeb2cbac8p+1, 0x1.895f9065714p+1, 0x1.a2d968d9698p+1}},
    {"grid", "two-sided", NullModel::kPermutation, true,
     {0x1.9385cb02e9p+1, 0x1.0f98f491788p+2, 0x1.452e3419d08p+1}},
    {"grid", "high", NullModel::kBernoulli, true,
     {0x1.cdebeb2cbac8p+1, 0x1.895f9065714p+1, 0x1.1b1bd4d42ddp+1}},
    {"grid", "high", NullModel::kPermutation, true,
     {0x1.452e3419d08p+1, 0x1.0f98f491788p+2, 0x1.452e3419d08p+1}},
    {"grid", "low", NullModel::kBernoulli, true,
     {0x1.719d25cf4d8p+1, 0x1.72e42ef45cp+0, 0x1.a2d968d9698p+1}},
    {"grid", "low", NullModel::kPermutation, true,
     {0x1.9385cb02e9p+1, 0x1.fb11cecb3f8p+1, 0x1.33e5401ea2a8p+1}},
    {"grid", "two-sided", NullModel::kBernoulli, false,
     {0x1.40c09ea5c5ap+2, 0x1.23800a3ab58p+1, 0x1.5cb50b2a228p+1}},
    {"grid", "high", NullModel::kBernoulli, false,
     {0x1.8c1ed14682cp+1, 0x1.08a2d9dc611p+1, 0x1.4f93bfd614cp+1}},
    {"grid", "low", NullModel::kBernoulli, false,
     {0x1.40c09ea5c5ap+2, 0x1.23800a3ab58p+1, 0x1.5cb50b2a228p+1}},
    {"square", "two-sided", NullModel::kBernoulli, true,
     {0x1.28c4c28e9ap+1, 0x1.5c9b51cfdc88p+1, 0x1.14997c07e0dp+1}},
    {"square", "two-sided", NullModel::kPermutation, true,
     {0x1.c77c6ff2e38p+1, 0x1.469b78b2f3p+2, 0x1.5f18b343d68cp+2}},
    {"square", "high", NullModel::kBernoulli, true,
     {0x1.28c4c28e9ap+1, 0x1.c3a0e4dc1aep+0, 0x1.438ec98ee1cp+0}},
    {"square", "high", NullModel::kPermutation, true,
     {0x1.c77c6ff2e38p+1, 0x1.c78c74f9a9p+1, 0x1.5f18b343d68cp+2}},
    {"square", "low", NullModel::kBernoulli, true,
     {0x1.debaab435ap+0, 0x1.5c9b51cfdc88p+1, 0x1.14997c07e0dp+1}},
    {"square", "low", NullModel::kPermutation, true,
     {0x1.261ef609ae4p+1, 0x1.469b78b2f3p+2, 0x1.70e631e4f1ap+0}},
    {"knn-circle", "two-sided", NullModel::kBernoulli, true,
     {0x1.3f78904fb98p+1, 0x1.063c94e1749p+1, 0x1.46a6a3988178p+1}},
    {"knn-circle", "two-sided", NullModel::kPermutation, true,
     {0x1.fb11cecb3f8p+1, 0x1.630c73449c78p+1, 0x1.2af930f2784p+0}},
    {"knn-circle", "high", NullModel::kBernoulli, true,
     {0x1.32893df7fc4p+1, 0x1.063c94e1749p+1, 0x1.438ec98ee1cp+0}},
    {"knn-circle", "high", NullModel::kPermutation, true,
     {0x1.b2106ea83fp+1, 0x1.630c73449c78p+1, 0x1.2af930f2784p+0}},
    {"knn-circle", "low", NullModel::kBernoulli, true,
     {0x1.3f78904fb98p+1, 0x1.8118ff2d8f3p+0, 0x1.46a6a3988178p+1}},
    {"knn-circle", "low", NullModel::kPermutation, true,
     {0x1.fb11cecb3f8p+1, 0x1.3aa9f4c0aa2p+0, 0x1.09a980865fp+0}},
    {"square", "multinomial", NullModel::kBernoulli, true,
     {0x1.1e95dc07126p+2, 0x1.2f5de8cb1788p+2, 0x1.aec4955f62cp+1}},
    {"square", "multinomial", NullModel::kPermutation, true,
     {0x1.e4a4d02a437p+1, 0x1.6ddafdc84d7p+1, 0x1.aa64749bf7ap+1}},
    {"grid", "multinomial", NullModel::kBernoulli, false,
     {0x1.33d294120228p+2, 0x1.90d0d7d7717p+1, 0x1.1f8f522d222p+2}},
    {"grid", "multinomial", NullModel::kBernoulli, true,
     {0x1.3bd2d0f6aefp+2, 0x1.fd90e338241p+1, 0x1.1b168776f7p+2}},
    {"partitioning-collection", "two-sided", NullModel::kBernoulli, true,
     {0x1.debaab435ap+0, 0x1.4c152747f3dp+1, 0x1.5998c37914fp+1}},
    {"partitioning-collection", "high", NullModel::kBernoulli, true,
     {0x1.35845f92b7ep+0, 0x1.2c9dab3ef2bp+1, 0x1.4f93bfd614cp+1}},
    {"single-partitioning", "two-sided", NullModel::kBernoulli, true,
     {0x1.801f920c2f2p+2, 0x1.8be775db50dp+1, 0x1.34978d8d61p+1}},
    {"single-partitioning", "low", NullModel::kBernoulli, true,
     {0x1.c411c804af1p+0, 0x1.8be775db50dp+1, 0x1.23803b9b9238p+1}},
    {"rectangle-sweep", "two-sided", NullModel::kBernoulli, true,
     {0x1.789c79800598p+2, 0x1.1b18c057fe6p+2, 0x1.25a29f40aeap+2}},
    {"square", "multinomial-k2", NullModel::kBernoulli, true,
     {0x1.1e32f49c5cp+1, 0x1.5c544eeb3fap+1, 0x1.8c058d73bep+1}},
    {"square", "multinomial-k2", NullModel::kPermutation, true,
     {0x1.2dc18a9d4d6p+1, 0x1.0a121d3e9098p+1, 0x1.65d605e5dbp+1}},
    {"grid", "multinomial-k2", NullModel::kBernoulli, true,
     {0x1.37f7d415b708p+1, 0x1.e914b6b7d5f8p+1, 0x1.ea87961f14p+1}},
    {"square", "multinomial-k5", NullModel::kBernoulli, true,
     {0x1.7494c5fbbacp+2, 0x1.1c831a29eaap+2, 0x1.a3adb34e4c3p+2}},
    {"square", "multinomial-k5", NullModel::kPermutation, true,
     {0x1.30d2f3f07d2p+2, 0x1.f5b0e0cdbc2p+1, 0x1.2f0a02620d3p+2}},
    {"grid", "multinomial-k5", NullModel::kBernoulli, false,
     {0x1.9a3584a3661p+2, 0x1.babeb71c78dp+2, 0x1.9a8f75c4dbdp+2}},
    {"grid", "multinomial-k5", NullModel::kBernoulli, true,
     {0x1.c68bd955c42p+2, 0x1.c381ec88525p+2, 0x1.082c6e710418p+3}},
};

std::unique_ptr<ScanStatistic> PinnedStatistic(const std::string& name) {
  if (name.rfind("multinomial", 0) == 0) {
    // "multinomial" is K = 3; "multinomial-k<K>" names any other K.
    const uint32_t k =
        name == "multinomial"
            ? 3
            : static_cast<uint32_t>(std::stoul(name.substr(13)));
    Rng rng(23);
    std::vector<uint8_t> classes(kPoints);
    for (auto& c : classes) c = static_cast<uint8_t>(rng.NextUint64(k));
    auto statistic =
        MultinomialScanStatistic::FromOutcomes(classes.data(), kPoints, k);
    EXPECT_TRUE(statistic.ok());
    return std::move(*statistic);
  }
  const stats::ScanDirection direction =
      name == "high"  ? stats::ScanDirection::kHigh
      : name == "low" ? stats::ScanDirection::kLow
                      : stats::ScanDirection::kTwoSided;
  return std::make_unique<BernoulliScanStatistic>(direction, kPoints,
                                                  kPositives);
}

TEST(McEngine, NullMaximaArePinned) {
  const auto families = AllFamilies();
  for (const PinnedMaxima& pin : kPinnedMaxima) {
    const RegionFamily* family = nullptr;
    for (const auto& [name, candidate] : families) {
      if (name == pin.family) family = candidate.get();
    }
    ASSERT_NE(family, nullptr) << pin.family;
    const auto statistic = PinnedStatistic(pin.statistic);
    MonteCarloOptions mc;
    mc.num_worlds = kPinnedWorlds;
    mc.seed = 1234;
    mc.null_model = pin.null_model;
    mc.closed_form_cells = pin.closed_form_cells;
    mc.parallel = false;
    const std::vector<double> engine =
        RunMonteCarloWorlds(*statistic->MakeSimulation(*family, mc), mc);
    const std::vector<double> oracle =
        testing::ReferenceNullMaxima(*statistic, *Oracle(*family), mc);
    ASSERT_EQ(engine.size(), kPinnedWorlds);
    ASSERT_EQ(oracle.size(), kPinnedWorlds);
    for (size_t w = 0; w < kPinnedWorlds; ++w) {
      const std::string context =
          std::string(pin.family) + " / " + pin.statistic + " / " +
          NullModelToString(pin.null_model) +
          " / cells=" + std::to_string(pin.closed_form_cells) + " / world " +
          std::to_string(w);
      EXPECT_EQ(engine[w], pin.maxima[w]) << "engine: " << context;
      EXPECT_EQ(oracle[w], pin.maxima[w]) << "oracle: " << context;
    }
  }
}

/// One degenerate input of the sweep: points plus binary outcomes and K = 3
/// class codes over them.
struct DegenerateInput {
  std::string name;
  std::vector<geo::Point> points;
  std::vector<uint8_t> binary;
  std::vector<uint8_t> classes;
};

std::vector<DegenerateInput> DegenerateInputs() {
  std::vector<DegenerateInput> inputs;
  const auto mixed = [](DegenerateInput input) {
    for (size_t i = 0; i < input.points.size(); ++i) {
      input.binary.push_back(static_cast<uint8_t>(i % 2));
      input.classes.push_back(static_cast<uint8_t>(i % 3));
    }
    return input;
  };
  std::vector<geo::Point> cloud = Cloud(43);
  cloud.resize(60);
  // P = 0 and P = N: every point in one class.
  inputs.push_back({"P=0", cloud, std::vector<uint8_t>(cloud.size(), 0),
                    std::vector<uint8_t>(cloud.size(), 0)});
  inputs.push_back({"P=N", cloud, std::vector<uint8_t>(cloud.size(), 1),
                    std::vector<uint8_t>(cloud.size(), 2)});
  inputs.push_back({"N=1", {{4.0, 6.0}}, {1}, {1}});
  // Duplicates: a rectangle holds all the points or none, and so does a kNN
  // circle, whose closed ball takes every point tied with its k-th nearest.
  inputs.push_back(
      mixed({"one location", std::vector<geo::Point>(40, {4.0, 6.0}), {}, {}}));
  // Two far corners: the grid, the partitionings, the sweep rectangles and
  // the squares between them hold no point.
  DegenerateInput corners{"empty cells", {}, {}, {}};
  Rng rng(47);
  for (int i = 0; i < 30; ++i) {
    corners.points.push_back({rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)});
    corners.points.push_back({rng.Uniform(9.0, 10.0), rng.Uniform(9.0, 10.0)});
  }
  inputs.push_back(mixed(std::move(corners)));
  return inputs;
}

/// The kNN options of BundledFamilies(); its squares share the centers.
KnnCircleOptions BundledKnnOptions() {
  KnnCircleOptions knn_opts;
  knn_opts.centers = {
      {0.5, 0.5}, {4.0, 6.0}, {5.0, 5.0}, {9.5, 9.5}, {2.0, 8.0}};
  return knn_opts;
}

/// Every bundled family over `points`, or the status its Create returned.
std::vector<std::pair<std::string, Result<std::unique_ptr<RegionFamily>>>>
BundledFamilies(const std::vector<geo::Point>& points) {
  std::vector<std::pair<std::string, Result<std::unique_ptr<RegionFamily>>>>
      out;
  const auto add = [&](const char* name, auto created) {
    if (created.ok()) {
      out.emplace_back(name, std::unique_ptr<RegionFamily>(
                                 std::move(created).value()));
    } else {
      out.emplace_back(name, created.status());
    }
  };
  add("grid", GridPartitionFamily::Create(points, 8, 6));
  Rng prng(7);
  auto partitionings = geo::MakeRandomPartitionings(
      geo::Rect::BoundingBox(points), 3, 2, 5, &prng);
  if (partitionings.ok()) {
    add("partitioning-collection",
        PartitioningCollectionFamily::Create(points,
                                             std::move(*partitionings)));
  } else {
    out.emplace_back("partitioning-collection", partitionings.status());
  }
  const KnnCircleOptions knn_opts = BundledKnnOptions();
  SquareScanOptions square_opts;
  square_opts.centers = knn_opts.centers;
  square_opts.side_lengths = SquareScanOptions::DefaultSideLengths(0.5, 3.0, 5);
  add("square", SquareScanFamily::Create(points, square_opts));
  add("knn-circle", KnnCircleFamily::Create(points, knn_opts));
  add("rectangle-sweep", RectangleSweepFamily::Create(points, 6, 5));
  return out;
}

// Degenerate inputs through every bundled family, both statistics and both
// null models: each case is either refused with InvalidArgument (by a
// Create or by ValidateForFamily) or simulated exactly as the per-world
// oracle does, with a finite observed max that is 0 when one class holds
// every point.
TEST(McEngine, DegenerateInputsAreRejectedOrMatchTheOracle) {
  const KnnCircleOptions knn_opts = BundledKnnOptions();
  for (const DegenerateInput& input : DegenerateInputs()) {
    const size_t n = input.points.size();
    uint64_t positives = 0;
    for (const uint8_t y : input.binary) positives += y;
    const bool one_binary_class = positives == 0 || positives == n;
    const bool one_class =
        std::all_of(input.classes.begin(), input.classes.end(),
                    [&](uint8_t c) { return c == input.classes[0]; });
    std::vector<std::pair<std::string, Result<std::unique_ptr<ScanStatistic>>>>
        statistics;
    statistics.emplace_back(
        "bernoulli", std::make_unique<BernoulliScanStatistic>(
                         stats::ScanDirection::kTwoSided, n, positives));
    auto multinomial =
        MultinomialScanStatistic::FromOutcomes(input.classes.data(), n, 3);
    if (multinomial.ok()) {
      statistics.emplace_back("multinomial-k3", std::move(*multinomial));
    } else {
      statistics.emplace_back("multinomial-k3", multinomial.status());
    }
    for (auto& [family_name, family] : BundledFamilies(input.points)) {
      for (const auto& [statistic_name, statistic] : statistics) {
        const std::string context =
            input.name + " / " + family_name + " / " + statistic_name;
        SCOPED_TRACE(context);
        if (!family.ok()) {
          EXPECT_TRUE(family.status().IsInvalidArgument()) << family.status();
          continue;
        }
        if (!statistic.ok()) {
          EXPECT_TRUE(statistic.status().IsInvalidArgument())
              << statistic.status();
          continue;
        }
        const Status valid = (*statistic)->ValidateForFamily(**family);
        if (!valid.ok()) {
          EXPECT_TRUE(valid.IsInvalidArgument()) << valid;
          continue;
        }
        const bool bernoulli = statistic_name == "bernoulli";
        const std::vector<uint8_t>& outcomes =
            bernoulli ? input.binary : input.classes;
        AuditScratch scratch;
        const ScanResult observed =
            (*statistic)->ScanObserved(**family, outcomes.data(), n, &scratch);
        EXPECT_TRUE(std::isfinite(observed.max_llr)) << observed.max_llr;
        // One class, or one location (every region holds all the points or
        // none): no region's mix departs from the whole's.
        if ((bernoulli ? one_binary_class : one_class) ||
            input.name == "one location") {
          EXPECT_EQ(observed.max_llr, 0.0);
        }
        for (const NullModel null_model :
             {NullModel::kBernoulli, NullModel::kPermutation}) {
          MonteCarloOptions mc;
          mc.num_worlds = 19;
          mc.seed = 77;
          mc.null_model = null_model;
          EXPECT_EQ(
              RunMonteCarloWorlds(*(*statistic)->MakeSimulation(**family, mc),
                                  mc),
              testing::ReferenceNullMaxima(
                  **statistic,
                  *testing::MemberListFamily::Of(input.points, **family,
                                                 &knn_opts),
                  mc))
              << NullModelToString(null_model);
        }
      }
    }
  }
}

}  // namespace
}  // namespace sfa::core
