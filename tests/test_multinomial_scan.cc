// Tests for the multinomial scan LLR oracle, K-class counting, and
// multi-class audits over a grid family.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/random.h"
#include "core/audit.h"
#include "core/grid_family.h"
#include "core/knn_circle_family.h"
#include "core/labels.h"
#include "core/partitioning_family.h"
#include "core/rectangle_sweep_family.h"
#include "core/square_family.h"
#include "geo/partitioning.h"
#include "stats/bernoulli_scan.h"
#include "testing_util.h"

namespace sfa {
namespace {

using core::testing::MultinomialLogLikelihoodRatio;

TEST(MultinomialLlr, ZeroForDegenerateRegions) {
  // Empty region.
  EXPECT_DOUBLE_EQ(
      MultinomialLogLikelihoodRatio({0, 0}, {10, 10}), 0.0);
  // Region == everything.
  EXPECT_DOUBLE_EQ(
      MultinomialLogLikelihoodRatio({10, 10}, {10, 10}), 0.0);
}

TEST(MultinomialLlr, ZeroWhenProportionsMatch) {
  // Inside is a perfect miniature of the totals.
  EXPECT_NEAR(MultinomialLogLikelihoodRatio({5, 10, 15}, {10, 20, 30}),
              0.0, 1e-12);
}

TEST(MultinomialLlr, PositiveForDeviations) {
  EXPECT_GT(MultinomialLogLikelihoodRatio({10, 0}, {20, 20}), 0.0);
  EXPECT_GT(MultinomialLogLikelihoodRatio({1, 9, 0}, {10, 10, 10}), 0.0);
}

TEST(MultinomialLlr, TwoClassesReduceToBernoulli) {
  // K=2 multinomial LLR == two-sided Bernoulli scan LLR, counting class 0 as
  // "positive".
  for (uint64_t p = 0; p <= 8; ++p) {
    for (uint64_t big_p = p; big_p <= 30; big_p += 3) {
      const uint64_t n = 8, big_n = 40;
      if (big_n - big_p < n - p) continue;
      const stats::ScanCounts counts{.n = n, .p = p, .total_n = big_n,
                                     .total_p = big_p};
      const double bernoulli = stats::BernoulliLogLikelihoodRatio(counts);
      const double multinomial = MultinomialLogLikelihoodRatio(
          {p, n - p}, {big_p, big_n - big_p});
      ASSERT_NEAR(bernoulli, multinomial, 1e-10)
          << "p=" << p << " P=" << big_p;
    }
  }
}

TEST(MultinomialLlr, GrowsWithEffectSize) {
  const double mild =
      MultinomialLogLikelihoodRatio({12, 8, 10}, {100, 100, 100});
  const double strong =
      MultinomialLogLikelihoodRatio({28, 1, 1}, {100, 100, 100});
  EXPECT_GT(strong, mild);
}

TEST(MultinomialLlrDeathTest, RejectsEmptyAndMismatched) {
  EXPECT_DEATH(MultinomialLogLikelihoodRatio({}, {}), "class");
  EXPECT_DEATH(MultinomialLogLikelihoodRatio({1}, {1, 2}), "classes");
}

/// A multinomial audit of `classes` at `pts` over a 6x6 grid family, at
/// alpha = 0.01 with 199 null worlds.
Result<core::AuditResult> AuditGrid(const std::vector<geo::Point>& pts,
                                    const std::vector<uint8_t>& classes,
                                    uint32_t num_classes) {
  data::OutcomeDataset view("multiclass");
  for (size_t i = 0; i < pts.size(); ++i) view.Add(pts[i], classes[i]);
  SFA_ASSIGN_OR_RETURN(std::unique_ptr<core::GridPartitionFamily> family,
                       core::GridPartitionFamily::Create(pts, 6, 6));
  core::AuditOptions options;
  options.alpha = 0.01;
  options.statistic = core::StatisticKind::kMultinomial;
  options.num_classes = num_classes;
  options.monte_carlo.num_worlds = 199;
  return core::Auditor(options).AuditView(view, *family);
}

TEST(MulticlassAudit, RejectsBadInputs) {
  const std::vector<geo::Point> pts = {{0, 0}, {1, 1}};
  EXPECT_FALSE(AuditGrid({}, {}, 3).ok());
  EXPECT_FALSE(AuditGrid(pts, {0, 1}, 1).ok());
  EXPECT_FALSE(AuditGrid(pts, {0, 5}, 3).ok());
}

TEST(MulticlassAudit, FairMixtureIsDeclaredFair) {
  Rng rng(71);
  std::vector<geo::Point> pts(4000);
  std::vector<uint8_t> classes(pts.size());
  const std::vector<double> mix = {0.5, 0.3, 0.2};
  for (size_t i = 0; i < pts.size(); ++i) {
    pts[i] = {rng.Uniform(0, 10), rng.Uniform(0, 10)};
    classes[i] = static_cast<uint8_t>(rng.Categorical(mix));
  }
  auto result = AuditGrid(pts, classes, 3);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->spatially_fair) << "p=" << result->p_value;
  EXPECT_NEAR(result->class_distribution[0], 0.5, 0.03);
}

TEST(MulticlassAudit, DetectsPlantedMixtureShift) {
  // Same marginal classes, but one corner swaps class 0 mass for class 2.
  Rng rng(72);
  std::vector<geo::Point> pts(6000);
  std::vector<uint8_t> classes(pts.size());
  const geo::Rect zone(7.0, 7.0, 10.0, 10.0);
  for (size_t i = 0; i < pts.size(); ++i) {
    pts[i] = {rng.Uniform(0, 10), rng.Uniform(0, 10)};
    const bool shifted = zone.Contains(pts[i]);
    const std::vector<double> mix =
        shifted ? std::vector<double>{0.1, 0.3, 0.6}
                : std::vector<double>{0.5, 0.3, 0.2};
    classes[i] = static_cast<uint8_t>(rng.Categorical(mix));
  }
  auto result = AuditGrid(pts, classes, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->spatially_fair);
  ASSERT_FALSE(result->findings.empty());
  // Top finding lies in the planted zone and shows the shifted mix.
  const auto& top = result->findings[0];
  EXPECT_TRUE(zone.Intersects(top.rect));
  EXPECT_GT(top.class_counts[2], top.class_counts[0]);
  // Counts are consistent.
  uint64_t sum = 0;
  for (uint64_t c : top.class_counts) sum += c;
  EXPECT_EQ(sum, top.n);
}

TEST(MulticlassAudit, BinaryCaseAgreesWithBinaryAuditDirectionally) {
  // A 2-class multiclass audit must reach the same verdict as the binary
  // machinery on the same data (both calibrate by Monte Carlo, so compare
  // verdicts, not exact p-values).
  Rng rng(73);
  std::vector<geo::Point> pts(4000);
  std::vector<uint8_t> classes(pts.size());
  const geo::Rect zone(0.0, 0.0, 3.0, 10.0);
  for (size_t i = 0; i < pts.size(); ++i) {
    pts[i] = {rng.Uniform(0, 10), rng.Uniform(0, 10)};
    classes[i] = rng.Bernoulli(zone.Contains(pts[i]) ? 0.75 : 0.5) ? 1 : 0;
  }
  auto result = AuditGrid(pts, classes, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->spatially_fair);
}

// ---------------- class counting vs the indicator oracle --------------------

/// All five region family types over one point cloud, sized small enough for
/// tier-1 but covering every CountPlanes override (grid scatter,
/// per-partitioning scatter, prefix-sum fold, and the annulus gather), plus
/// the geometry-built member-list references of the two overlapping families.
std::vector<std::unique_ptr<core::RegionFamily>> MakeAllFamilies(
    const std::vector<geo::Point>& pts, Rng* rng) {
  std::vector<std::unique_ptr<core::RegionFamily>> families;
  auto grid = core::GridPartitionFamily::Create(pts, 6, 5);
  EXPECT_TRUE(grid.ok());
  families.push_back(std::move(*grid));

  auto partitionings = geo::MakeRandomPartitionings(
      geo::Rect::BoundingBox(pts).Expanded(1e-6), 6, 3, 7, rng);
  EXPECT_TRUE(partitionings.ok());
  auto collection =
      core::PartitioningCollectionFamily::Create(pts, std::move(*partitionings));
  EXPECT_TRUE(collection.ok());
  families.push_back(std::move(*collection));

  auto sweep = core::RectangleSweepFamily::Create(pts, 5, 4);
  EXPECT_TRUE(sweep.ok());
  families.push_back(std::move(*sweep));

  std::vector<geo::Point> centers(8);
  for (auto& c : centers) c = {rng->Uniform(0, 10), rng->Uniform(0, 10)};
  core::SquareScanOptions sq;
  sq.centers = centers;
  sq.side_lengths = core::SquareScanOptions::DefaultSideLengths(0.5, 3.0, 5);
  auto square = core::SquareScanFamily::Create(pts, sq);
  EXPECT_TRUE(square.ok());
  auto square_reference =
      core::testing::MemberListFamily::Squares(pts, **square);
  families.push_back(std::move(*square));
  families.push_back(std::move(square_reference));

  core::KnnCircleOptions knn;
  knn.centers = centers;
  knn.population_fractions = {0.01, 0.04, 0.10};
  auto circles = core::KnnCircleFamily::Create(pts, knn);
  EXPECT_TRUE(circles.ok());
  families.push_back(std::move(*circles));
  families.push_back(core::testing::MemberListFamily::KnnCircles(pts, knn));
  return families;
}

// For every family, both plane layouts of K-class counting must equal the
// K−1 indicator construction (testing::ReferenceClassCounts, per-class
// indicator labels through CountPositives) element for element:
// CountClassesBatch's (world, class) planes packed in ClassCountRowOffset
// order, and the lane sampler's layout — one mask byte per class, bit
// 8c + w = world w has class c — counted by one CountPlanes call.
// Both null-model draw styles (iid categorical and shuffled fixed multiset)
// are exercised.
TEST(CountClassesBatch, MatchesIndicatorPathForAllFamilies) {
  Rng rng(4242);
  std::vector<geo::Point> pts(700);
  for (auto& p : pts) p = {rng.Uniform(0, 10), rng.Uniform(0, 10)};
  const auto families = MakeAllFamilies(pts, &rng);

  const std::vector<double> mix = {0.45, 0.3, 0.15, 0.1};
  const auto num_classes = static_cast<uint32_t>(mix.size());
  const uint32_t counted = num_classes - 1;
  const size_t worlds = 4;

  for (const bool permute : {false, true}) {
    // Packed class worlds.
    std::vector<std::vector<uint8_t>> class_worlds(worlds);
    std::vector<const uint8_t*> class_ptrs;
    std::vector<uint8_t> base(pts.size());
    for (auto& c : base) c = static_cast<uint8_t>(rng.Categorical(mix));
    for (auto& world : class_worlds) {
      if (permute) {
        world = base;
        rng.Shuffle(world.begin(), world.end());
      } else {
        world.resize(pts.size());
        for (auto& c : world) c = static_cast<uint8_t>(rng.Categorical(mix));
      }
    }
    for (const auto& world : class_worlds) class_ptrs.push_back(world.data());

    // Class-major bytes: plane 8c + w = world w has class c.
    std::vector<uint64_t> class_planes(pts.size(), 0);
    for (uint32_t c = 0; c < counted; ++c) {
      for (size_t w = 0; w < worlds; ++w) {
        for (size_t i = 0; i < pts.size(); ++i) {
          class_planes[i] |= static_cast<uint64_t>(
                                 class_worlds[w][i] == c ? 1u : 0u)
                             << (8 * c + w);
        }
      }
    }

    for (const auto& family : families) {
      const size_t stride = family->num_regions();
      const size_t size = core::ClassCountBufferSize(worlds, counted, stride);
      std::vector<uint64_t> got(size, ~0ULL);
      std::vector<uint64_t> strided(size, ~0ULL);
      std::vector<uint64_t> expected(size, ~0ULL);
      family->CountClassesBatch(class_ptrs.data(), worlds, num_classes,
                                got.data());
      std::vector<uint32_t> rows(8 * counted * stride, ~0u);
      family->CountPlanes(class_planes.data(), 8 * counted, rows.data(),
                          stride);
      for (uint32_t c = 0; c < counted; ++c) {
        for (size_t w = 0; w < worlds; ++w) {
          std::copy_n(rows.begin() + (8 * c + w) * stride, stride,
                      strided.begin() +
                          core::ClassCountRowOffset(w, c, counted, stride));
        }
      }
      core::testing::ReferenceClassCounts(*family, class_ptrs.data(), worlds,
                                          num_classes, expected.data());
      ASSERT_EQ(got, expected) << family->Name() << " permute=" << permute;
      ASSERT_EQ(strided, expected) << family->Name() << " permute=" << permute;
    }
  }
}

// Satellite 3: counting-buffer offsets must widen to size_t BEFORE the
// multiplications. These operand combinations overflow 32-bit arithmetic by
// ~56x; evaluating at compile time pins the constexpr path too.
TEST(CountClassesBatch, OffsetHelpersWidenBeforeMultiplying) {
  constexpr size_t kOffset = core::ClassCountRowOffset(123456, 6, 7, 280000);
  static_assert(kOffset == (123456ULL * 7 + 6) * 280000ULL);
  EXPECT_EQ(kOffset, 241975440000ULL);
  constexpr size_t kSize = core::ClassCountBufferSize(70000, 9, 70000);
  static_assert(kSize == 70000ULL * 9 * 70000);
  EXPECT_EQ(kSize, 44100000000ULL);
  // The truncated products a narrow intermediate would have produced.
  EXPECT_NE(kOffset, static_cast<uint32_t>(kOffset));
  EXPECT_NE(kSize, static_cast<uint32_t>(kSize));
}

TEST(MulticlassAudit, DeterministicForSeed) {
  Rng rng(74);
  std::vector<geo::Point> pts(1000);
  std::vector<uint8_t> classes(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    pts[i] = {rng.Uniform(0, 1), rng.Uniform(0, 1)};
    classes[i] = static_cast<uint8_t>(rng.NextUint64(4));
  }
  auto a = AuditGrid(pts, classes, 4);
  auto b = AuditGrid(pts, classes, 4);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->p_value, b->p_value);
  EXPECT_EQ(a->tau, b->tau);
}

}  // namespace
}  // namespace sfa
