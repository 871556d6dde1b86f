// Tests for KdTree::KNearest and the kNN circular scan family.
#include "core/knn_circle_family.h"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "common/random.h"
#include "core/audit.h"
#include "spatial/kdtree.h"

namespace sfa {
namespace {

std::vector<geo::Point> RandomPoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<geo::Point> pts(n);
  for (auto& p : pts) p = {rng.Uniform(0, 10), rng.Uniform(0, 10)};
  return pts;
}

TEST(KdTreeKNearest, MatchesBruteForce) {
  const auto pts = RandomPoints(400, 1);
  const spatial::KdTree tree(pts);
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    const geo::Point q(rng.Uniform(-1, 11), rng.Uniform(-1, 11));
    const size_t k = 1 + rng.NextUint64(20);
    const auto got = tree.KNearest(q, k);
    ASSERT_EQ(got.size(), k);
    // Brute force: sort all ids by distance.
    std::vector<uint32_t> all(pts.size());
    std::iota(all.begin(), all.end(), 0u);
    std::sort(all.begin(), all.end(), [&](uint32_t a, uint32_t b) {
      return q.DistanceSquaredTo(pts[a]) < q.DistanceSquaredTo(pts[b]);
    });
    // Compare distances (ids may tie).
    for (size_t i = 0; i < k; ++i) {
      ASSERT_NEAR(q.DistanceSquaredTo(pts[got[i]]),
                  q.DistanceSquaredTo(pts[all[i]]), 1e-12)
          << "trial " << trial << " position " << i;
    }
    // Ascending order.
    for (size_t i = 1; i < k; ++i) {
      ASSERT_LE(q.DistanceSquaredTo(pts[got[i - 1]]),
                q.DistanceSquaredTo(pts[got[i]]) + 1e-12);
    }
  }
}

TEST(KdTreeKNearest, KEqualsNReturnsEverything) {
  const auto pts = RandomPoints(50, 3);
  const spatial::KdTree tree(pts);
  auto got = tree.KNearest({5, 5}, 50);
  std::sort(got.begin(), got.end());
  for (uint32_t i = 0; i < 50; ++i) ASSERT_EQ(got[i], i);
}

TEST(KdTreeKNearestDeathTest, RejectsBadK) {
  const auto pts = RandomPoints(10, 4);
  const spatial::KdTree tree(pts);
  EXPECT_DEATH(tree.KNearest({0, 0}, 0), "outside");
  EXPECT_DEATH(tree.KNearest({0, 0}, 11), "outside");
}

TEST(KnnCircleFamily, RejectsBadOptions) {
  const auto pts = RandomPoints(100, 5);
  core::KnnCircleOptions opts;
  EXPECT_FALSE(core::KnnCircleFamily::Create(pts, opts).ok());  // no centers
  opts.centers = {{5, 5}};
  opts.population_fractions = {};
  EXPECT_FALSE(core::KnnCircleFamily::Create(pts, opts).ok());
  opts.population_fractions = {1.5};
  EXPECT_FALSE(core::KnnCircleFamily::Create(pts, opts).ok());
  opts.population_fractions = {0.1};
  EXPECT_FALSE(core::KnnCircleFamily::Create({}, opts).ok());
}

TEST(KnnCircleFamily, RejectsNonFiniteInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto pts = RandomPoints(100, 7);
  core::KnnCircleOptions opts;
  opts.centers = {{5, 5}};
  opts.population_fractions = {0.1};
  ASSERT_TRUE(core::KnnCircleFamily::Create(pts, opts).ok());

  for (const geo::Point bad : {geo::Point{nan, 5}, geo::Point{5, nan},
                               geo::Point{-inf, 5}, geo::Point{5, inf}}) {
    std::vector<geo::Point> points = pts;
    points[42] = bad;
    const auto bad_point = core::KnnCircleFamily::Create(points, opts);
    ASSERT_FALSE(bad_point.ok());
    EXPECT_EQ(bad_point.status().code(), StatusCode::kInvalidArgument);

    core::KnnCircleOptions bad_center = opts;
    bad_center.centers.push_back(bad);
    const auto family = core::KnnCircleFamily::Create(pts, bad_center);
    ASSERT_FALSE(family.ok());
    EXPECT_EQ(family.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(KnnCircleFamily, RegionsHoldExactPopulationShares) {
  const auto pts = RandomPoints(1000, 6);
  core::KnnCircleOptions opts;
  opts.centers = {{2, 2}, {8, 8}};
  opts.population_fractions = {0.01, 0.05, 0.10};
  auto family = core::KnnCircleFamily::Create(pts, opts);
  ASSERT_TRUE(family.ok());
  EXPECT_EQ((*family)->num_regions(), 6u);
  // Region point counts are exactly ceil(fraction * N).
  EXPECT_EQ((*family)->PointCount(0), 10u);
  EXPECT_EQ((*family)->PointCount(1), 50u);
  EXPECT_EQ((*family)->PointCount(2), 100u);
  // Radii grow with k.
  EXPECT_LT((*family)->RadiusOfRegion(0), (*family)->RadiusOfRegion(1));
  EXPECT_LT((*family)->RadiusOfRegion(1), (*family)->RadiusOfRegion(2));
}

TEST(KnnCircleFamily, MembersAreTheNearestPoints) {
  const auto pts = RandomPoints(500, 7);
  core::KnnCircleOptions opts;
  opts.centers = {{5, 5}};
  opts.population_fractions = {0.04};
  auto family = core::KnnCircleFamily::Create(pts, opts);
  ASSERT_TRUE(family.ok());
  // All members must be within the region radius; all non-members outside
  // (up to ties).
  const double radius = (*family)->RadiusOfRegion(0);
  core::Labels all_ones =
      core::Labels::FromBytes(std::vector<uint8_t>(pts.size(), 1));
  std::vector<uint64_t> counts;
  (*family)->CountPositives(all_ones, &counts);
  EXPECT_EQ(counts[0], 20u);  // ceil(0.04 * 500)
  size_t within = 0;
  for (const auto& p : pts) {
    within += geo::Point{5, 5}.DistanceTo(p) <= radius + 1e-12;
  }
  EXPECT_EQ(within, 20u);
}

TEST(KnnCircleFamily, AdaptsRadiusToDensity) {
  // Dense cluster at (2,2), sparse elsewhere: the same population share has
  // a much smaller radius at the dense center.
  Rng rng(8);
  std::vector<geo::Point> pts;
  for (int i = 0; i < 900; ++i) {
    pts.push_back({rng.Normal(2.0, 0.1), rng.Normal(2.0, 0.1)});
  }
  for (int i = 0; i < 100; ++i) {
    pts.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  core::KnnCircleOptions opts;
  opts.centers = {{2, 2}, {8, 8}};
  opts.population_fractions = {0.05};
  auto family = core::KnnCircleFamily::Create(pts, opts);
  ASSERT_TRUE(family.ok());
  EXPECT_LT((*family)->RadiusOfRegion(0), (*family)->RadiusOfRegion(1) / 3.0);
}

TEST(KnnCircleFamily, WorksWithAuditorAndFindsPlant) {
  Rng rng(9);
  data::OutcomeDataset ds("knn-audit");
  const geo::Point hot(7.0, 3.0);
  for (int i = 0; i < 6000; ++i) {
    const geo::Point p(rng.Uniform(0, 10), rng.Uniform(0, 10));
    const bool in_plant = p.DistanceTo(hot) < 1.0;
    ds.Add(p, rng.Bernoulli(in_plant ? 0.75 : 0.5) ? 1 : 0);
  }
  core::KnnCircleOptions opts;
  for (double x = 1.0; x <= 9.0; x += 2.0) {
    for (double y = 1.0; y <= 9.0; y += 2.0) opts.centers.push_back({x, y});
  }
  auto family = core::KnnCircleFamily::Create(ds.locations(), opts);
  ASSERT_TRUE(family.ok());
  core::AuditOptions audit_opts;
  audit_opts.alpha = 0.01;
  audit_opts.monte_carlo.num_worlds = 199;
  auto result = core::Auditor(audit_opts).Audit(ds, **family);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->spatially_fair);
  ASSERT_FALSE(result->findings.empty());
  // The top finding's enclosing square overlaps the hot circle.
  EXPECT_TRUE(result->findings[0].rect.Contains(hot));
}

}  // namespace
}  // namespace sfa
