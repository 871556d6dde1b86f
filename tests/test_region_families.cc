// Tests for the three region-family implementations: counts must agree with
// brute-force geometry for both n(R) and p(R), across label assignments.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/calibration_cache.h"
#include "core/grid_family.h"
#include "core/partitioning_family.h"
#include "core/rectangle_sweep_family.h"
#include "core/square_family.h"
#include "stats/kmeans.h"

namespace sfa::core {
namespace {

struct TestCloud {
  std::vector<geo::Point> points;
  std::vector<uint8_t> labels;
};

TestCloud MakeCloud(size_t n, uint64_t seed) {
  sfa::Rng rng(seed);
  TestCloud cloud;
  cloud.points.resize(n);
  cloud.labels.resize(n);
  for (size_t i = 0; i < n; ++i) {
    // Clustered + background mix to stress irregular densities.
    if (rng.Bernoulli(0.7)) {
      cloud.points[i] = {rng.Normal(3.0, 0.5), rng.Normal(7.0, 0.5)};
    } else {
      cloud.points[i] = {rng.Uniform(0, 10), rng.Uniform(0, 10)};
    }
    cloud.labels[i] = rng.Bernoulli(0.4) ? 1 : 0;
  }
  return cloud;
}

void CheckFamilyAgainstBruteForce(const RegionFamily& family,
                                  const TestCloud& cloud) {
  const Labels labels = Labels::FromBytes(cloud.labels);
  std::vector<uint64_t> positives;
  family.CountPositives(labels, &positives);
  ASSERT_EQ(positives.size(), family.num_regions());
  for (size_t r = 0; r < family.num_regions(); ++r) {
    const geo::Rect rect = family.Describe(r).rect;
    uint64_t expected_n = 0, expected_p = 0;
    for (size_t i = 0; i < cloud.points.size(); ++i) {
      if (rect.Contains(cloud.points[i])) {
        ++expected_n;
        expected_p += cloud.labels[i];
      }
    }
    ASSERT_EQ(family.PointCount(r), expected_n) << family.Name() << " region " << r;
    ASSERT_EQ(positives[r], expected_p) << family.Name() << " region " << r;
  }
}

TEST(GridPartitionFamily, RejectsEmptyPoints) {
  EXPECT_FALSE(GridPartitionFamily::Create({}, 4, 4).ok());
}

TEST(GridPartitionFamily, CountsMatchBruteForce) {
  const TestCloud cloud = MakeCloud(2000, 41);
  auto family = GridPartitionFamily::Create(cloud.points, 8, 6);
  ASSERT_TRUE(family.ok());
  EXPECT_EQ((*family)->num_regions(), 48u);
  EXPECT_EQ((*family)->num_points(), 2000u);
  CheckFamilyAgainstBruteForce(**family, cloud);
}

TEST(GridPartitionFamily, PointCountsSumToN) {
  const TestCloud cloud = MakeCloud(1500, 42);
  auto family = GridPartitionFamily::Create(cloud.points, 10, 10);
  ASSERT_TRUE(family.ok());
  uint64_t total = 0;
  for (size_t r = 0; r < (*family)->num_regions(); ++r) {
    total += (*family)->PointCount(r);
  }
  EXPECT_EQ(total, 1500u);  // every point in exactly one cell
}

TEST(GridPartitionFamily, ExplicitExtentExcludesOutsiders) {
  const std::vector<geo::Point> pts = {{1, 1}, {9, 9}, {100, 100}};
  auto family =
      GridPartitionFamily::CreateWithExtent(pts, geo::Rect(0, 0, 10, 10), 2, 2);
  ASSERT_TRUE(family.ok());
  uint64_t total = 0;
  for (size_t r = 0; r < (*family)->num_regions(); ++r) {
    total += (*family)->PointCount(r);
  }
  EXPECT_EQ(total, 2u);
}

TEST(GridPartitionFamily, DescribeGivesDisjointTilingRects) {
  const TestCloud cloud = MakeCloud(100, 43);
  auto family = GridPartitionFamily::Create(cloud.points, 4, 3);
  ASSERT_TRUE(family.ok());
  double area = 0.0;
  for (size_t r = 0; r < (*family)->num_regions(); ++r) {
    area += (*family)->Describe(r).rect.Area();
  }
  EXPECT_NEAR(area, (*family)->grid().extent().Area(), 1e-6);
}

TEST(PartitioningCollectionFamily, RejectsEmptyInputs) {
  sfa::Rng rng(1);
  auto p = geo::Partitioning::Regular(geo::Rect(0, 0, 10, 10), 2, 2);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(PartitioningCollectionFamily::Create({}, {*p}).ok());
  EXPECT_FALSE(PartitioningCollectionFamily::Create({{1, 1}}, {}).ok());
}

TEST(PartitioningCollectionFamily, CountsMatchBruteForce) {
  const TestCloud cloud = MakeCloud(1000, 44);
  sfa::Rng rng(45);
  const geo::Rect extent(0, 0, 10, 10);
  auto partitionings = geo::MakeRandomPartitionings(extent, 5, 3, 8, &rng);
  ASSERT_TRUE(partitionings.ok());
  auto family = PartitioningCollectionFamily::Create(cloud.points, *partitionings);
  ASSERT_TRUE(family.ok());
  CheckFamilyAgainstBruteForce(**family, cloud);
}

TEST(PartitioningCollectionFamily, LocateRoundTrips) {
  const TestCloud cloud = MakeCloud(200, 46);
  sfa::Rng rng(47);
  auto partitionings =
      geo::MakeRandomPartitionings(geo::Rect(0, 0, 10, 10), 4, 2, 5, &rng);
  ASSERT_TRUE(partitionings.ok());
  auto family = PartitioningCollectionFamily::Create(cloud.points, *partitionings);
  ASSERT_TRUE(family.ok());
  for (size_t r = 0; r < (*family)->num_regions(); ++r) {
    const auto [t, partition] = (*family)->Locate(r);
    ASSERT_EQ((*family)->RegionOffset(t) + partition, r);
    ASSERT_LT(t, (*family)->num_partitionings());
    ASSERT_LT(partition, (*family)->partitioning(t).num_partitions());
  }
}

TEST(PartitioningCollectionFamily, EachPartitioningSumsToN) {
  const TestCloud cloud = MakeCloud(800, 48);
  sfa::Rng rng(49);
  auto partitionings =
      geo::MakeRandomPartitionings(geo::Rect(0, 0, 10, 10), 3, 4, 10, &rng);
  ASSERT_TRUE(partitionings.ok());
  auto family = PartitioningCollectionFamily::Create(cloud.points, *partitionings);
  ASSERT_TRUE(family.ok());
  for (size_t t = 0; t < (*family)->num_partitionings(); ++t) {
    uint64_t total = 0;
    const size_t begin = (*family)->RegionOffset(t);
    const size_t count = (*family)->partitioning(t).num_partitions();
    for (size_t r = begin; r < begin + count; ++r) {
      total += (*family)->PointCount(r);
    }
    ASSERT_EQ(total, 800u) << "partitioning " << t;
  }
}

TEST(SquareScanFamily, RejectsBadOptions) {
  const TestCloud cloud = MakeCloud(10, 50);
  SquareScanOptions opts;
  EXPECT_FALSE(SquareScanFamily::Create(cloud.points, opts).ok());  // no centers
  opts.centers = {{5, 5}};
  EXPECT_FALSE(SquareScanFamily::Create(cloud.points, opts).ok());  // no sides
  opts.side_lengths = {0.0};
  EXPECT_FALSE(SquareScanFamily::Create(cloud.points, opts).ok());  // zero side
  opts.side_lengths = {1.0};
  EXPECT_FALSE(SquareScanFamily::Create({}, opts).ok());  // no points
}

TEST(SquareScanFamily, RejectsNonFiniteInputs) {
  // Five points, one of them NaN: before validation the NaN point fell out
  // of every finite square but into an infinite-side one (n = 5 of 5).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<geo::Point> finite = {{1, 1}, {2, 2}, {3, 3}, {4, 4}};
  SquareScanOptions opts;
  opts.centers = {{2, 2}};
  opts.side_lengths = {1.0, 2.0};
  ASSERT_TRUE(SquareScanFamily::Create(finite, opts).ok());

  const auto expect_invalid = [](const std::vector<geo::Point>& points,
                                 const SquareScanOptions& options,
                                 const char* what) {
    const auto family = SquareScanFamily::Create(points, options);
    ASSERT_FALSE(family.ok()) << what;
    EXPECT_EQ(family.status().code(), StatusCode::kInvalidArgument) << what;
  };
  for (const geo::Point bad : {geo::Point{nan, 1}, geo::Point{1, nan},
                               geo::Point{inf, 1}, geo::Point{1, -inf}}) {
    std::vector<geo::Point> points = finite;
    points.push_back(bad);
    expect_invalid(points, opts, "non-finite point");
    SquareScanOptions bad_center = opts;
    bad_center.centers.push_back(bad);
    expect_invalid(finite, bad_center, "non-finite center");
  }
  for (const double side : {inf, nan, -inf}) {
    SquareScanOptions bad_side = opts;
    bad_side.side_lengths.push_back(side);
    expect_invalid(finite, bad_side, "non-finite side");
  }
}

TEST(CellFamilies, RejectNonFinitePoints) {
  // A NaN coordinate fails every containment test, so a NaN point would be
  // counted in no cell; the cell families must reject it, and ±inf, at
  // Create like squares and kNN do.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const TestCloud cloud = MakeCloud(100, 51);
  const geo::Rect extent(0, 0, 10, 10);
  auto partitioning = geo::Partitioning::Regular(extent, 2, 2);
  ASSERT_TRUE(partitioning.ok());
  const auto create_all = [&](const std::vector<geo::Point>& points) {
    return std::vector<Status>{
        GridPartitionFamily::Create(points, 4, 4).status(),
        GridPartitionFamily::CreateWithExtent(points, extent, 4, 4).status(),
        RectangleSweepFamily::Create(points, 4, 4).status(),
        PartitioningCollectionFamily::Create(points, {*partitioning}).status()};
  };
  for (const Status& status : create_all(cloud.points)) {
    ASSERT_TRUE(status.ok()) << status;
  }

  for (const geo::Point bad : {geo::Point{nan, 5}, geo::Point{5, nan},
                               geo::Point{-inf, 5}, geo::Point{5, inf}}) {
    std::vector<geo::Point> points = cloud.points;
    points[42] = bad;
    const std::vector<Status> statuses = create_all(points);
    for (size_t f = 0; f < statuses.size(); ++f) {
      EXPECT_EQ(statuses[f].code(), StatusCode::kInvalidArgument)
          << "family " << f << ": " << statuses[f];
    }
  }
}

TEST(SquareScanFamily, DefaultSideLengthsMatchPaper) {
  const auto sides = SquareScanOptions::DefaultSideLengths();
  ASSERT_EQ(sides.size(), 20u);
  EXPECT_DOUBLE_EQ(sides.front(), 0.1);
  EXPECT_DOUBLE_EQ(sides.back(), 2.0);
  for (size_t i = 1; i < sides.size(); ++i) ASSERT_GT(sides[i], sides[i - 1]);
}

TEST(SquareScanFamily, CountsMatchBruteForce) {
  const TestCloud cloud = MakeCloud(1200, 51);
  SquareScanOptions opts;
  opts.centers = {{3, 7}, {5, 5}, {9, 1}};
  opts.side_lengths = {0.5, 1.5, 4.0};
  auto family = SquareScanFamily::Create(cloud.points, opts);
  ASSERT_TRUE(family.ok());
  EXPECT_EQ((*family)->num_regions(), 9u);
  CheckFamilyAgainstBruteForce(**family, cloud);
}

TEST(SquareScanFamily, RegionIndexingAndGroups) {
  const TestCloud cloud = MakeCloud(100, 52);
  SquareScanOptions opts;
  opts.centers = {{2, 2}, {8, 8}};
  opts.side_lengths = {1.0, 2.0, 3.0};
  auto family = SquareScanFamily::Create(cloud.points, opts);
  ASSERT_TRUE(family.ok());
  EXPECT_EQ((*family)->num_centers(), 2u);
  EXPECT_EQ((*family)->num_sides(), 3u);
  EXPECT_EQ((*family)->CenterOfRegion(0), 0u);
  EXPECT_EQ((*family)->CenterOfRegion(2), 0u);
  EXPECT_EQ((*family)->CenterOfRegion(3), 1u);
  EXPECT_DOUBLE_EQ((*family)->SideOfRegion(4), 2.0);
  // Regions of the same center share an evidence group.
  EXPECT_EQ((*family)->Describe(0).group, (*family)->Describe(2).group);
  EXPECT_NE((*family)->Describe(0).group, (*family)->Describe(3).group);
}

TEST(SquareScanFamily, NestedSidesHaveMonotoneCounts) {
  const TestCloud cloud = MakeCloud(2000, 53);
  SquareScanOptions opts;
  opts.centers = {{3, 7}};
  opts.side_lengths = SquareScanOptions::DefaultSideLengths(0.2, 6.0, 10);
  auto family = SquareScanFamily::Create(cloud.points, opts);
  ASSERT_TRUE(family.ok());
  for (size_t r = 1; r < (*family)->num_regions(); ++r) {
    ASSERT_GE((*family)->PointCount(r), (*family)->PointCount(r - 1));
  }
}

TEST(SquareScanFamily, WithKMeansCentersCoversMassOfPoints) {
  const TestCloud cloud = MakeCloud(3000, 54);
  stats::KMeansOptions km;
  km.k = 10;
  auto clusters = stats::KMeans(cloud.points, km);
  ASSERT_TRUE(clusters.ok());
  SquareScanOptions opts;
  opts.centers = clusters->centers;
  opts.side_lengths = {2.0};
  auto family = SquareScanFamily::Create(cloud.points, opts);
  ASSERT_TRUE(family.ok());
  uint64_t covered_max = 0;
  for (size_t r = 0; r < (*family)->num_regions(); ++r) {
    covered_max = std::max(covered_max, (*family)->PointCount(r));
  }
  EXPECT_GT(covered_max, 100u);  // k-means centers sit in dense areas
}

// Property sweep: all three families agree with brute force on randomized
// clouds of several sizes.
class FamilyAgreementSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(FamilyAgreementSweep, AllFamiliesMatchBruteForce) {
  const TestCloud cloud = MakeCloud(GetParam(), GetParam() * 7 + 1);
  sfa::Rng rng(GetParam());

  auto grid = GridPartitionFamily::Create(cloud.points, 5, 4);
  ASSERT_TRUE(grid.ok());
  CheckFamilyAgainstBruteForce(**grid, cloud);

  auto partitionings =
      geo::MakeRandomPartitionings(geo::Rect(0, 0, 10, 10), 3, 2, 6, &rng);
  ASSERT_TRUE(partitionings.ok());
  auto collection =
      PartitioningCollectionFamily::Create(cloud.points, *partitionings);
  ASSERT_TRUE(collection.ok());
  CheckFamilyAgainstBruteForce(**collection, cloud);

  SquareScanOptions opts;
  opts.centers = {{2, 2}, {5, 8}, {8, 3}};
  opts.side_lengths = {1.0, 3.0};
  auto squares = SquareScanFamily::Create(cloud.points, opts);
  ASSERT_TRUE(squares.ok());
  CheckFamilyAgainstBruteForce(**squares, cloud);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FamilyAgreementSweep,
                         ::testing::Values(1, 10, 100, 700));

// Fingerprint() computes FamilyFingerprint once per object and caches it:
// callers racing on a fresh family (the stream workers and batch preparers
// keying one family) all get the value, and the cache is data-race free
// (rerun under TSan in CI).
TEST(RegionFamily, FingerprintIsComputedOnceForConcurrentCallers) {
  const TestCloud cloud = MakeCloud(2000, 31);
  SquareScanOptions options;
  options.centers = {{3.0, 7.0}, {5.0, 5.0}, {8.0, 2.0}};
  options.side_lengths = SquareScanOptions::DefaultSideLengths(0.5, 4.0, 6);
  auto family = SquareScanFamily::Create(cloud.points, options);
  ASSERT_TRUE(family.ok()) << family.status();
  constexpr size_t kCallers = 64;
  std::vector<uint64_t> fingerprints(kCallers, 0);
  DefaultThreadPool().ParallelFor(kCallers, [&](size_t i) {
    fingerprints[i] = (*family)->Fingerprint();
  });
  const uint64_t expected = FamilyFingerprint(**family);
  for (size_t i = 0; i < kCallers; ++i) {
    EXPECT_EQ(fingerprints[i], expected) << "caller " << i;
  }
}

}  // namespace
}  // namespace sfa::core
