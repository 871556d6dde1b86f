// Tests for the dual-representation Labels used by the Monte Carlo loop.
#include "core/labels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/random.h"
#include "testing_util.h"

namespace sfa::core {
namespace {

TEST(Labels, FromBytesKeepsBothViewsConsistent) {
  const Labels labels = Labels::FromBytes({1, 0, 1, 1, 0, 0, 1});
  EXPECT_EQ(labels.size(), 7u);
  EXPECT_EQ(labels.positive_count(), 4u);
  EXPECT_NEAR(labels.positive_rate(), 4.0 / 7, 1e-12);
  for (size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(labels.bits().Get(i), labels.bytes()[i] != 0) << i;
  }
  EXPECT_EQ(labels.bits().Popcount(), 4u);
}

TEST(Labels, EmptyLabels) {
  const Labels labels = Labels::FromBytes({});
  EXPECT_EQ(labels.size(), 0u);
  EXPECT_EQ(labels.positive_count(), 0u);
  EXPECT_DOUBLE_EQ(labels.positive_rate(), 0.0);
}

TEST(Labels, BernoulliSamplingApproximatesRho) {
  sfa::Rng rng(31);
  const Labels labels = Labels::SampleBernoulli(50000, 0.62, &rng);
  EXPECT_EQ(labels.size(), 50000u);
  EXPECT_NEAR(labels.positive_rate(), 0.62, 0.01);
  EXPECT_EQ(labels.bits().Popcount(), labels.positive_count());
}

TEST(Labels, BernoulliExtremes) {
  sfa::Rng rng(32);
  EXPECT_EQ(Labels::SampleBernoulli(100, 0.0, &rng).positive_count(), 0u);
  EXPECT_EQ(Labels::SampleBernoulli(100, 1.0, &rng).positive_count(), 100u);
}

TEST(Labels, PermutationSamplingHasExactCount) {
  sfa::Rng rng(33);
  for (uint64_t positives : {0ull, 1ull, 250ull, 499ull, 500ull}) {
    const Labels labels = Labels::SamplePermutation(500, positives, &rng);
    ASSERT_EQ(labels.positive_count(), positives);
    ASSERT_EQ(labels.bits().Popcount(), positives);
  }
}

TEST(Labels, PermutationPositionsVaryAcrossDraws) {
  sfa::Rng rng(34);
  const Labels a = Labels::SamplePermutation(200, 100, &rng);
  const Labels b = Labels::SamplePermutation(200, 100, &rng);
  EXPECT_NE(a.bytes(), b.bytes());  // same count, different placement w.h.p.
}

TEST(Labels, PermutationIsUniformish) {
  // Each position should receive the positive label about half the time.
  sfa::Rng rng(35);
  const size_t n = 50;
  std::vector<int> hits(n, 0);
  const int reps = 2000;
  for (int rep = 0; rep < reps; ++rep) {
    const Labels labels = Labels::SamplePermutation(n, n / 2, &rng);
    for (size_t i = 0; i < n; ++i) hits[i] += labels.bytes()[i];
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(hits[i] / static_cast<double>(reps), 0.5, 0.06) << i;
  }
}

TEST(LabelsDeathTest, PermutationRejectsTooManyPositives) {
  sfa::Rng rng(36);
  EXPECT_DEATH(Labels::SamplePermutation(10, 11, &rng), "more positives");
}

TEST(Labels, ResampleBernoulliMatchesFactoryStream) {
  sfa::Rng a(40), b(40);
  Labels pooled;
  for (int round = 0; round < 3; ++round) {
    pooled.ResampleBernoulli(300, 0.35, &a);
    const Labels fresh = Labels::SampleBernoulli(300, 0.35, &b);
    ASSERT_EQ(pooled.bytes(), fresh.bytes()) << round;
    ASSERT_EQ(pooled.positive_count(), fresh.positive_count());
    ASSERT_EQ(pooled.bits(), fresh.bits());
  }
}

TEST(Labels, ResamplePermutationMatchesFactoryStream) {
  sfa::Rng a(41), b(41);
  Labels pooled;
  std::vector<uint32_t> order_scratch;
  for (int round = 0; round < 3; ++round) {
    pooled.ResamplePermutation(200, 80, &a, &order_scratch);
    const Labels fresh = Labels::SamplePermutation(200, 80, &b);
    ASSERT_EQ(pooled.bytes(), fresh.bytes()) << round;
    ASSERT_EQ(pooled.positive_count(), 80u);
    ASSERT_EQ(pooled.bits(), fresh.bits());
  }
}

TEST(Labels, ResampleAcrossSizesDropsStaleState) {
  sfa::Rng rng(42);
  Labels pooled;
  pooled.ResampleBernoulli(500, 0.9, &rng);
  EXPECT_EQ(pooled.bits().size(), 500u);
  pooled.ResampleBernoulli(64, 0.1, &rng);
  EXPECT_EQ(pooled.size(), 64u);
  EXPECT_EQ(pooled.bits().size(), 64u);
  EXPECT_EQ(pooled.bits().Popcount(), pooled.positive_count());
}

TEST(Labels, PositiveIndicesMatchBytes) {
  const Labels labels = Labels::FromBytes({1, 0, 1, 1, 0, 0, 1});
  EXPECT_EQ(labels.positive_indices(), (std::vector<uint32_t>{0, 2, 3, 6}));
  EXPECT_TRUE(Labels::FromBytes({}).positive_indices().empty());
  EXPECT_TRUE(Labels::FromBytes({0, 0, 0}).positive_indices().empty());
}

TEST(Labels, PositiveIndicesRefreshAfterEachResample) {
  sfa::Rng rng(44);
  Labels pooled;
  for (int round = 0; round < 4; ++round) {
    pooled.ResampleBernoulli(211, 0.3, &rng);
    const std::vector<uint32_t>& positives = pooled.positive_indices();
    ASSERT_EQ(positives.size(), pooled.positive_count()) << round;
    // Ascending, and exactly the set bytes.
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < pooled.size(); ++i) {
      if (pooled.bytes()[i]) expected.push_back(i);
    }
    ASSERT_EQ(positives, expected) << round;
  }
  std::vector<uint32_t> scratch;
  for (int round = 0; round < 3; ++round) {
    pooled.ResamplePermutation(150, 60, &rng, &scratch);
    const std::vector<uint32_t>& positives = pooled.positive_indices();
    ASSERT_EQ(positives.size(), 60u) << round;
    for (uint32_t id : positives) ASSERT_EQ(pooled.bytes()[id], 1) << round;
    ASSERT_TRUE(std::is_sorted(positives.begin(), positives.end())) << round;
  }
}

TEST(Labels, BitsAreLazyAndConsistentAfterEachResample) {
  sfa::Rng rng(43);
  Labels pooled;
  for (int round = 0; round < 4; ++round) {
    pooled.ResampleBernoulli(137, 0.5, &rng);
    const spatial::BitVector& bits = pooled.bits();  // built on demand
    ASSERT_EQ(bits.size(), 137u);
    for (size_t i = 0; i < pooled.size(); ++i) {
      ASSERT_EQ(bits.Get(i), pooled.bytes()[i] != 0) << "round " << round;
    }
  }
}

// The fused Bernoulli kernel against the per-point oracle: same bytes, same
// sparse and bit views, same count, and the generator left in the same state.
// One pooled instance runs every case of a size in turn, so stale views from
// the previous world would show.
class BernoulliStreamIdentity : public ::testing::TestWithParam<size_t> {};

TEST_P(BernoulliStreamIdentity, MatchesPerPointOracle) {
  const size_t n = GetParam();
  const double rhos[] = {0.0,
                         1e-300,
                         0x1.0p-53,
                         0.5,
                         0.54,
                         std::nextafter(1.0, 0.0),
                         1.0,
                         std::numeric_limits<double>::quiet_NaN(),
                         0.54};
  Labels pooled;
  for (size_t k = 0; k < std::size(rhos); ++k) {
    const double rho = rhos[k];
    SCOPED_TRACE(::testing::Message() << "n=" << n << " rho=" << rho);
    sfa::Rng kernel(1000 + k), oracle(1000 + k);
    pooled.ResampleBernoulli(n, rho, &kernel);
    const std::vector<uint8_t> bytes =
        testing::ReferenceBernoulliBytes(n, rho, &oracle);
    const std::vector<uint32_t> ids = testing::ReferencePositiveIndices(bytes);
    ASSERT_EQ(pooled.bytes(), bytes);
    ASSERT_EQ(pooled.positive_indices(), ids);
    ASSERT_EQ(pooled.positive_count(), ids.size());
    ASSERT_EQ(pooled.bits().size(), n);
    ASSERT_EQ(pooled.bits().Popcount(), ids.size());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(pooled.bits().Get(i), bytes[i] != 0) << i;
    }
    ASSERT_TRUE(kernel == oracle);

    sfa::Rng fresh(1000 + k);
    const Labels sampled = Labels::SampleBernoulli(n, rho, &fresh);
    ASSERT_EQ(sampled.bytes(), bytes);
    ASSERT_EQ(sampled.positive_indices(), ids);
    ASSERT_TRUE(fresh == oracle);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BernoulliStreamIdentity,
                         ::testing::Values<size_t>(0, 1, 63, 64, 65, 8192));

TEST(Labels, BernoulliDrawCountsArePinned) {
  // rho in (0, 1) and NaN draw once per point; rho <= 0 and rho >= 1 draw
  // nothing.
  const size_t n = 100;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, size_t> cases[] = {
      {-0.5, 0}, {0.0, 0}, {0.3, n}, {1.0, 0}, {1.5, 0}, {nan, n}};
  for (const auto& [rho, draws] : cases) {
    sfa::Rng rng(7), expected(7);
    for (size_t i = 0; i < draws; ++i) expected.Next();
    Labels::SampleBernoulli(n, rho, &rng);
    EXPECT_TRUE(rng == expected) << "rho=" << rho;
  }
  // The extremes clamp; a NaN rho labels every point 0.
  sfa::Rng rng(8);
  EXPECT_EQ(Labels::SampleBernoulli(n, -0.5, &rng).positive_count(), 0u);
  EXPECT_EQ(Labels::SampleBernoulli(n, 1.5, &rng).positive_count(), n);
  EXPECT_EQ(Labels::SampleBernoulli(n, nan, &rng).positive_count(), 0u);
}

TEST(Labels, AssignBytesSparseViewMatchesOracle) {
  sfa::Rng rng(45);
  Labels pooled;
  for (size_t n : {0, 1, 63, 64, 65, 8192, 7}) {
    std::vector<uint8_t> bytes(n);
    for (auto& b : bytes) b = rng.Bernoulli(0.4) ? 1 : 0;
    pooled.AssignBytes(bytes.data(), n);
    ASSERT_EQ(pooled.positive_indices(),
              testing::ReferencePositiveIndices(bytes))
        << n;
    ASSERT_EQ(pooled.positive_count(), pooled.positive_indices().size());
  }
}

TEST(LabelsDeathTest, RejectsNonBinaryBytes) {
  EXPECT_DEATH(Labels::FromBytes({1, 0, 2, 1}), "0/1");
  const uint8_t bytes[] = {0, 1, 1, 255};
  Labels pooled;
  EXPECT_DEATH(pooled.AssignBytes(bytes, 4), "0/1");
}

}  // namespace
}  // namespace sfa::core
