// Tests for the scan pass: per-region LLRs, the max statistic, and their
// agreement with the stats-layer std::log oracle.
#include "core/scan.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/grid_family.h"

namespace sfa::core {
namespace {

struct ScanWorld {
  std::vector<geo::Point> points;
  std::vector<uint8_t> labels;
  std::unique_ptr<GridPartitionFamily> family;
};

// A 2x1 world: left cell biased positive, right cell biased negative.
ScanWorld BiasedHalves(size_t per_side, double left_rate, double right_rate,
                   uint64_t seed) {
  sfa::Rng rng(seed);
  ScanWorld s;
  for (size_t i = 0; i < per_side; ++i) {
    s.points.push_back({rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)});
    s.labels.push_back(rng.Bernoulli(left_rate) ? 1 : 0);
  }
  for (size_t i = 0; i < per_side; ++i) {
    s.points.push_back({rng.Uniform(1.0, 2.0), rng.Uniform(0.0, 1.0)});
    s.labels.push_back(rng.Bernoulli(right_rate) ? 1 : 0);
  }
  auto family =
      GridPartitionFamily::CreateWithExtent(s.points, geo::Rect(0, 0, 2, 1), 2, 1);
  EXPECT_TRUE(family.ok());
  s.family = std::move(*family);
  return s;
}

TEST(ScanAllRegions, FindsThePlantedRegion) {
  ScanWorld s = BiasedHalves(2000, 0.8, 0.2, 61);
  const Labels labels = Labels::FromBytes(s.labels);
  const ScanResult result =
      ScanAllRegions(*s.family, labels, stats::ScanDirection::kTwoSided);
  ASSERT_EQ(result.llr.size(), 2u);
  EXPECT_GT(result.max_llr, 100.0);  // enormous planted effect
  EXPECT_EQ(result.total_n, 4000u);
  // Both cells deviate symmetrically; the max is one of them and both LLRs
  // are close (complementary regions have identical LLRs in a 2-cell world).
  EXPECT_NEAR(result.llr[0], result.llr[1], 1e-9);
}

TEST(ScanAllRegions, ComplementaryRegionsHaveEqualLlr) {
  // In a 2-partition family, R and its complement split the data identically,
  // so the two-sided LLR must be symmetric.
  ScanWorld s = BiasedHalves(500, 0.9, 0.5, 62);
  const Labels labels = Labels::FromBytes(s.labels);
  const ScanResult result =
      ScanAllRegions(*s.family, labels, stats::ScanDirection::kTwoSided);
  EXPECT_NEAR(result.llr[0], result.llr[1], 1e-9);
}

TEST(ScanAllRegions, FairWorldHasSmallStatistic) {
  ScanWorld s = BiasedHalves(2000, 0.5, 0.5, 63);
  const Labels labels = Labels::FromBytes(s.labels);
  const ScanResult result =
      ScanAllRegions(*s.family, labels, stats::ScanDirection::kTwoSided);
  // Two balanced halves of 2000: chance fluctuations yield small LLR values.
  EXPECT_LT(result.max_llr, 8.0);
}

TEST(ScanAllRegions, PositivesAreReported) {
  ScanWorld s = BiasedHalves(100, 1.0, 0.0, 64);
  const Labels labels = Labels::FromBytes(s.labels);
  const ScanResult result =
      ScanAllRegions(*s.family, labels, stats::ScanDirection::kTwoSided);
  EXPECT_EQ(result.positives[0] + result.positives[1], result.total_p);
  EXPECT_EQ(result.total_p, 100u);
}

TEST(ScanAllRegions, AgreesWithStdLogOracle) {
  // The table arithmetic reassociates the log terms of the direct std::log
  // evaluation, so agreement is to rounding, not bitwise.
  ScanWorld s = BiasedHalves(1000, 0.7, 0.4, 65);
  const Labels labels = Labels::FromBytes(s.labels);
  for (auto direction :
       {stats::ScanDirection::kTwoSided, stats::ScanDirection::kHigh,
        stats::ScanDirection::kLow}) {
    const ScanResult full = ScanAllRegions(*s.family, labels, direction);
    for (size_t r = 0; r < full.llr.size(); ++r) {
      stats::ScanCounts counts;
      counts.n = s.family->PointCount(r);
      counts.p = full.positives[r];
      counts.total_n = full.total_n;
      counts.total_p = full.total_p;
      const double oracle =
          stats::BernoulliLogLikelihoodRatio(counts, direction);
      EXPECT_NEAR(full.llr[r], oracle, 1e-9 * (1.0 + std::fabs(oracle)));
    }
  }
}

TEST(ScanAllRegions, DirectionalScansSplitTheSignal) {
  ScanWorld s = BiasedHalves(1500, 0.8, 0.3, 66);
  const Labels labels = Labels::FromBytes(s.labels);
  const ScanResult high =
      ScanAllRegions(*s.family, labels, stats::ScanDirection::kHigh);
  const ScanResult low =
      ScanAllRegions(*s.family, labels, stats::ScanDirection::kLow);
  // The left (rich) cell is the high signal, the right (poor) cell the low
  // signal. Each directional scan must pick its own side.
  EXPECT_EQ(high.argmax, 0u);
  EXPECT_EQ(low.argmax, 1u);
  EXPECT_GT(high.max_llr, 0.0);
  EXPECT_GT(low.max_llr, 0.0);
}

TEST(ScanAllRegions, AllSameLabelGivesZeroStatistic) {
  ScanWorld s = BiasedHalves(100, 1.0, 1.0, 67);
  const Labels labels = Labels::FromBytes(s.labels);
  const ScanResult result =
      ScanAllRegions(*s.family, labels, stats::ScanDirection::kTwoSided);
  EXPECT_DOUBLE_EQ(result.max_llr, 0.0);
}

TEST(ScanAllRegions, EmptyRegionsScoreZero) {
  // 4x1 grid where only 2 cells hold points.
  std::vector<geo::Point> pts = {{0.1, 0.5}, {3.9, 0.5}};
  auto family =
      GridPartitionFamily::CreateWithExtent(pts, geo::Rect(0, 0, 4, 1), 4, 1);
  ASSERT_TRUE(family.ok());
  const Labels labels = Labels::FromBytes({1, 0});
  const ScanResult result =
      ScanAllRegions(**family, labels, stats::ScanDirection::kTwoSided);
  EXPECT_DOUBLE_EQ(result.llr[1], 0.0);
  EXPECT_DOUBLE_EQ(result.llr[2], 0.0);
}

}  // namespace
}  // namespace sfa::core
