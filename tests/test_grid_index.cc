// Tests for GridIndex (CSR binning) and PrefixSum2D.
#include "spatial/grid_index.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "spatial/prefix_sum_2d.h"

namespace sfa::spatial {
namespace {

geo::GridSpec MakeGrid(uint32_t nx, uint32_t ny) {
  auto g = geo::GridSpec::Create(geo::Rect(0, 0, 10, 10), nx, ny);
  EXPECT_TRUE(g.ok());
  return *g;
}

TEST(GridIndex, BinsPointsIntoCells) {
  const geo::GridSpec grid = MakeGrid(2, 2);
  const std::vector<geo::Point> pts = {{1, 1}, {6, 1}, {1, 6}, {6, 6}, {7, 7}};
  GridIndex index(grid, pts);
  EXPECT_EQ(index.num_points(), 5u);
  EXPECT_EQ(index.num_unassigned(), 0u);
  EXPECT_EQ(index.CellOfPoint(0), 0u);
  EXPECT_EQ(index.CellOfPoint(1), 1u);
  EXPECT_EQ(index.CellOfPoint(2), 2u);
  EXPECT_EQ(index.CellOfPoint(4), 3u);
  const auto counts = index.CountsPerCell();
  EXPECT_EQ(counts, (std::vector<uint32_t>{1, 1, 1, 2}));
}

TEST(GridIndex, PointsInCellReturnsMembers) {
  const geo::GridSpec grid = MakeGrid(2, 2);
  const std::vector<geo::Point> pts = {{1, 1}, {6, 6}, {2, 2}};
  GridIndex index(grid, pts);
  auto cell0 = index.PointsInCell(0);
  std::vector<uint32_t> ids(cell0.begin(), cell0.end());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(index.PointsInCell(1).size(), 0u);
}

TEST(GridIndex, OutsidePointsAreUnassigned) {
  const geo::GridSpec grid = MakeGrid(2, 2);
  const std::vector<geo::Point> pts = {{1, 1}, {20, 20}, {-5, 5}};
  GridIndex index(grid, pts);
  EXPECT_EQ(index.num_unassigned(), 2u);
  EXPECT_EQ(index.CellOfPoint(1), geo::GridSpec::kInvalidCell);
  EXPECT_EQ(index.CountsPerCell()[0], 1u);
}

TEST(PrefixSum2D, SingleCell) {
  PrefixSum2D ps(1, 1, {7});
  EXPECT_EQ(ps.Total(), 7u);
  EXPECT_EQ(ps.SumRange(0, 0, 1, 1), 7u);
  EXPECT_EQ(ps.SumRange(0, 0, 0, 0), 0u);
}

TEST(PrefixSum2D, KnownGrid) {
  // 3x2 grid, row-major values:
  //   row 0: 1 2 3
  //   row 1: 4 5 6
  PrefixSum2D ps(3, 2, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(ps.Total(), 21u);
  EXPECT_EQ(ps.SumRange(0, 0, 3, 1), 6u);   // first row
  EXPECT_EQ(ps.SumRange(0, 1, 3, 2), 15u);  // second row
  EXPECT_EQ(ps.SumRange(1, 0, 2, 2), 7u);   // middle column
  EXPECT_EQ(ps.SumRange(1, 1, 3, 2), 11u);  // 5 + 6
  EXPECT_EQ(ps.SumRange(2, 0, 3, 1), 3u);
}

TEST(PrefixSum2D, EmptyRangesAreZero) {
  PrefixSum2D ps(2, 2, {1, 1, 1, 1});
  EXPECT_EQ(ps.SumRange(1, 1, 1, 1), 0u);
  EXPECT_EQ(ps.SumRange(0, 2, 2, 2), 0u);
}

// Property sweep: random grids, prefix sums match naive block sums for all
// O(n^4) ranges on small grids.
class PrefixSumSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(PrefixSumSweep, MatchesNaiveBlockSums) {
  const auto [nx, ny] = GetParam();
  sfa::Rng rng(nx * 100 + ny);
  std::vector<uint32_t> values(static_cast<size_t>(nx) * ny);
  for (auto& v : values) v = static_cast<uint32_t>(rng.NextUint64(50));
  PrefixSum2D ps(nx, ny, values);
  for (uint32_t x0 = 0; x0 <= nx; ++x0) {
    for (uint32_t x1 = x0; x1 <= nx; ++x1) {
      for (uint32_t y0 = 0; y0 <= ny; ++y0) {
        for (uint32_t y1 = y0; y1 <= ny; ++y1) {
          uint64_t naive = 0;
          for (uint32_t y = y0; y < y1; ++y) {
            for (uint32_t x = x0; x < x1; ++x) {
              naive += values[static_cast<size_t>(y) * nx + x];
            }
          }
          ASSERT_EQ(ps.SumRange(x0, y0, x1, y1), naive)
              << x0 << "," << y0 << " .. " << x1 << "," << y1;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PrefixSumSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 5u, 8u),
                       ::testing::Values(1u, 3u, 6u)));

// Integration: grid index + prefix sums reproduce brute-force block counts
// on a random point cloud (the counting path of grid-aligned audits).
TEST(GridIndexPrefixSum, EndToEndBlockCounts) {
  const geo::GridSpec grid = MakeGrid(16, 16);
  sfa::Rng rng(77);
  std::vector<geo::Point> pts(3000);
  std::vector<uint8_t> labels(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    pts[i] = {rng.Uniform(0, 10), rng.Uniform(0, 10)};
    labels[i] = rng.Bernoulli(0.37) ? 1 : 0;
  }
  GridIndex index(grid, pts);
  std::vector<uint32_t> pos_per_cell(grid.num_cells(), 0);
  for (uint32_t i = 0; i < pts.size(); ++i) {
    pos_per_cell[index.CellOfPoint(i)] += labels[i];
  }
  PrefixSum2D ps(grid.nx(), grid.ny(), pos_per_cell);

  // Check a handful of blocks against brute force.
  for (int trial = 0; trial < 30; ++trial) {
    const auto x0 = static_cast<uint32_t>(rng.NextUint64(16));
    const auto y0 = static_cast<uint32_t>(rng.NextUint64(16));
    const auto x1 = x0 + static_cast<uint32_t>(rng.NextUint64(16 - x0 + 1));
    const auto y1 = y0 + static_cast<uint32_t>(rng.NextUint64(16 - y0 + 1));
    const geo::Rect block(grid.extent().min_x + x0 * grid.cell_width(),
                          grid.extent().min_y + y0 * grid.cell_height(),
                          grid.extent().min_x + x1 * grid.cell_width(),
                          grid.extent().min_y + y1 * grid.cell_height());
    uint64_t naive = 0;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (labels[i] && block.Contains(pts[i])) ++naive;
    }
    ASSERT_EQ(ps.SumRange(x0, y0, x1, y1), naive);
  }
}

}  // namespace
}  // namespace sfa::spatial
