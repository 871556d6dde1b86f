// Region family whose regions are the cells of one regular grid — the
// setting of the paper's Figures 3 (100x50), 4 (20x20), and 9 (25x12).
#ifndef SFA_CORE_GRID_FAMILY_H_
#define SFA_CORE_GRID_FAMILY_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/region_family.h"
#include "geo/grid.h"
#include "geo/point.h"
#include "spatial/grid_index.h"

namespace sfa::core {

class GridPartitionFamily : public RegionFamily {
 public:
  /// Builds the family over `points` with a g_x x g_y grid covering their
  /// bounding box (expanded by a hair so max-edge points stay inside).
  static Result<std::unique_ptr<GridPartitionFamily>> Create(
      const std::vector<geo::Point>& points, uint32_t g_x, uint32_t g_y);

  /// Same, over an explicit extent.
  static Result<std::unique_ptr<GridPartitionFamily>> CreateWithExtent(
      const std::vector<geo::Point>& points, const geo::Rect& extent, uint32_t g_x,
      uint32_t g_y);

  size_t num_regions() const override { return index_.grid().num_cells(); }
  size_t num_points() const override { return index_.num_points(); }
  RegionDescriptor Describe(size_t r) const override;
  uint64_t PointCount(size_t r) const override {
    return cells_.cell_counts[r];
  }
  void CountPositives(const Labels& labels,
                      std::vector<uint64_t>* out) const override;
  /// One cell scatter over the point assignments per 8-plane byte group.
  void CountPlanes(const uint64_t* masks, size_t num_planes, uint32_t* out,
                   size_t out_stride) const override;
  void CountPlaneBytes(const uint8_t* bytes, size_t num_planes, uint32_t* out,
                       size_t out_stride) const override;
  /// Regions ARE the cells (cells_are_regions): the decomposition is exact,
  /// enabling closed-form Binomial null sampling in O(cells) per world, and
  /// a world's cell row is its region row.
  const CellDecomposition* cell_decomposition() const override { return &cells_; }
  std::string Name() const override;

  const geo::GridSpec& grid() const { return index_.grid(); }
  const spatial::GridIndex& index() const { return index_; }

 private:
  GridPartitionFamily(const geo::GridSpec& grid,
                      const std::vector<geo::Point>& points);

  /// CountPlanes on mask words or (at most 8 planes) bytes.
  template <typename Mask>
  void CountMaskPlanes(const Mask* masks, size_t num_planes, uint32_t* out,
                       size_t out_stride) const;

  spatial::GridIndex index_;
  CellDecomposition cells_;
};

}  // namespace sfa::core

#endif  // SFA_CORE_GRID_FAMILY_H_
