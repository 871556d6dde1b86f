// Uniform grid index: bins point ids by grid cell for O(1) cell lookups and
// per-cell point counts. The grid-aligned region families count label
// planes over its cell_assignments() (internal::CountCellPlanes in
// core/region_family.h) and aggregate cells, via PrefixSum2D for the
// rectangle sweep.
#ifndef SFA_SPATIAL_GRID_INDEX_H_
#define SFA_SPATIAL_GRID_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geo/grid.h"
#include "geo/point.h"

namespace sfa::spatial {

class GridIndex {
 public:
  /// Bins `points` into the cells of `grid`. Points outside the grid extent
  /// are recorded as unassigned and excluded from all aggregates.
  GridIndex(const geo::GridSpec& grid, const std::vector<geo::Point>& points);

  const geo::GridSpec& grid() const { return grid_; }
  size_t num_points() const { return cell_of_point_.size(); }
  size_t num_unassigned() const { return num_unassigned_; }

  /// Cell id of point `i`, or GridSpec::kInvalidCell when outside the extent.
  uint32_t CellOfPoint(uint32_t i) const { return cell_of_point_[i]; }

  /// All cell assignments (parallel to the input point vector).
  const std::vector<uint32_t>& cell_assignments() const { return cell_of_point_; }

  /// Point ids in cell `cell_id` (view into internal CSR storage).
  std::span<const uint32_t> PointsInCell(uint32_t cell_id) const;

  /// Number of points per cell (length num_cells()).
  std::vector<uint32_t> CountsPerCell() const;

 private:
  geo::GridSpec grid_;
  std::vector<uint32_t> cell_of_point_;
  std::vector<uint32_t> cell_start_;  // CSR offsets into ids_by_cell_
  std::vector<uint32_t> ids_by_cell_;
  size_t num_unassigned_ = 0;
};

}  // namespace sfa::spatial

#endif  // SFA_SPATIAL_GRID_INDEX_H_
