#include "spatial/grid_index.h"

#include "common/macros.h"

namespace sfa::spatial {

GridIndex::GridIndex(const geo::GridSpec& grid, const std::vector<geo::Point>& points)
    : grid_(grid), cell_of_point_(grid.AssignCells(points)) {
  const uint32_t num_cells = grid_.num_cells();
  std::vector<uint32_t> counts(num_cells, 0);
  for (uint32_t cell : cell_of_point_) {
    if (cell == geo::GridSpec::kInvalidCell) {
      ++num_unassigned_;
    } else {
      ++counts[cell];
    }
  }
  cell_start_.assign(num_cells + 1, 0);
  for (uint32_t c = 0; c < num_cells; ++c) {
    cell_start_[c + 1] = cell_start_[c] + counts[c];
  }
  ids_by_cell_.resize(cell_of_point_.size() - num_unassigned_);
  std::vector<uint32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (uint32_t i = 0; i < cell_of_point_.size(); ++i) {
    const uint32_t cell = cell_of_point_[i];
    if (cell != geo::GridSpec::kInvalidCell) {
      ids_by_cell_[cursor[cell]++] = i;
    }
  }
}

std::span<const uint32_t> GridIndex::PointsInCell(uint32_t cell_id) const {
  SFA_DCHECK(cell_id < grid_.num_cells());
  return {ids_by_cell_.data() + cell_start_[cell_id],
          ids_by_cell_.data() + cell_start_[cell_id + 1]};
}

std::vector<uint32_t> GridIndex::CountsPerCell() const {
  const uint32_t num_cells = grid_.num_cells();
  std::vector<uint32_t> counts(num_cells);
  for (uint32_t c = 0; c < num_cells; ++c) {
    counts[c] = cell_start_[c + 1] - cell_start_[c];
  }
  return counts;
}

}  // namespace sfa::spatial
