#include "core/grid_family.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"
#include "common/string_util.h"

namespace sfa::core {

namespace {

geo::Rect SnugExtent(const std::vector<geo::Point>& points) {
  geo::Rect box = geo::Rect::BoundingBox(points);
  // Nudge the max edges outward so points on them fall inside half-open
  // cells; degenerate axes get a unit of slack.
  const double dx = box.width() > 0 ? box.width() * 1e-9 : 1.0;
  const double dy = box.height() > 0 ? box.height() * 1e-9 : 1.0;
  box.max_x += dx;
  box.max_y += dy;
  return box;
}

}  // namespace

GridPartitionFamily::GridPartitionFamily(const geo::GridSpec& grid,
                                         const std::vector<geo::Point>& points)
    : index_(grid, points) {
  cells_.cell_counts = index_.CountsPerCell();
  cells_.num_outside = index_.num_unassigned();
  cells_.cells_are_regions = true;
}

Result<std::unique_ptr<GridPartitionFamily>> GridPartitionFamily::Create(
    const std::vector<geo::Point>& points, uint32_t g_x, uint32_t g_y) {
  if (points.empty()) {
    return Status::InvalidArgument("grid family needs at least one point");
  }
  return CreateWithExtent(points, SnugExtent(points), g_x, g_y);
}

Result<std::unique_ptr<GridPartitionFamily>> GridPartitionFamily::CreateWithExtent(
    const std::vector<geo::Point>& points, const geo::Rect& extent, uint32_t g_x,
    uint32_t g_y) {
  SFA_RETURN_NOT_OK(RequireCountablePoints(points.size()));
  SFA_RETURN_NOT_OK(RequireFinitePoints(points, "point"));
  SFA_ASSIGN_OR_RETURN(geo::GridSpec grid, geo::GridSpec::Create(extent, g_x, g_y));
  return std::unique_ptr<GridPartitionFamily>(
      new GridPartitionFamily(grid, points));
}

RegionDescriptor GridPartitionFamily::Describe(size_t r) const {
  SFA_DCHECK(r < num_regions());
  RegionDescriptor desc;
  desc.rect = grid().CellRectById(static_cast<uint32_t>(r));
  desc.label = StrFormat("cell(%u,%u)", static_cast<uint32_t>(r) % grid().nx(),
                         static_cast<uint32_t>(r) / grid().nx());
  desc.group = static_cast<uint32_t>(r);
  return desc;
}

void GridPartitionFamily::CountPositives(const Labels& labels,
                                         std::vector<uint64_t>* out) const {
  SFA_CHECK(out != nullptr);
  SFA_CHECK_MSG(labels.size() == num_points(),
                "labels " << labels.size() << " != points " << num_points());
  out->assign(num_regions(), 0);
  const std::vector<uint32_t>& cells = index_.cell_assignments();
  const std::vector<uint8_t>& bytes = labels.bytes();
  for (size_t i = 0; i < cells.size(); ++i) {
    const uint32_t cell = cells[i];
    if (cell != geo::GridSpec::kInvalidCell && bytes[i]) ++(*out)[cell];
  }
}

template <typename Mask>
void GridPartitionFamily::CountMaskPlanes(const Mask* masks, size_t num_planes,
                                          uint32_t* out,
                                          size_t out_stride) const {
  SFA_CHECK((masks != nullptr || num_points() == 0) && out != nullptr);
  SFA_CHECK(out_stride >= num_regions());
  // Regions are the cells; points outside the extent (kInvalidCell) count
  // nowhere.
  const std::vector<uint32_t>& cells = index_.cell_assignments();
  internal::CountCellPlanes(cells.data(), cells.size(), num_regions(), masks,
                            num_planes, out, out_stride);
}

void GridPartitionFamily::CountPlanes(const uint64_t* masks, size_t num_planes,
                                      uint32_t* out, size_t out_stride) const {
  CountMaskPlanes(masks, num_planes, out, out_stride);
}

void GridPartitionFamily::CountPlaneBytes(const uint8_t* bytes,
                                          size_t num_planes, uint32_t* out,
                                          size_t out_stride) const {
  CountMaskPlanes(bytes, num_planes, out, out_stride);
}

std::string GridPartitionFamily::Name() const {
  return StrFormat("regular grid %ux%u over %zu points", grid().nx(), grid().ny(),
                   num_points());
}

}  // namespace sfa::core
