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

void GridPartitionFamily::CountPositivesBatch(const Labels* const* batch,
                                              size_t num_worlds,
                                              uint64_t* out) const {
  SFA_CHECK(batch != nullptr && out != nullptr);
  const std::vector<uint32_t>& cells = index_.cell_assignments();
  const size_t stride = num_regions();
  std::fill(out, out + num_worlds * stride, 0ULL);
  // The assignment array (the large stream) is read once for the whole
  // batch; per-world count rows stay cache-resident.
  std::vector<const uint8_t*> bytes(num_worlds);
  std::vector<uint64_t*> rows(num_worlds);
  for (size_t b = 0; b < num_worlds; ++b) {
    SFA_CHECK_MSG(batch[b]->size() == num_points(),
                  "labels " << batch[b]->size() << " != points " << num_points());
    bytes[b] = batch[b]->bytes().data();
    rows[b] = out + b * stride;
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    const uint32_t cell = cells[i];
    if (cell == geo::GridSpec::kInvalidCell) continue;
    for (size_t b = 0; b < num_worlds; ++b) {
      rows[b][cell] += bytes[b][i];
    }
  }
}

void GridPartitionFamily::CountClassesBatch(const uint8_t* const* class_worlds,
                                            size_t num_worlds,
                                            uint32_t num_classes,
                                            uint64_t* out) const {
  SFA_CHECK(class_worlds != nullptr && out != nullptr);
  SFA_CHECK_MSG(num_classes >= 2, "CountClassesBatch needs at least 2 classes");
  const std::vector<uint32_t>& cells = index_.cell_assignments();
  const uint32_t counted = num_classes - 1;
  const size_t stride = num_regions();
  std::fill(out, out + ClassCountBufferSize(num_worlds, counted, stride), 0ULL);
  // As in CountPositivesBatch, the assignment stream is read once for the
  // whole batch; each point lands in its class's histogram row (the derived
  // last class is skipped).
  std::vector<uint64_t*> bases(num_worlds);
  for (size_t w = 0; w < num_worlds; ++w) {
    bases[w] = out + ClassCountRowOffset(w, 0, counted, stride);
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    const uint32_t cell = cells[i];
    if (cell == geo::GridSpec::kInvalidCell) continue;
    for (size_t w = 0; w < num_worlds; ++w) {
      const uint8_t k = class_worlds[w][i];
      if (k < counted) ++bases[w][static_cast<size_t>(k) * stride + cell];
    }
  }
}

void GridPartitionFamily::CountPositivesFromCells(const uint32_t* cell_positives,
                                                  uint64_t* out) const {
  const size_t regions = num_regions();
  for (size_t r = 0; r < regions; ++r) out[r] = cell_positives[r];
}

std::string GridPartitionFamily::Name() const {
  return StrFormat("regular grid %ux%u over %zu points", grid().nx(), grid().ny(),
                   num_points());
}

}  // namespace sfa::core
