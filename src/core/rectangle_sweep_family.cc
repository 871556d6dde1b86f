#include "core/rectangle_sweep_family.h"

#include <limits>

#include "common/macros.h"
#include "common/string_util.h"

namespace sfa::core {

namespace {

geo::Rect SnugExtent(const std::vector<geo::Point>& points) {
  geo::Rect box = geo::Rect::BoundingBox(points);
  const double dx = box.width() > 0 ? box.width() * 1e-9 : 1.0;
  const double dy = box.height() > 0 ? box.height() * 1e-9 : 1.0;
  box.max_x += dx;
  box.max_y += dy;
  return box;
}

}  // namespace

RectangleSweepFamily::RectangleSweepFamily(const geo::GridSpec& grid,
                                           const std::vector<geo::Point>& points)
    : index_(grid, points),
      count_prefix_(grid.nx(), grid.ny(), index_.CountsPerCell()) {
  cells_.cell_counts = index_.CountsPerCell();
  cells_.num_outside = index_.num_unassigned();
  const size_t nx = grid.nx();
  const size_t ny = grid.ny();
  x_intervals_ = nx * (nx + 1) / 2;
  y_intervals_ = ny * (ny + 1) / 2;
  num_regions_ = x_intervals_ * y_intervals_;
  // Cache n(R) in the canonical enumeration order so PointCount is O(1) on
  // the scan hot path.
  point_counts_.resize(num_regions_);
  size_t r = 0;
  for (uint32_t y0 = 0; y0 < ny; ++y0) {
    for (uint32_t y1 = y0 + 1; y1 <= ny; ++y1) {
      for (uint32_t x0 = 0; x0 < nx; ++x0) {
        for (uint32_t x1 = x0 + 1; x1 <= nx; ++x1) {
          point_counts_[r++] = count_prefix_.SumRange(x0, y0, x1, y1);
        }
      }
    }
  }
}

Result<std::unique_ptr<RectangleSweepFamily>> RectangleSweepFamily::Create(
    const std::vector<geo::Point>& points, uint32_t g_x, uint32_t g_y,
    size_t max_regions) {
  if (points.empty()) {
    return Status::InvalidArgument("rectangle sweep family needs points");
  }
  SFA_RETURN_NOT_OK(RequireFinitePoints(points, "point"));
  const size_t x_intervals = static_cast<size_t>(g_x) * (g_x + 1) / 2;
  const size_t y_intervals = static_cast<size_t>(g_y) * (g_y + 1) / 2;
  if (g_x == 0 || g_y == 0) {
    return Status::InvalidArgument("rectangle sweep needs >= 1 cell per axis");
  }
  if (x_intervals > max_regions / std::max<size_t>(1, y_intervals)) {
    return Status::InvalidArgument(StrFormat(
        "rectangle sweep over a %ux%u grid yields %zu x %zu regions, above the "
        "budget of %zu — use a coarser grid or raise max_regions",
        g_x, g_y, x_intervals, y_intervals, max_regions));
  }
  SFA_ASSIGN_OR_RETURN(geo::GridSpec grid,
                       geo::GridSpec::Create(SnugExtent(points), g_x, g_y));
  return std::unique_ptr<RectangleSweepFamily>(
      new RectangleSweepFamily(grid, points));
}

RectangleSweepFamily::CellRange RectangleSweepFamily::DecodeRegion(size_t r) const {
  SFA_DCHECK(r < num_regions_);
  const size_t iy = r / x_intervals_;
  const size_t ix = r % x_intervals_;
  // Interval index within one axis enumerates (begin asc, end asc): for
  // begin b on an axis of n cells there are (n - b) intervals.
  auto decode_axis = [](size_t interval, uint32_t n) {
    uint32_t begin = 0;
    size_t remaining = interval;
    while (remaining >= n - begin) {
      remaining -= n - begin;
      ++begin;
    }
    const auto end = static_cast<uint32_t>(begin + remaining + 1);
    return std::pair<uint32_t, uint32_t>(begin, end);
  };
  const auto [x0, x1] = decode_axis(ix, grid().nx());
  const auto [y0, y1] = decode_axis(iy, grid().ny());
  return CellRange{x0, x1, y0, y1};
}

RegionDescriptor RectangleSweepFamily::Describe(size_t r) const {
  const CellRange range = DecodeRegion(r);
  const geo::GridSpec& g = grid();
  RegionDescriptor desc;
  desc.rect = geo::Rect(g.extent().min_x + range.x0 * g.cell_width(),
                        g.extent().min_y + range.y0 * g.cell_height(),
                        g.extent().min_x + range.x1 * g.cell_width(),
                        g.extent().min_y + range.y1 * g.cell_height());
  desc.label = StrFormat("cells [%u,%u) x [%u,%u)", range.x0, range.x1, range.y0,
                         range.y1);
  desc.group = static_cast<uint32_t>(r % std::numeric_limits<uint32_t>::max());
  return desc;
}

uint64_t RectangleSweepFamily::PointCount(size_t r) const {
  SFA_DCHECK(r < num_regions_);
  return point_counts_[r];
}

void RectangleSweepFamily::CountPositives(const Labels& labels,
                                          std::vector<uint64_t>* out) const {
  SFA_CHECK(out != nullptr);
  SFA_CHECK_MSG(labels.size() == num_points(),
                "labels " << labels.size() << " != points " << num_points());
  // One O(N) pass for per-cell positives, then a prefix sum, then O(1) per
  // rectangle. The cell buffer and summed-area table are thread-local pools:
  // after each worker thread's first world, recounting allocates nothing.
  static thread_local std::vector<uint32_t> positives_per_cell;
  static thread_local spatial::PrefixSum2D positive_prefix;
  positives_per_cell.resize(grid().num_cells());
  index_.AccumulateLabelCounts(labels.bytes(), &positives_per_cell);
  positive_prefix.Rebuild(grid().nx(), grid().ny(), positives_per_cell.data());
  out->resize(num_regions_);
  FoldPrefixIntoRegions(positive_prefix, out->data());
}

void RectangleSweepFamily::CountClassesBatch(const uint8_t* const* class_worlds,
                                             size_t num_worlds,
                                             uint32_t num_classes,
                                             uint64_t* out) const {
  SFA_CHECK(class_worlds != nullptr && out != nullptr);
  SFA_CHECK_MSG(num_classes >= 2, "CountClassesBatch needs at least 2 classes");
  const uint32_t counted = num_classes - 1;
  const size_t num_cells = grid().num_cells();
  const std::vector<uint32_t>& cells = index_.cell_assignments();
  // One O(N) pass per world fills ALL K−1 per-cell class histograms, then one
  // summed-area rebuild + rectangle fold per class — the per-class point
  // passes of the indicator construction collapse into a single scatter.
  static thread_local std::vector<uint32_t> class_cells;
  static thread_local spatial::PrefixSum2D class_prefix;
  for (size_t w = 0; w < num_worlds; ++w) {
    class_cells.assign(static_cast<size_t>(counted) * num_cells, 0u);
    const uint8_t* classes = class_worlds[w];
    for (size_t i = 0; i < cells.size(); ++i) {
      const uint8_t k = classes[i];
      if (k >= counted) continue;
      const uint32_t cell = cells[i];
      if (cell == geo::GridSpec::kInvalidCell) continue;
      ++class_cells[static_cast<size_t>(k) * num_cells + cell];
    }
    for (uint32_t k = 0; k < counted; ++k) {
      class_prefix.Rebuild(grid().nx(), grid().ny(),
                           class_cells.data() + static_cast<size_t>(k) * num_cells);
      FoldPrefixIntoRegions(class_prefix,
                            out + ClassCountRowOffset(w, k, counted, num_regions_));
    }
  }
}

void RectangleSweepFamily::CountPositivesFromCells(const uint32_t* cell_positives,
                                                   uint64_t* out) const {
  static thread_local spatial::PrefixSum2D positive_prefix;
  positive_prefix.Rebuild(grid().nx(), grid().ny(), cell_positives);
  FoldPrefixIntoRegions(positive_prefix, out);
}

void RectangleSweepFamily::FoldPrefixIntoRegions(
    const spatial::PrefixSum2D& positive_prefix, uint64_t* out) const {
  // Enumerated in the same canonical order DecodeRegion uses.
  const uint32_t nx = grid().nx();
  const uint32_t ny = grid().ny();
  size_t r = 0;
  for (uint32_t y0 = 0; y0 < ny; ++y0) {
    for (uint32_t y1 = y0 + 1; y1 <= ny; ++y1) {
      for (uint32_t x0 = 0; x0 < nx; ++x0) {
        for (uint32_t x1 = x0 + 1; x1 <= nx; ++x1) {
          out[r++] = positive_prefix.SumRange(x0, y0, x1, y1);
        }
      }
    }
  }
  SFA_DCHECK(r == num_regions_);
}

std::string RectangleSweepFamily::Name() const {
  return StrFormat("all %zu grid-aligned rectangles of a %ux%u grid over %zu points",
                   num_regions_, grid().nx(), grid().ny(), num_points());
}

}  // namespace sfa::core
