#include "core/square_family.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace sfa::core {

std::vector<double> SquareScanOptions::DefaultSideLengths(double min_side,
                                                          double max_side,
                                                          uint32_t count) {
  SFA_CHECK(count >= 1);
  std::vector<double> sides(count);
  if (count == 1) {
    sides[0] = min_side;
    return sides;
  }
  for (uint32_t i = 0; i < count; ++i) {
    sides[i] = min_side + (max_side - min_side) * i / (count - 1);
  }
  return sides;
}

SquareScanFamily::SquareScanFamily(const std::vector<geo::Point>& points,
                                   const SquareScanOptions& options)
    : centers_(options.centers),
      side_lengths_(options.side_lengths),
      num_requested_sides_(options.side_lengths.size()),
      num_points_(points.size()) {
  std::sort(side_lengths_.begin(), side_lengths_.end());
  const size_t num_centers = centers_.size();
  const size_t full_ladder = side_lengths_.size();
  const spatial::KdTree tree(points);

  // One range report per center over the LARGEST square covers the whole
  // ladder: each reported point's annulus rank is the smallest side whose
  // square contains it, found by binary search on the actual half-open
  // Rect::Contains predicate (nesting makes it monotone in the side), so
  // ranks agree exactly with per-rung range reports even for points on
  // rect boundaries.
  std::vector<std::vector<AnnulusEntry>> per_center(num_centers);
  DefaultThreadPool().ParallelFor(num_centers, [&](size_t c) {
    const geo::Point& center = centers_[c];
    std::vector<AnnulusEntry>& out = per_center[c];
    tree.VisitRect(
        geo::Rect::CenteredSquare(center, side_lengths_.back()),
        [&](uint32_t id) {
          const geo::Point& p = points[id];
          size_t lo = 0;
          size_t hi = full_ladder - 1;
          while (lo < hi) {
            const size_t mid = lo + (hi - lo) / 2;
            if (geo::Rect::CenteredSquare(center, side_lengths_[mid])
                    .Contains(p)) {
              hi = mid;
            } else {
              lo = mid + 1;
            }
          }
          out.push_back({id, static_cast<uint32_t>(c),
                         static_cast<uint32_t>(lo)});
        });
  });
  std::vector<AnnulusEntry> entries;
  for (std::vector<AnnulusEntry>& chunk : per_center) {
    entries.insert(entries.end(), chunk.begin(), chunk.end());
    chunk.clear();
    chunk.shrink_to_fit();
  }

  // Collapse sides that capture identical member sets to their predecessor at
  // every center (their annulus rank is globally empty).
  const std::vector<uint32_t> kept =
      CollapseEmptyAnnuli(full_ladder, &entries);
  if (kept.size() != full_ladder) {
    std::vector<double> deduped(kept.size());
    for (size_t i = 0; i < kept.size(); ++i) deduped[i] = side_lengths_[kept[i]];
    side_lengths_ = std::move(deduped);
  }
  annulus_ = AnnulusIndex(num_points_, num_centers, side_lengths_.size(),
                          entries);
  point_counts_ = annulus_.region_point_counts();
}

Result<std::unique_ptr<SquareScanFamily>> SquareScanFamily::Create(
    const std::vector<geo::Point>& points, const SquareScanOptions& options) {
  if (points.empty()) {
    return Status::InvalidArgument("square scan family needs points");
  }
  if (options.centers.empty()) {
    return Status::InvalidArgument("square scan family needs centers");
  }
  if (options.side_lengths.empty()) {
    return Status::InvalidArgument("square scan family needs side lengths");
  }
  for (double side : options.side_lengths) {
    if (!(side > 0.0) || !std::isfinite(side)) {
      return Status::InvalidArgument(
          StrFormat("side length %.6f must be positive and finite", side));
    }
  }
  SFA_RETURN_NOT_OK(RequireCountablePoints(points.size()));
  SFA_RETURN_NOT_OK(RequireFinitePoints(points, "point"));
  SFA_RETURN_NOT_OK(RequireFinitePoints(options.centers, "center"));
  return std::unique_ptr<SquareScanFamily>(new SquareScanFamily(points, options));
}

RegionDescriptor SquareScanFamily::Describe(size_t r) const {
  SFA_DCHECK(r < num_regions());
  const size_t center_index = CenterOfRegion(r);
  const double side = SideOfRegion(r);
  RegionDescriptor desc;
  desc.rect = geo::Rect::CenteredSquare(centers_[center_index], side);
  desc.label = StrFormat("square(center %zu at (%.3f, %.3f), side %.2f)",
                         center_index, centers_[center_index].x,
                         centers_[center_index].y, side);
  desc.group = static_cast<uint32_t>(center_index);
  return desc;
}

std::string SquareScanFamily::Name() const {
  std::string dedup =
      num_sides() == num_requested_sides_
          ? ""
          : StrFormat(", deduped from %zu", num_requested_sides_);
  // FamilyFingerprint hashes Name(): dropping the tag re-keys every frame.
  return StrFormat(
      "%zu square regions (%zu centers x %zu side lengths%s) over %zu points "
      "[sparse-annulus]",
      num_regions(), centers_.size(), num_sides(), dedup.c_str(), num_points_);
}

}  // namespace sfa::core
