// Region family of axis-aligned squares centered at scan centers, one region
// per (center, side length) pair — the paper's §4.3 unrestricted-regions
// setting: 100 k-means centers x 20 side lengths from 0.1 to 2 degrees =
// 2,000 regions.
//
// Side lengths are sorted ascending at construction, so each center's
// regions form a nested chain (half-open CenteredSquare rects nest with the
// side), and side lengths whose member sets are identical to the next-smaller
// side at EVERY center are collapsed away (duplicate regions; the dedup is
// reported by Name()).
//
// Counting: one KD-tree range report per center over the largest square;
// members are stored once as a center-major CSR of annulus member ids
// (core/annulus_index.h) and worlds are counted by walking each ladder once,
// 8 packed worlds per walk.
#ifndef SFA_CORE_SQUARE_FAMILY_H_
#define SFA_CORE_SQUARE_FAMILY_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/annulus_index.h"
#include "core/region_family.h"
#include "geo/point.h"
#include "spatial/kdtree.h"

namespace sfa::core {

struct SquareScanOptions {
  /// Scan centers. Typically stats::KMeans centers of the observation
  /// locations; any point set works.
  std::vector<geo::Point> centers;
  /// Side lengths in coordinate units (degrees for geographic data). Sorted
  /// ascending at construction; sides capturing duplicate member sets at
  /// every center are collapsed.
  std::vector<double> side_lengths;

  /// The paper's default ladder: `count` side lengths evenly spaced in
  /// [min_side, max_side] (20 lengths from 0.1 to 2.0 degrees).
  static std::vector<double> DefaultSideLengths(double min_side = 0.1,
                                                double max_side = 2.0,
                                                uint32_t count = 20);
};

class SquareScanFamily : public RegionFamily {
 public:
  /// Builds the counting structures for all centers x (deduped) side lengths
  /// over `points`. Region index = center_index * num_sides + side_index with
  /// sides ascending.
  static Result<std::unique_ptr<SquareScanFamily>> Create(
      const std::vector<geo::Point>& points, const SquareScanOptions& options);

  size_t num_regions() const override {
    return centers_.size() * side_lengths_.size();
  }
  size_t num_points() const override { return num_points_; }
  RegionDescriptor Describe(size_t r) const override;
  uint64_t PointCount(size_t r) const override { return point_counts_[r]; }
  /// Up to 64 planes per walk of the annulus CSR.
  static_assert(AnnulusIndex::kMaxPlanes == kMaxPlanes);
  void CountPlanes(const uint64_t* masks, size_t num_planes, uint32_t* out,
                   size_t out_stride) const override {
    annulus_.CountPlanes(masks, num_planes, out, out_stride);
  }
  void CountPlaneBytes(const uint8_t* bytes, size_t num_planes, uint32_t* out,
                       size_t out_stride) const override {
    annulus_.CountPlaneBytes(bytes, num_planes, out, out_stride);
  }
  std::string Name() const override;

  size_t num_centers() const { return centers_.size(); }
  size_t num_sides() const { return side_lengths_.size(); }
  size_t CenterOfRegion(size_t r) const { return r / side_lengths_.size(); }
  double SideOfRegion(size_t r) const {
    return side_lengths_[r % side_lengths_.size()];
  }
  const std::vector<geo::Point>& centers() const { return centers_; }
  /// Surviving side lengths, ascending.
  const std::vector<double>& side_lengths() const { return side_lengths_; }
  /// Heap bytes of the annulus index — compared against the dense size
  /// num_regions() x ceil(N / 64) x 8 bytes of one bit vector per region.
  size_t MembershipBytes() const { return annulus_.MemoryBytes(); }

 private:
  SquareScanFamily(const std::vector<geo::Point>& points,
                   const SquareScanOptions& options);

  std::vector<geo::Point> centers_;
  std::vector<double> side_lengths_;   // post-dedup, ascending
  size_t num_requested_sides_ = 0;     // pre-dedup ladder length
  AnnulusIndex annulus_;
  std::vector<uint64_t> point_counts_;
  size_t num_points_ = 0;
};

}  // namespace sfa::core

#endif  // SFA_CORE_SQUARE_FAMILY_H_
