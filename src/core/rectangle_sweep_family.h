// Region family of ALL grid-aligned rectangles of an nx x ny grid —
// nx(nx+1)/2 * ny(ny+1)/2 regions. This is the exhaustive rectangle scan in
// the spirit of Kulldorff's original proposal and of the "all possible
// rectangular partitionings" view in Xie et al.: no scan-center placement
// heuristic can miss a grid-aligned deviation.
//
// Counting strategy: point counts per cell are aggregated into a 2-d prefix
// sum once; per Monte Carlo world, positive counts per cell are accumulated
// in O(N) and folded into a second prefix sum, after which every rectangle's
// (n, p) is two O(1) lookups. A world therefore costs O(N + R) where
// R = number of rectangles — practical up to ~32x32 grids (~280k regions).
//
// Because R grows as O(nx^2 * ny^2), Describe()/PointCount() compute the
// rectangle decomposition from the region index arithmetically instead of
// materializing descriptors.
#ifndef SFA_CORE_RECTANGLE_SWEEP_FAMILY_H_
#define SFA_CORE_RECTANGLE_SWEEP_FAMILY_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/region_family.h"
#include "geo/grid.h"
#include "spatial/grid_index.h"
#include "spatial/prefix_sum_2d.h"

namespace sfa::core {

class RectangleSweepFamily : public RegionFamily {
 public:
  /// Builds the family over `points` with a g_x x g_y base grid covering
  /// their bounding box. Fails when the rectangle count would exceed
  /// `max_regions` (default 1M), since Monte Carlo cost is linear in it.
  static Result<std::unique_ptr<RectangleSweepFamily>> Create(
      const std::vector<geo::Point>& points, uint32_t g_x, uint32_t g_y,
      size_t max_regions = 1u << 20);

  size_t num_regions() const override { return num_regions_; }
  size_t num_points() const override { return index_.num_points(); }
  RegionDescriptor Describe(size_t r) const override;
  uint64_t PointCount(size_t r) const override;
  /// One cell scatter per 8-plane byte group fills every plane's per-cell
  /// counts, then one prefix-sum rebuild + O(1)-per-rectangle fold per plane.
  void CountPlanes(const uint64_t* masks, size_t num_planes, uint32_t* out,
                   size_t out_stride) const override;
  void CountPlaneBytes(const uint8_t* bytes, size_t num_planes, uint32_t* out,
                       size_t out_stride) const override;
  /// Every rectangle aggregates base-grid cells, so per-cell positives
  /// determine all region counts: the base cells form the decomposition and
  /// closed-form Binomial sampling applies.
  const CellDecomposition* cell_decomposition() const override { return &cells_; }
  void CountPositivesFromCells(const uint32_t* cell_positives,
                               uint32_t* out) const override;
  std::string Name() const override;

  const geo::GridSpec& grid() const { return index_.grid(); }

  /// Decomposes a region index into its cell-range rectangle
  /// [x0, x1) x [y0, y1) (exposed for tests).
  struct CellRange {
    uint32_t x0, x1, y0, y1;
  };
  CellRange DecodeRegion(size_t r) const;

 private:
  RectangleSweepFamily(const geo::GridSpec& grid,
                       const std::vector<geo::Point>& points);

  /// CountPlanes on mask words or (at most 8 planes) bytes.
  template <typename Mask>
  void CountMaskPlanes(const Mask* masks, size_t num_planes, uint32_t* out,
                       size_t out_stride) const;

  /// O(1)-per-rectangle fold of a per-cell summed-area table into one row in
  /// the canonical region order.
  void FoldPrefixIntoRegions(const spatial::PrefixSum2D& positive_prefix,
                             uint32_t* out) const;

  spatial::GridIndex index_;
  spatial::PrefixSum2D count_prefix_;  // point counts (fixed)
  CellDecomposition cells_;            // base-grid cells (+ extent misses)
  std::vector<uint64_t> point_counts_;  // n(R) cached in canonical order
  size_t num_regions_ = 0;
  // Numbers of (begin, end) column/row intervals: nx(nx+1)/2 and ny(ny+1)/2.
  size_t x_intervals_ = 0;
  size_t y_intervals_ = 0;
};

}  // namespace sfa::core

#endif  // SFA_CORE_RECTANGLE_SWEEP_FAMILY_H_
