// Region family over a *collection* of rectangular partitionings: the union
// of all partitions of all partitionings, with per-point partition ids
// memoized per partitioning. This is the family used in the paper's §4.2
// "Is it fair?" experiment, where the audit is restricted to the same 100
// random partitionings the MeanVar baseline evaluates.
#ifndef SFA_CORE_PARTITIONING_FAMILY_H_
#define SFA_CORE_PARTITIONING_FAMILY_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/region_family.h"
#include "geo/partitioning.h"
#include "geo/point.h"

namespace sfa::core {

class PartitioningCollectionFamily : public RegionFamily {
 public:
  /// Binds `partitionings` to `points`. Region indices are the concatenation
  /// of each partitioning's partitions, in order.
  static Result<std::unique_ptr<PartitioningCollectionFamily>> Create(
      const std::vector<geo::Point>& points,
      std::vector<geo::Partitioning> partitionings);

  size_t num_regions() const override { return total_regions_; }
  size_t num_points() const override { return num_points_; }
  RegionDescriptor Describe(size_t r) const override;
  uint64_t PointCount(size_t r) const override { return point_counts_[r]; }
  void CountPositives(const Labels& labels,
                      std::vector<uint64_t>* out) const override;
  /// One cell scatter per partitioning and 8-plane byte group.
  void CountPlanes(const uint64_t* masks, size_t num_planes, uint32_t* out,
                   size_t out_stride) const override;
  void CountPlaneBytes(const uint8_t* bytes, size_t num_planes, uint32_t* out,
                       size_t out_stride) const override;
  /// Non-null only for a single partitioning: its partitions then tile the
  /// points and closed-form Binomial sampling applies. With several
  /// partitionings the same point feeds regions of every partitioning, so
  /// per-region counts are jointly coupled through point-level labels and no
  /// disjoint decomposition exists. The single partitioning's regions are
  /// its cells (cells_are_regions).
  const CellDecomposition* cell_decomposition() const override {
    return single_partitioning_cells_.cell_counts.empty()
               ? nullptr
               : &single_partitioning_cells_;
  }
  std::string Name() const override;

  size_t num_partitionings() const { return partitionings_.size(); }
  const geo::Partitioning& partitioning(size_t t) const { return partitionings_[t]; }

  /// (partitioning index, partition id within it) of region `r`.
  std::pair<size_t, uint32_t> Locate(size_t r) const;

  /// First region index of partitioning `t`.
  size_t RegionOffset(size_t t) const { return offsets_[t]; }

 private:
  PartitioningCollectionFamily(const std::vector<geo::Point>& points,
                               std::vector<geo::Partitioning> partitionings);

  /// CountPlanes on mask words or (at most 8 planes) bytes.
  template <typename Mask>
  void CountMaskPlanes(const Mask* masks, size_t num_planes, uint32_t* out,
                       size_t out_stride) const;

  std::vector<geo::Partitioning> partitionings_;
  // assignment_[t][i]: partition id of point i in partitioning t.
  std::vector<std::vector<uint32_t>> assignment_;
  std::vector<size_t> offsets_;  // prefix sums of partitions per partitioning
  std::vector<uint64_t> point_counts_;
  CellDecomposition single_partitioning_cells_;  // populated iff T == 1
  size_t total_regions_ = 0;
  size_t num_points_ = 0;
};

}  // namespace sfa::core

#endif  // SFA_CORE_PARTITIONING_FAMILY_H_
