#include "core/partitioning_family.h"

#include <algorithm>

#include "common/macros.h"
#include "common/string_util.h"

namespace sfa::core {

PartitioningCollectionFamily::PartitioningCollectionFamily(
    const std::vector<geo::Point>& points,
    std::vector<geo::Partitioning> partitionings)
    : partitionings_(std::move(partitionings)), num_points_(points.size()) {
  const size_t t_count = partitionings_.size();
  assignment_.resize(t_count);
  offsets_.resize(t_count + 1, 0);
  for (size_t t = 0; t < t_count; ++t) {
    assignment_[t] = partitionings_[t].AssignPartitions(points);
    offsets_[t + 1] = offsets_[t] + partitionings_[t].num_partitions();
  }
  total_regions_ = offsets_[t_count];
  point_counts_.assign(total_regions_, 0);
  for (size_t t = 0; t < t_count; ++t) {
    for (uint32_t partition : assignment_[t]) {
      ++point_counts_[offsets_[t] + partition];
    }
  }
  if (t_count == 1) {
    // A lone partitioning tiles the point set (PartitionOf clamps every point
    // into a partition), so the regions themselves form a cell decomposition.
    single_partitioning_cells_.cell_counts.assign(point_counts_.begin(),
                                                  point_counts_.end());
    single_partitioning_cells_.num_outside = 0;
    single_partitioning_cells_.cells_are_regions = true;
  }
}

Result<std::unique_ptr<PartitioningCollectionFamily>>
PartitioningCollectionFamily::Create(const std::vector<geo::Point>& points,
                                     std::vector<geo::Partitioning> partitionings) {
  if (points.empty()) {
    return Status::InvalidArgument("partitioning family needs points");
  }
  SFA_RETURN_NOT_OK(RequireCountablePoints(points.size()));
  SFA_RETURN_NOT_OK(RequireFinitePoints(points, "point"));
  if (partitionings.empty()) {
    return Status::InvalidArgument("partitioning family needs >= 1 partitioning");
  }
  return std::unique_ptr<PartitioningCollectionFamily>(
      new PartitioningCollectionFamily(points, std::move(partitionings)));
}

std::pair<size_t, uint32_t> PartitioningCollectionFamily::Locate(size_t r) const {
  SFA_DCHECK(r < total_regions_);
  const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), r);
  const size_t t = static_cast<size_t>(it - offsets_.begin()) - 1;
  return {t, static_cast<uint32_t>(r - offsets_[t])};
}

RegionDescriptor PartitioningCollectionFamily::Describe(size_t r) const {
  const auto [t, partition] = Locate(r);
  RegionDescriptor desc;
  desc.rect = partitionings_[t].PartitionRectById(partition);
  desc.label = StrFormat("partitioning %zu, partition %u", t, partition);
  desc.group = static_cast<uint32_t>(r);
  return desc;
}

void PartitioningCollectionFamily::CountPositives(const Labels& labels,
                                                  std::vector<uint64_t>* out) const {
  SFA_CHECK(out != nullptr);
  SFA_CHECK_MSG(labels.size() == num_points_,
                "labels " << labels.size() << " != points " << num_points_);
  out->assign(total_regions_, 0);
  const std::vector<uint8_t>& bytes = labels.bytes();
  for (size_t t = 0; t < partitionings_.size(); ++t) {
    const std::vector<uint32_t>& assignment = assignment_[t];
    uint64_t* counts = out->data() + offsets_[t];
    for (size_t i = 0; i < assignment.size(); ++i) {
      counts[assignment[i]] += bytes[i];
    }
  }
}

template <typename Mask>
void PartitioningCollectionFamily::CountMaskPlanes(const Mask* masks,
                                                   size_t num_planes,
                                                   uint32_t* out,
                                                   size_t out_stride) const {
  SFA_CHECK((masks != nullptr || num_points() == 0) && out != nullptr);
  SFA_CHECK(out_stride >= total_regions_);
  // Partitioning t's partitions are its cells, at region offset offsets_[t].
  for (size_t t = 0; t < partitionings_.size(); ++t) {
    internal::CountCellPlanes(assignment_[t].data(), num_points_,
                              offsets_[t + 1] - offsets_[t], masks, num_planes,
                              out + offsets_[t], out_stride);
  }
}

void PartitioningCollectionFamily::CountPlanes(const uint64_t* masks,
                                               size_t num_planes,
                                               uint32_t* out,
                                               size_t out_stride) const {
  CountMaskPlanes(masks, num_planes, out, out_stride);
}

void PartitioningCollectionFamily::CountPlaneBytes(const uint8_t* bytes,
                                                   size_t num_planes,
                                                   uint32_t* out,
                                                   size_t out_stride) const {
  CountMaskPlanes(bytes, num_planes, out, out_stride);
}

std::string PartitioningCollectionFamily::Name() const {
  return StrFormat("%zu partitionings (%zu partitions total) over %zu points",
                   partitionings_.size(), total_regions_, num_points_);
}

}  // namespace sfa::core
