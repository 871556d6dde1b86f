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
  }
}

Result<std::unique_ptr<PartitioningCollectionFamily>>
PartitioningCollectionFamily::Create(const std::vector<geo::Point>& points,
                                     std::vector<geo::Partitioning> partitionings) {
  if (points.empty()) {
    return Status::InvalidArgument("partitioning family needs points");
  }
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

void PartitioningCollectionFamily::CountPositivesBatch(const Labels* const* batch,
                                                       size_t num_worlds,
                                                       uint64_t* out) const {
  SFA_CHECK(batch != nullptr && out != nullptr);
  const size_t stride = total_regions_;
  std::fill(out, out + num_worlds * stride, 0ULL);
  std::vector<const uint8_t*> bytes(num_worlds);
  for (size_t b = 0; b < num_worlds; ++b) {
    SFA_CHECK_MSG(batch[b]->size() == num_points_,
                  "labels " << batch[b]->size() << " != points " << num_points_);
    bytes[b] = batch[b]->bytes().data();
  }
  std::vector<uint64_t*> rows(num_worlds);
  for (size_t t = 0; t < partitionings_.size(); ++t) {
    const std::vector<uint32_t>& assignment = assignment_[t];
    for (size_t b = 0; b < num_worlds; ++b) {
      rows[b] = out + b * stride + offsets_[t];
    }
    for (size_t i = 0; i < assignment.size(); ++i) {
      const uint32_t partition = assignment[i];
      for (size_t b = 0; b < num_worlds; ++b) {
        rows[b][partition] += bytes[b][i];
      }
    }
  }
}

void PartitioningCollectionFamily::CountClassesBatch(
    const uint8_t* const* class_worlds, size_t num_worlds, uint32_t num_classes,
    uint64_t* out) const {
  SFA_CHECK(class_worlds != nullptr && out != nullptr);
  SFA_CHECK_MSG(num_classes >= 2, "CountClassesBatch needs at least 2 classes");
  const uint32_t counted = num_classes - 1;
  const size_t stride = total_regions_;
  std::fill(out, out + ClassCountBufferSize(num_worlds, counted, stride), 0ULL);
  std::vector<uint64_t*> bases(num_worlds);
  for (size_t t = 0; t < partitionings_.size(); ++t) {
    const std::vector<uint32_t>& assignment = assignment_[t];
    for (size_t w = 0; w < num_worlds; ++w) {
      bases[w] = out + ClassCountRowOffset(w, 0, counted, stride) + offsets_[t];
    }
    for (size_t i = 0; i < assignment.size(); ++i) {
      const uint32_t partition = assignment[i];
      for (size_t w = 0; w < num_worlds; ++w) {
        const uint8_t k = class_worlds[w][i];
        if (k < counted) {
          ++bases[w][static_cast<size_t>(k) * stride + partition];
        }
      }
    }
  }
}

void PartitioningCollectionFamily::CountPositivesFromCells(
    const uint32_t* cell_positives, uint64_t* out) const {
  SFA_DCHECK(partitionings_.size() == 1);
  for (size_t r = 0; r < total_regions_; ++r) out[r] = cell_positives[r];
}

std::string PartitioningCollectionFamily::Name() const {
  return StrFormat("%zu partitionings (%zu partitions total) over %zu points",
                   partitionings_.size(), total_regions_, num_points_);
}

}  // namespace sfa::core
