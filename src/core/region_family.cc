#include "core/region_family.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/string_util.h"

namespace sfa::core {

Status RequireFinitePoints(const std::vector<geo::Point>& points,
                           const char* what) {
  for (size_t i = 0; i < points.size(); ++i) {
    if (!std::isfinite(points[i].x) || !std::isfinite(points[i].y)) {
      return Status::InvalidArgument(
          StrFormat("%s %zu has a non-finite coordinate (%g, %g)", what, i,
                    points[i].x, points[i].y));
    }
  }
  return Status::OK();
}

void RegionFamily::CountPositivesBatch(const Labels* const* batch,
                                       size_t num_worlds, uint64_t* out) const {
  SFA_CHECK(batch != nullptr && out != nullptr);
  // Reference path: one world at a time through the scalar interface. The
  // scratch vector is hoisted so the only per-world cost beyond CountPositives
  // is one row copy.
  std::vector<uint64_t> scratch;
  const size_t stride = num_regions();
  for (size_t b = 0; b < num_worlds; ++b) {
    CountPositives(*batch[b], &scratch);
    std::copy(scratch.begin(), scratch.end(), out + b * stride);
  }
}

void RegionFamily::CountClassesBatch(const uint8_t* const* class_worlds,
                                     size_t num_worlds, uint32_t num_classes,
                                     uint64_t* out) const {
  SFA_CHECK(class_worlds != nullptr && out != nullptr);
  SFA_CHECK_MSG(num_classes >= 2, "CountClassesBatch needs at least 2 classes");
  // Reference oracle: materialize the K−1 per-class indicator labels and
  // route them through the scalar counting interface, exactly the
  // construction the multinomial statistic used before the native kernel.
  const uint32_t counted = num_classes - 1;
  const size_t n = num_points();
  const size_t stride = num_regions();
  std::vector<uint8_t> indicator(n);
  Labels labels;
  std::vector<uint64_t> scratch;
  for (size_t w = 0; w < num_worlds; ++w) {
    const uint8_t* classes = class_worlds[w];
    for (uint32_t k = 0; k < counted; ++k) {
      for (size_t i = 0; i < n; ++i) {
        indicator[i] = classes[i] == k ? 1 : 0;
      }
      labels.AssignBytes(indicator.data(), n);
      CountPositives(labels, &scratch);
      std::copy(scratch.begin(), scratch.end(),
                out + ClassCountRowOffset(w, k, counted, stride));
    }
  }
}

void RegionFamily::CountPositivesFromCells(const uint32_t* /*cell_positives*/,
                                           uint64_t* /*out*/) const {
  SFA_CHECK_MSG(false,
                "CountPositivesFromCells called on a family without a cell "
                "decomposition");
}

}  // namespace sfa::core
