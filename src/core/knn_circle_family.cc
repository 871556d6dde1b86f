#include "core/knn_circle_family.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "spatial/kdtree.h"

namespace sfa::core {

std::vector<double> KnnCircleOptions::DefaultPopulationFractions() {
  return {0.005, 0.01, 0.02, 0.03, 0.05, 0.075, 0.10};
}

KnnCircleFamily::KnnCircleFamily(const std::vector<geo::Point>& points,
                                 std::vector<geo::Point> centers,
                                 std::vector<size_t> ladder,
                                 size_t num_requested_fractions)
    : centers_(std::move(centers)),
      ladder_(std::move(ladder)),
      num_requested_fractions_(num_requested_fractions),
      num_points_(points.size()) {
  const size_t num_centers = centers_.size();
  const size_t num_rungs = ladder_.size();
  const size_t total = num_centers * num_rungs;
  point_counts_.assign(total, 0);
  radii_.assign(total, 0.0);

  const spatial::KdTree tree(points);
  const size_t max_k = ladder_.back();
  // One kNN query at the largest k serves every rung: position i of the
  // nearest list has annulus rank = index of the first ladder value > i
  // (prefixes of the list ARE the rungs). Every rung is strictly larger than
  // its predecessor (ladder k values are deduped), so no annulus is empty.
  std::vector<std::vector<AnnulusEntry>> per_center(num_centers);
  DefaultThreadPool().ParallelFor(num_centers, [&](size_t c) {
    const std::vector<uint32_t> nearest = tree.KNearest(centers_[c], max_k);
    std::vector<AnnulusEntry>& out = per_center[c];
    out.reserve(max_k);
    for (size_t i = 0; i < max_k; ++i) {
      const size_t rank = static_cast<size_t>(
          std::upper_bound(ladder_.begin(), ladder_.end(), i) -
          ladder_.begin());
      out.push_back({nearest[i], static_cast<uint32_t>(c),
                     static_cast<uint32_t>(rank)});
    }
    for (size_t rung = 0; rung < num_rungs; ++rung) {
      const size_t r = c * num_rungs + rung;
      const size_t k = ladder_[rung];
      point_counts_[r] = k;
      radii_[r] = centers_[c].DistanceTo(points[nearest[k - 1]]);
    }
  });
  std::vector<AnnulusEntry> entries;
  entries.reserve(num_centers * max_k);
  for (std::vector<AnnulusEntry>& chunk : per_center) {
    entries.insert(entries.end(), chunk.begin(), chunk.end());
    chunk.clear();
    chunk.shrink_to_fit();
  }

  annulus_ = AnnulusIndex(num_points_, num_centers, num_rungs, entries);
}

Result<std::unique_ptr<KnnCircleFamily>> KnnCircleFamily::Create(
    const std::vector<geo::Point>& points, const KnnCircleOptions& options) {
  if (points.empty()) {
    return Status::InvalidArgument("kNN circle family needs points");
  }
  if (options.centers.empty()) {
    return Status::InvalidArgument("kNN circle family needs centers");
  }
  if (options.population_fractions.empty()) {
    return Status::InvalidArgument("kNN circle family needs a population ladder");
  }
  SFA_RETURN_NOT_OK(RequireCountablePoints(points.size()));
  SFA_RETURN_NOT_OK(RequireFinitePoints(points, "point"));
  SFA_RETURN_NOT_OK(RequireFinitePoints(options.centers, "center"));
  std::vector<size_t> ladder;
  for (double fraction : options.population_fractions) {
    if (!(fraction > 0.0) || fraction > 1.0) {
      return Status::InvalidArgument(
          StrFormat("population fraction %.4f outside (0, 1]", fraction));
    }
    const auto k = static_cast<size_t>(
        std::ceil(fraction * static_cast<double>(points.size())));
    ladder.push_back(std::clamp<size_t>(k, 1, points.size()));
  }
  std::sort(ladder.begin(), ladder.end());
  ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
  return std::unique_ptr<KnnCircleFamily>(new KnnCircleFamily(
      points, options.centers, std::move(ladder),
      options.population_fractions.size()));
}

RegionDescriptor KnnCircleFamily::Describe(size_t r) const {
  SFA_DCHECK(r < num_regions());
  const size_t c = CenterOfRegion(r);
  RegionDescriptor desc;
  // The enclosing square of the circle, for overlap tests and rendering.
  desc.rect = geo::Rect::CenteredSquare(centers_[c], 2.0 * radii_[r]);
  desc.label =
      StrFormat("knn-circle(center %zu at (%.3f, %.3f), k=%llu, radius %.3f)", c,
                centers_[c].x, centers_[c].y,
                static_cast<unsigned long long>(point_counts_[r]), radii_[r]);
  desc.group = static_cast<uint32_t>(c);
  return desc;
}

void KnnCircleFamily::CountPositives(const Labels& labels,
                                     std::vector<uint64_t>* out) const {
  SFA_CHECK(out != nullptr);
  SFA_CHECK_MSG(labels.size() == num_points_,
                "labels " << labels.size() << " != points " << num_points_);
  out->resize(num_regions());
  annulus_.CountPositives(labels.bytes().data(), out->data());
}

std::string KnnCircleFamily::Name() const {
  std::string dedup =
      ladder_.size() == num_requested_fractions_
          ? ""
          : StrFormat(", deduped from %zu fractions", num_requested_fractions_);
  // FamilyFingerprint hashes Name(): dropping the tag re-keys every frame.
  return StrFormat(
      "%zu kNN circles (%zu centers x %zu population rungs%s) over %zu points "
      "[sparse-annulus]",
      num_regions(), centers_.size(), ladder_.size(), dedup.c_str(), num_points_);
}

}  // namespace sfa::core
