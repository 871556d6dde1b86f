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
  radii_.assign(num_centers * num_rungs, 0.0);

  const spatial::KdTree tree(points);
  const size_t max_k = ladder_.back();
  // Rung ℓ is the closed ball out to its k_ℓ-th nearest point: every point
  // at distance² <= reach[ℓ], the k_ℓ-th smallest distance² in the
  // expression the tree ranks by, so points tied with the k_ℓ-th all join.
  // One kNN query at the largest k gives every reach, and one ball visit at
  // the largest reach gives every member; a member's annulus rank is the
  // first rung whose reach covers it, where its tie starts. Rungs whose
  // reaches coincide at a center leave empty annuli there.
  std::vector<std::vector<AnnulusEntry>> per_center(num_centers);
  DefaultThreadPool().ParallelFor(num_centers, [&](size_t c) {
    const geo::Point& center = centers_[c];
    const std::vector<uint32_t> nearest = tree.KNearest(center, max_k);
    std::vector<double> reach(num_rungs);
    for (size_t rung = 0; rung < num_rungs; ++rung) {
      reach[rung] =
          center.DistanceSquaredTo(points[nearest[ladder_[rung] - 1]]);
      radii_[c * num_rungs + rung] = std::sqrt(reach[rung]);
    }
    std::vector<AnnulusEntry>& out = per_center[c];
    out.reserve(max_k);
    tree.VisitBall(center, reach.back(), [&](uint32_t id) {
      const double d = center.DistanceSquaredTo(points[id]);
      const auto rank = static_cast<uint32_t>(
          std::lower_bound(reach.begin(), reach.end(), d) - reach.begin());
      out.push_back({id, static_cast<uint32_t>(c), rank});
    });
  });
  std::vector<AnnulusEntry> entries;
  for (std::vector<AnnulusEntry>& chunk : per_center) {
    entries.insert(entries.end(), chunk.begin(), chunk.end());
    chunk.clear();
    chunk.shrink_to_fit();
  }

  annulus_ = AnnulusIndex(num_points_, num_centers, num_rungs, entries);
  point_counts_ = annulus_.region_point_counts();
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
  // k is the rung's ladder value; n, the points of the closed ball, exceeds
  // it when points tie with the k-th nearest.
  desc.label = StrFormat(
      "knn-circle(center %zu at (%.3f, %.3f), k=%zu, n=%llu, radius %.3f)", c,
      centers_[c].x, centers_[c].y, ladder_[r % ladder_.size()],
      static_cast<unsigned long long>(point_counts_[r]), radii_[r]);
  desc.group = static_cast<uint32_t>(c);
  return desc;
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
