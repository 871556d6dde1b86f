// Kulldorff-style variable-radius circular scan family: for each scan
// center, the regions are the sets of its k nearest observations for a
// ladder of k values (e.g. 0.5%, 1%, ..., up to a population ceiling). This
// is the classical region structure of SaTScan (Kulldorff 1997) — regions
// adapt their AREA to the local density so each holds a controlled share of
// the population, which the paper's fixed-side squares do not.
//
// Region (center c, rung k) is the closed ball around c out to its k-th
// nearest observation: every point whose distance² to c (Point::
// DistanceSquaredTo, the expression the k-d tree ranks by) is at most the
// k-th smallest one. Points tied with the k-th nearest all belong, so a
// region holds at least k points, and exactly k when no tie straddles its
// edge; a tie is never split by the tree's arbitrary order, and 40
// co-located points form one region of all 40 rather than an arbitrary k of
// them. PointCount(r) and RadiusOfRegion(r) describe that closed ball.
//
// Per center the balls are nested by construction: one kNN query at the
// largest k gives every rung's reach, one ball visit gives every member,
// the members are stored once as a center-major CSR of annulus member ids
// (core/annulus_index.h), and worlds are counted by walking each ladder
// once. Rungs whose reaches coincide at a center (ties spanning both k
// values) have an empty annulus there and count the same points.
//
// Duplicate ladder entries (fractions mapping to the same k) are collapsed
// at Create; the dedup is reported by Name().
#ifndef SFA_CORE_KNN_CIRCLE_FAMILY_H_
#define SFA_CORE_KNN_CIRCLE_FAMILY_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/annulus_index.h"
#include "core/region_family.h"
#include "geo/point.h"

namespace sfa::core {

struct KnnCircleOptions {
  /// Scan centers (typically k-means centers or a sample of observations).
  std::vector<geo::Point> centers;
  /// Population ladder: each entry is a fraction of N; the region is the
  /// closed ball out to the k = ceil(fraction * N)-th nearest observation
  /// (k nearest, plus any tied with the k-th). Entries in (0, 1].
  std::vector<double> population_fractions = DefaultPopulationFractions();

  /// SaTScan-like default ladder up to 10% of the population.
  static std::vector<double> DefaultPopulationFractions();
};

class KnnCircleFamily : public RegionFamily {
 public:
  static Result<std::unique_ptr<KnnCircleFamily>> Create(
      const std::vector<geo::Point>& points, const KnnCircleOptions& options);

  size_t num_regions() const override { return centers_.size() * ladder_.size(); }
  size_t num_points() const override { return num_points_; }
  RegionDescriptor Describe(size_t r) const override;
  uint64_t PointCount(size_t r) const override { return point_counts_[r]; }
  /// Up to 64 planes per walk of the annulus CSR.
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
  size_t CenterOfRegion(size_t r) const { return r / ladder_.size(); }
  /// Radius (distance to the farthest member) of region `r`.
  double RadiusOfRegion(size_t r) const { return radii_[r]; }
  /// Heap bytes of the annulus index (see SquareScanFamily::MembershipBytes).
  size_t MembershipBytes() const { return annulus_.MemoryBytes(); }

 private:
  KnnCircleFamily(const std::vector<geo::Point>& points,
                  std::vector<geo::Point> centers, std::vector<size_t> ladder,
                  size_t num_requested_fractions);

  std::vector<geo::Point> centers_;
  std::vector<size_t> ladder_;  // k values, ascending, deduped
  size_t num_requested_fractions_ = 0;
  AnnulusIndex annulus_;
  std::vector<uint64_t> point_counts_;
  std::vector<double> radii_;
  size_t num_points_ = 0;
};

}  // namespace sfa::core

#endif  // SFA_CORE_KNN_CIRCLE_FAMILY_H_
