// Kulldorff-style variable-radius circular scan family: for each scan
// center, the regions are the sets of its k nearest observations for a
// ladder of k values (e.g. 0.5%, 1%, ..., up to a population ceiling). This
// is the classical region structure of SaTScan (Kulldorff 1997) — regions
// adapt their AREA to the local density so each holds a controlled share of
// the population, which the paper's fixed-side squares do not.
//
// Per center the ladder is nested by construction (the k nearest are a
// prefix of the (k+1) nearest), so the family supports both counting
// backends (core::CountingBackend):
//
//   kSparseAnnulus (default)  one kNN query per center; the nearest list is
//                             stored once as a center-major CSR of annulus
//                             member ids (core/annulus_index.h) and worlds
//                             are counted by walking each ladder once,
//                             8 packed worlds per walk;
//   kDenseBits                one membership bit vector per region, each
//                             world costing one AND+popcount pass per region
//                             — the bit-identical reference.
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
#include "spatial/bitvector.h"

namespace sfa::core {

struct KnnCircleOptions {
  /// Scan centers (typically k-means centers or a sample of observations).
  std::vector<geo::Point> centers;
  /// Population ladder: each entry is a fraction of N; the region holds
  /// ceil(fraction * N) nearest observations. Entries in (0, max_fraction].
  std::vector<double> population_fractions = DefaultPopulationFractions();
  /// Counting backend; results are identical either way.
  CountingBackend backend = CountingBackend::kSparseAnnulus;

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
  void CountPositives(const Labels& labels,
                      std::vector<uint64_t>* out) const override;
  /// Sparse backend: 8 packed worlds per walk of the annulus CSR.
  /// Dense backend: word-blocked batch recounting, identical to
  /// SquareScanFamily.
  void CountPositivesBatch(const Labels* const* batch, size_t num_worlds,
                           uint64_t* out) const override;
  /// Multi-class counterpart, identical backend split to SquareScanFamily.
  void CountClassesBatch(const uint8_t* const* class_worlds, size_t num_worlds,
                         uint32_t num_classes, uint64_t* out) const override;
  std::string Name() const override;

  size_t num_centers() const { return centers_.size(); }
  size_t CenterOfRegion(size_t r) const { return r / ladder_.size(); }
  /// Radius (distance to the farthest member) of region `r`.
  double RadiusOfRegion(size_t r) const { return radii_[r]; }
  CountingBackend backend() const { return backend_; }
  /// Heap bytes of the active membership representation (CSR index or dense
  /// bit vectors).
  size_t MembershipBytes() const;

 private:
  KnnCircleFamily(const std::vector<geo::Point>& points,
                  std::vector<geo::Point> centers, std::vector<size_t> ladder,
                  size_t num_requested_fractions, CountingBackend backend);

  std::vector<geo::Point> centers_;
  std::vector<size_t> ladder_;  // k values, ascending, deduped
  size_t num_requested_fractions_ = 0;
  CountingBackend backend_ = CountingBackend::kSparseAnnulus;
  AnnulusIndex annulus_;                          // sparse backend
  std::vector<spatial::BitVector> memberships_;   // dense backend
  std::vector<uint64_t> point_counts_;
  std::vector<double> radii_;
  size_t num_points_ = 0;
};

}  // namespace sfa::core

#endif  // SFA_CORE_KNN_CIRCLE_FAMILY_H_
