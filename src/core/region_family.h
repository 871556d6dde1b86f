// The region family abstraction: the predetermined set of regions R the
// audit scans (paper §3, "a predetermined set of regions R").
//
// A family is bound to a fixed point set at construction. Point counts
// n(R) never change; positive counts p(R) depend on the label assignment
// and are re-evaluated once per Monte Carlo world, so implementations
// precompute whatever geometry lets CountPositives run in (near) linear
// time:
//
//   GridPartitionFamily        cells of one regular grid       O(N) / world
//   PartitioningCollectionFamily  all partitions of many
//                              rectangular partitionings       O(T·N) / world
//   SquareScanFamily,          nested per-center ladders,
//   KnnCircleFamily            counted by the annulus gather   O(entries) /
//                              (core/annulus_index.h)          8 worlds
//
// Batch counting has one currency, packed planes: up to 8 label worlds (or
// (world, class) indicators) ride in one mask byte per point, bit b = plane
// b's label. The null-world lane sampler (core/lane_sampler.h) writes that
// byte directly, so the batched Monte Carlo engine draws and counts i.i.d.
// point worlds without label arrays:
//
//   CountPlanes          counts up to 8 planes per pass over the family's
//                        geometry (the annulus gather for squares and kNN
//                        circles, a cell scatter with a spread-table word
//                        add for the grid, partitioning and rectangle-sweep
//                        families; the default unpacks each plane and calls
//                        CountPositives). Output rows take a stride, so the
//                        K−1 class planes of 8 worlds land directly in their
//                        ClassCountRowOffset rows;
//   cell_decomposition   declares that p(R) is a pure function of positive
//                        counts over a disjoint cell partition of the
//                        points, letting the engine draw per-cell positives
//                        in closed form — Binomial(n_c, ρ) per cell, O(cells)
//                        instead of O(N) per Bernoulli null world.
//
// CountPositivesBatch and CountClassesBatch pack Labels or class-code worlds
// into planes and call CountPlanes; the multinomial permutation worlds and
// the observed multinomial scan count through them (Bernoulli permutation
// worlds shuffle straight into planes).
#ifndef SFA_CORE_REGION_FAMILY_H_
#define SFA_CORE_REGION_FAMILY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/labels.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace sfa::core {

/// OK when every point of `points` has finite coordinates; otherwise
/// InvalidArgument naming the first offender as "<what> <index>". Families
/// call it at Create: a NaN coordinate fails every containment test, so such
/// a point would silently fall out of some regions but not others.
Status RequireFinitePoints(const std::vector<geo::Point>& points,
                           const char* what);

/// Static description of one region in a family.
struct RegionDescriptor {
  geo::Rect rect;
  std::string label;
  /// Group regions that should compete with each other during evidence
  /// selection (e.g. all side lengths of one scan center share a group; for
  /// partition families every region is its own group).
  uint32_t group = 0;
};

/// Disjoint-cell decomposition of a family's point set. Cells are pairwise
/// disjoint; every point belongs to exactly one cell or is "outside" (counted
/// toward N and P but toward no region). Valid only when per-region positive
/// counts are a pure function of per-cell positive counts
/// (CountPositivesFromCells).
struct CellDecomposition {
  /// Bound points per cell.
  std::vector<uint32_t> cell_counts;
  /// Points belonging to no cell (e.g. outside the grid extent).
  uint64_t num_outside = 0;
};

class RegionFamily {
 public:
  virtual ~RegionFamily() = default;

  /// Number of regions scanned.
  virtual size_t num_regions() const = 0;

  /// Number of points the family is bound to.
  virtual size_t num_points() const = 0;

  /// Static description of region `r`.
  virtual RegionDescriptor Describe(size_t r) const = 0;

  /// n(R): number of bound points inside region `r`.
  virtual uint64_t PointCount(size_t r) const = 0;

  /// p(R) for every region under `labels` (labels.size() == num_points()).
  /// `out` is resized to num_regions(). Must be thread-safe for concurrent
  /// calls with distinct `out` buffers AND distinct (or bit-materialized)
  /// Labels: the bit view of Labels is built lazily on first access, so
  /// sharing one Labels instance across threads requires calling
  /// labels.bits() once beforehand. The Monte Carlo engine's label pools are
  /// thread-local, satisfying this by construction.
  virtual void CountPositives(const Labels& labels,
                              std::vector<uint64_t>* out) const = 0;

  /// p(R) for `num_planes` (1..kMaxPlanes) label worlds in one pass: bit b
  /// of masks[i] is point i's label in plane b (bits at and above num_planes
  /// are ignored), and plane b's num_regions() counts go to
  /// out + b * out_stride (out_stride >= num_regions(); caller-owned). The
  /// one batch-counting entry point: the default unpacks each plane and
  /// calls CountPositives, and families override it to count all planes in
  /// one pass over their geometry. Counts are integers, so overrides must
  /// equal the default exactly (test_mc_engine.cc, test_annulus_index.cc).
  /// Same thread-safety contract as CountPositives.
  virtual void CountPlanes(const uint8_t* masks, size_t num_planes,
                           uint64_t* out, size_t out_stride) const;

  /// Planes one CountPlanes call counts at most: one per bit of a byte.
  static constexpr size_t kMaxPlanes = 8;

  /// p(R) for `num_worlds` label worlds, packed kMaxPlanes per CountPlanes
  /// call. `out` is a row-major [num_worlds x num_regions()] caller-owned
  /// buffer.
  void CountPositivesBatch(const Labels* const* batch, size_t num_worlds,
                           uint64_t* out) const;

  /// Per-region class counts for `num_worlds` K-class worlds:
  /// class_worlds[w] points at num_points() class codes in [0, num_classes)
  /// (other codes count in no class). Only classes 0..num_classes-2 are
  /// counted (the last is n(R) minus the others). The (world, class)
  /// indicator planes are packed in output order, kMaxPlanes per CountPlanes
  /// call; `out` is a row-major [num_worlds x (num_classes−1) x
  /// num_regions()] caller-owned buffer with the rows of ClassCountRowOffset.
  void CountClassesBatch(const uint8_t* const* class_worlds,
                         size_t num_worlds, uint32_t num_classes,
                         uint64_t* out) const;

  /// The family's cell decomposition, or nullptr when region counts are not
  /// cell-decomposable (the default). The returned pointer must stay valid
  /// for the family's lifetime.
  virtual const CellDecomposition* cell_decomposition() const { return nullptr; }

  /// Maps per-cell positive counts (parallel to cell_decomposition()->
  /// cell_counts) to per-region positives in `out` (size num_regions(),
  /// caller-owned). Only called when cell_decomposition() is non-null; the
  /// default aborts. Must be thread-safe for distinct `out` buffers.
  virtual void CountPositivesFromCells(const uint32_t* cell_positives,
                                       uint64_t* out) const;

  /// Human-readable one-liner for reports.
  virtual std::string Name() const = 0;
};

namespace internal {

/// The cell scatter behind the CountPlanes overrides of the cell families:
/// plane b's count of the points whose cell_of_point[i] is `cell` goes to
/// out[b * out_stride + cell], for cell < num_cells (points of other cells
/// count nowhere). Each point adds two 16-entry spread-table words into
/// 16-bit lanes of its cell, 4 planes per word, so one pass over the points
/// counts all planes.
void CountCellPlanes(const uint32_t* cell_of_point, size_t n, size_t num_cells,
                     const uint8_t* masks, size_t num_planes, uint64_t* out,
                     size_t out_stride);

}  // namespace internal

/// Flat offset of the (world, class) row inside a CountClassesBatch output
/// buffer. All operands are widened to size_t BEFORE any multiplication: at
/// paper-scale configs (hundreds of thousands of worlds x regions) the
/// products overflow 32-bit arithmetic, so callers must never form these
/// offsets from narrower intermediates (pinned by tests/test_multinomial_scan).
constexpr size_t ClassCountRowOffset(size_t world, uint32_t klass,
                                     uint32_t classes_counted,
                                     size_t num_regions) {
  return (world * static_cast<size_t>(classes_counted) +
          static_cast<size_t>(klass)) *
         num_regions;
}

/// Total element count of a CountClassesBatch output buffer.
constexpr size_t ClassCountBufferSize(size_t num_worlds,
                                      uint32_t classes_counted,
                                      size_t num_regions) {
  return num_worlds * static_cast<size_t>(classes_counted) * num_regions;
}

}  // namespace sfa::core

#endif  // SFA_CORE_REGION_FAMILY_H_
