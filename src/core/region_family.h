// The region family abstraction: the predetermined set of regions R the
// audit scans (paper §3, "a predetermined set of regions R").
//
// A family is bound to a fixed point set at construction. Point counts
// n(R) never change; positive counts p(R) depend on the label assignment
// and are re-evaluated once per Monte Carlo world, so implementations
// precompute whatever geometry lets CountPlanes run in (near) linear time:
//
//   GridPartitionFamily        cells of one regular grid       O(N) / 8 planes
//   PartitioningCollectionFamily  all partitions of many
//                              rectangular partitionings       O(T·N) / 8 planes
//   RectangleSweepFamily       all grid-aligned rectangles     O(N) / 8 planes
//                                                              + O(R) / plane
//   SquareScanFamily,          nested per-center ladders,
//   KnnCircleFamily            counted by the annulus walk     O(entries) /
//                              (core/annulus_index.h)          64 planes
//
// Counting has one currency, packed planes: up to 64 label worlds (or
// (world, class) indicators) ride in one 64-bit mask word per point, bit p =
// plane p's label, and every count is a uint32_t (families hold N < 2³²
// points, checked at Create). The null-world lane sampler
// (core/lane_sampler.h) writes those words a byte (8 worlds) at a time, so
// the batched Monte Carlo engine draws and counts i.i.d. point worlds without
// label arrays:
//
//   CountPlanes          the one counting method a family must implement:
//                        up to 64 planes per pass over the family's geometry
//                        (one annulus walk for squares and kNN circles; a
//                        cell scatter per 8-plane byte group, with a
//                        spread-table word add, for the grid, partitioning
//                        and rectangle-sweep families). Plane p's row goes
//                        to out + p·stride, so the (world, class) planes of a
//                        K-class batch land in whatever rows the caller lays
//                        out;
//   CountPlaneBytes      CountPlanes for at most 8 planes from one byte per
//                        point, for few-plane calls: N bytes stay in cache
//                        where N words do not. The default widens the bytes
//                        into words for CountPlanes; every bundled family
//                        overrides it;
//   cell_decomposition   declares that p(R) is a pure function of positive
//                        counts over a disjoint cell partition of the
//                        points, letting the engine draw per-cell positives
//                        in closed form — Binomial(n_c, ρ) per cell, O(cells)
//                        instead of O(N) per Bernoulli null world. When the
//                        regions ARE the cells (grid, single partitioning),
//                        the engine hands the cell rows to the LLR max as
//                        they are.
//
// Every other count goes through these. The observed Bernoulli scan
// (core/scan.h) counts its labels' bytes as one CountPlaneBytes plane;
// CountPositivesBatch and CountClassesBatch pack Labels or class-code worlds
// into planes, call CountPlaneBytes (up to 8 planes) or CountPlanes, and
// widen the counts to uint64_t; the observed multinomial scan counts through
// CountClassesBatch.
#ifndef SFA_CORE_REGION_FAMILY_H_
#define SFA_CORE_REGION_FAMILY_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/labels.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace sfa::core {

/// Points a family holds at most: every count is a uint32_t.
inline constexpr uint64_t kMaxFamilyPoints = UINT32_MAX;

/// OK when num_points <= kMaxFamilyPoints; otherwise InvalidArgument. Every
/// bundled family calls it at Create and both statistics at
/// ValidateForFamily, so no count row ever needs more than 32 bits.
Status RequireCountablePoints(uint64_t num_points);

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
  /// Region r is cell r: per-cell positives are the region row itself, and
  /// the default CountPositivesFromCells copies them.
  bool cells_are_regions = false;
};

class RegionFamily {
 public:
  RegionFamily() = default;
  /// A family is bound to its object: it is neither copied nor moved, so its
  /// cached Fingerprint() always describes the object it is read from.
  RegionFamily(const RegionFamily&) = delete;
  RegionFamily& operator=(const RegionFamily&) = delete;
  virtual ~RegionFamily() = default;

  /// Number of regions scanned.
  virtual size_t num_regions() const = 0;

  /// Number of points the family is bound to.
  virtual size_t num_points() const = 0;

  /// Static description of region `r`.
  virtual RegionDescriptor Describe(size_t r) const = 0;

  /// n(R): number of bound points inside region `r`.
  virtual uint64_t PointCount(size_t r) const = 0;

  /// p(R) for `num_planes` (1..kMaxPlanes) label worlds in one pass: bit p
  /// of masks[i] is point i's label in plane p (bits at and above num_planes
  /// are ignored), and plane p's num_regions() counts go to
  /// out + p * out_stride (out_stride >= num_regions(); caller-owned). The
  /// family's one counting entry point: families count all planes in one
  /// pass over their geometry. Must be thread-safe for concurrent calls with
  /// distinct `out` buffers; `masks` is only read.
  virtual void CountPlanes(const uint64_t* masks, size_t num_planes,
                           uint32_t* out, size_t out_stride) const = 0;

  /// Planes one CountPlanes call counts at most: one per bit of a mask word.
  static constexpr size_t kMaxPlanes = 64;

  /// CountPlanes for 1..kBytePlanes planes from one byte per point: bit p of
  /// bytes[i] is point i's label in plane p (higher bits are ignored). The
  /// observed Bernoulli scan (one plane), the packing adapters' calls of at
  /// most 8 planes (one world's observed K-class scan) and the fingerprint
  /// probes count through it. The default widens the bytes into mask words for
  /// CountPlanes; the bundled families count the N bytes directly, which
  /// stay in L1 where N mask words do not. Same contract as CountPlanes.
  virtual void CountPlaneBytes(const uint8_t* bytes, size_t num_planes,
                               uint32_t* out, size_t out_stride) const;

  /// Planes one CountPlaneBytes call counts at most.
  static constexpr size_t kBytePlanes = 8;

  /// p(R) for `num_worlds` label worlds, packed up to kMaxPlanes per
  /// CountPlanes call (core::WorldTile's planes for the family's shape) and
  /// widened. `out` is a row-major [num_worlds x num_regions()]
  /// caller-owned buffer.
  void CountPositivesBatch(const Labels* const* batch, size_t num_worlds,
                           uint64_t* out) const;

  /// Per-region class counts for `num_worlds` K-class worlds:
  /// class_worlds[w] points at num_points() class codes in [0, num_classes)
  /// (other codes count in no class). Only classes 0..num_classes-2 are
  /// counted (the last is n(R) minus the others). The (world, class)
  /// indicator planes are packed in output order (internal::PackClassPlanes),
  /// as many per CountPlanes call as CountPositivesBatch, and widened; `out` is a row-major
  /// [num_worlds x (num_classes−1) x num_regions()] caller-owned buffer with
  /// the rows of ClassCountRowOffset.
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
  /// default copies the cells when cells_are_regions and aborts otherwise.
  /// Must be thread-safe for distinct `out` buffers.
  virtual void CountPositivesFromCells(const uint32_t* cell_positives,
                                       uint32_t* out) const;

  /// Human-readable one-liner for reports.
  virtual std::string Name() const = 0;

  /// The family's calibration identity, FamilyFingerprint(*this)
  /// (core/calibration_cache.h): computed on the first call, then cached in
  /// this object, once for any number of concurrent callers. Every calibration
  /// key of the family reads it, so a family is fingerprinted once per object
  /// however many audits, batches or stream sessions key against it; a
  /// different family built later at the same address has its own.
  uint64_t Fingerprint() const;

 private:
  mutable std::once_flag fingerprint_once_;
  mutable uint64_t fingerprint_ = 0;
};

namespace internal {

/// The cell scatter behind the CountPlanes overrides of the cell families:
/// plane p's count of the points whose cell_of_point[i] is `cell` goes to
/// out[p * out_stride + cell], for cell < num_cells (points of other cells
/// count nowhere). Per 8-plane byte group of the mask words, each point adds
/// two 16-entry spread-table words into 16-bit lanes of its cell, 4 planes
/// per word, so one pass over the points counts the group's planes. The
/// lanes are allocated per call.
void CountCellPlanes(const uint32_t* cell_of_point, size_t n, size_t num_cells,
                     const uint64_t* masks, size_t num_planes, uint32_t* out,
                     size_t out_stride);
/// The same on one byte per point, for at most 8 planes (CountPlaneBytes).
void CountCellPlanes(const uint32_t* cell_of_point, size_t n, size_t num_cells,
                     const uint8_t* masks, size_t num_planes, uint32_t* out,
                     size_t out_stride);

/// Packs the (world, class) indicator planes [first_plane, first_plane +
/// num_planes) of K-class code worlds into bits 0..num_planes−1 of masks[i]
/// (n words; higher bits 0): plane q is class q % counted of world q /
/// counted, class_worlds[w] holds n codes, and codes that name no counted
/// class set no bit. CountClassesBatch's packing, shared with the
/// multinomial permutation worlds.
void PackClassPlanes(const uint8_t* const* class_worlds, size_t first_plane,
                     size_t num_planes, uint32_t counted, size_t n,
                     uint64_t* masks);
/// The same into one byte per point, for at most 8 planes.
void PackClassPlanes(const uint8_t* const* class_worlds, size_t first_plane,
                     size_t num_planes, uint32_t counted, size_t n,
                     uint8_t* masks);

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
