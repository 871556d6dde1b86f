// Nested-ladder counting index of the overlapping region families.
//
// SquareScanFamily and KnnCircleFamily share one structure: per scan center,
// the size ladder is a chain R_1 ⊂ R_2 ⊂ … ⊂ R_L (kNN circles by
// construction, concentric half-open squares by nesting of their rects). The
// chain decomposes into disjoint per-center *annuli*: every point inside the
// largest rung has a unique rank — the smallest rung that contains it — and
// rung ℓ's member set is exactly the union of annuli 0..ℓ.
//
// The index therefore stores each center's membership ONCE, as (point, rank)
// entries over the largest rung, instead of L dense bit vectors — an L-fold
// cut in membership memory and construction work. Entries are laid out as a
// center-major CSR (spatial::Csr32) keyed by region slot center * L + rank
// whose payload is the member point ids of that annulus. A center's ladder
// is one contiguous run of ids, and the CSR offsets are the rank boundaries,
// so n(R) falls out of the offsets. Counting walks each ladder once and
// gathers the points' labels:
//
//   for each center:  acc = 0
//     for each rank ℓ:  for each id in annulus ℓ:  acc += label[id]
//                       p(R_ℓ) = acc               (every rung at once)
//
// CountPlanes counts up to 64 planes per walk from one 64-bit mask word per
// point (bit p = plane p's label), the format the null-world lane sampler
// writes (core/lane_sampler.h), into uint32 rows. It has two arms:
//
//   AVX2       on the AVX2 and AVX-512 sampler tiers
//              (spatial::ActiveSamplerKernel()), for calls of more than 8
//              planes: 32 byte lanes per register (two for more than 32
//              planes); the word is broadcast, vpshufb spreads each mask
//              byte over 8 lanes, and vpcmpeqb against the lane's bit gives
//              0 or −1;
//   scalar     every other call: one walk per 8-plane byte group, each
//              entry adding a 256-entry spread-table word that carries bit b
//              of its mask word's group byte, read in place, into byte lane
//              b. A call of at most 8 planes is one such walk, and
//              CountPlaneBytes runs it on one byte per point (the few-plane
//              calls of observed scans and fingerprints).
//
// Byte lanes fold into 32-bit totals every 255 entries, before they can
// overflow, and every rank end emits totals + lanes into plane p's row at
// out + p·stride (the row layout the LLR max reads). All arms give the same
// counts (tests/test_annulus_index.cc).
//
// O(entries) per 64 worlds, no dense label bits, no per-region AND+popcount
// pass. This is the only counting path of both families; the test suites
// check it against a reference family built from the geometry.
#ifndef SFA_CORE_ANNULUS_INDEX_H_
#define SFA_CORE_ANNULUS_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "spatial/csr.h"

namespace sfa::core {

/// One (point, center, rank) incidence: `point` belongs to the annulus of
/// rank `rank` at `center`, i.e. rank is the smallest ladder rung whose
/// region contains the point.
struct AnnulusEntry {
  uint32_t point = 0;
  uint32_t center = 0;
  uint32_t rank = 0;
};

/// Drops ladder rungs that capture no annulus entry at any center — rung ℓ>0
/// is empty exactly when every center's rung-ℓ member set equals its rung-
/// (ℓ-1) set, so such rungs are duplicate regions. Entry ranks are remapped
/// in place to the surviving ladder; returns the surviving original rung
/// indices, ascending (rung 0 always survives). Families use this to dedup
/// their size ladders.
std::vector<uint32_t> CollapseEmptyAnnuli(size_t num_rungs,
                                          std::vector<AnnulusEntry>* entries);

class AnnulusIndex {
 public:
  /// Planes (worlds, or (world, class) indicators) one CountPlanes walk
  /// counts: one per bit of a mask word.
  static constexpr size_t kMaxPlanes = 64;
  /// Planes one CountPlaneBytes call counts: one per bit of a byte.
  static constexpr size_t kBytePlanes = 8;

  AnnulusIndex() = default;

  /// Builds the center-major gather index. `num_rungs` is the ladder length
  /// (after any dedup); every entry's rank must be < num_rungs and its
  /// center < num_centers. Region index convention matches the families:
  /// region r = center * num_rungs + rank-prefix.
  AnnulusIndex(size_t num_points, size_t num_centers, size_t num_rungs,
               const std::vector<AnnulusEntry>& entries);

  size_t num_points() const { return num_points_; }
  size_t num_centers() const { return num_centers_; }
  size_t num_rungs() const { return num_rungs_; }
  size_t num_regions() const { return num_centers_ * num_rungs_; }
  size_t num_entries() const { return csr_.num_entries(); }

  /// Heap bytes held by the index (the CSR arrays).
  size_t MemoryBytes() const { return csr_.MemoryBytes(); }

  /// n(R) for every region, read off the CSR rank boundaries.
  std::vector<uint64_t> region_point_counts() const;

  /// p(R) for one world given its 0/1 label bytes (num_points() of them).
  /// `out` is caller-owned with num_regions() slots. Thread-safe.
  void CountPositives(const uint8_t* labels, uint64_t* out) const;

  /// Counts `num_planes` (1..kMaxPlanes) worlds in one walk: bit p of
  /// masks[i] is point i's label in plane p (higher bits are ignored).
  /// Plane p's p(R) row goes to out + p * out_stride (out_stride >=
  /// num_regions()). Thread-safe. The body of RegionFamily::CountPlanes for
  /// both families.
  void CountPlanes(const uint64_t* masks, size_t num_planes, uint32_t* out,
                   size_t out_stride) const;

  /// CountPlanes for 1..kBytePlanes planes from one byte per point (bit p
  /// of bytes[i] is plane p): the scalar walk, on N bytes that stay in L1.
  /// The body of RegionFamily::CountPlaneBytes for both families.
  void CountPlaneBytes(const uint8_t* bytes, size_t num_planes, uint32_t* out,
                       size_t out_stride) const;

 private:
  spatial::Csr32 csr_;  // row = center * num_rungs + rank, value = point id
  size_t num_points_ = 0;
  size_t num_centers_ = 0;
  size_t num_rungs_ = 0;
};

}  // namespace sfa::core

#endif  // SFA_CORE_ANNULUS_INDEX_H_
