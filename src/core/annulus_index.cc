#include "core/annulus_index.h"

#include <algorithm>
#include <array>
#include <limits>

#include "common/macros.h"

namespace sfa::core {

namespace {

/// kSpread[m] carries bit b of m into byte lane b, so adding kSpread[mask]
/// to a 64-bit word counts one point in each of the 8 planes at once.
constexpr std::array<uint64_t, 256> MakeSpreadTable() {
  std::array<uint64_t, 256> table{};
  for (uint32_t m = 0; m < 256; ++m) {
    for (uint32_t b = 0; b < 8; ++b) {
      table[m] |= static_cast<uint64_t>((m >> b) & 1u) << (8 * b);
    }
  }
  return table;
}
constexpr std::array<uint64_t, 256> kSpread = MakeSpreadTable();

/// Entries a byte lane can absorb before it must be flushed.
constexpr size_t kLaneCapacity = 255;

/// Walks every center's ladder once, in chunks of at most kLaneCapacity
/// entries. Within a chunk `lanes` sums gather(id) over the entries and its
/// running value after each entry is kept, so every rung that ends inside
/// the chunk is emitted from it as emit(slot, carried, lanes_at_rung_end).
/// fold(&carried, lanes) then carries the chunk into the totals of the
/// center. Rung ends cost no branch of their own: the walk takes one
/// data-dependent exit per chunk instead of one per rung.
template <typename Totals, typename Gather, typename Fold, typename Emit>
void WalkLadders(const spatial::Csr32& csr, size_t num_centers,
                 size_t num_rungs, Gather gather, Fold fold, Emit emit) {
  const uint32_t* offsets = csr.offsets.data();
  const uint32_t* ids = csr.values.data();
  uint64_t running[kLaneCapacity + 1];
  running[0] = 0;
  for (size_t c = 0; c < num_centers; ++c) {
    Totals carried{};
    size_t slot = c * num_rungs;
    const size_t last = slot + num_rungs;
    const size_t end = offsets[last];
    for (size_t chunk = offsets[slot];; chunk += kLaneCapacity) {
      const size_t chunk_end = std::min(end, chunk + kLaneCapacity);
      uint64_t lanes = 0;
      for (size_t j = chunk; j < chunk_end; ++j) {
        lanes += gather(ids[j]);
        running[j - chunk + 1] = lanes;
      }
      for (; slot < last && offsets[slot + 1] <= chunk_end; ++slot) {
        emit(slot, carried, running[offsets[slot + 1] - chunk]);
      }
      if (slot == last) break;
      fold(&carried, lanes);
    }
  }
}

}  // namespace

std::vector<uint32_t> CollapseEmptyAnnuli(size_t num_rungs,
                                          std::vector<AnnulusEntry>* entries) {
  SFA_CHECK(entries != nullptr && num_rungs >= 1);
  std::vector<uint64_t> occupancy(num_rungs, 0);
  for (const AnnulusEntry& e : *entries) {
    SFA_DCHECK(e.rank < num_rungs);
    ++occupancy[e.rank];
  }
  std::vector<uint32_t> kept;
  std::vector<uint32_t> remap(num_rungs, 0);
  for (size_t l = 0; l < num_rungs; ++l) {
    if (l == 0 || occupancy[l] > 0) {
      remap[l] = static_cast<uint32_t>(kept.size());
      kept.push_back(static_cast<uint32_t>(l));
    }
    // Dropped rungs have no entries, so their remap slot is never read.
  }
  if (kept.size() != num_rungs) {
    for (AnnulusEntry& e : *entries) e.rank = remap[e.rank];
  }
  return kept;
}

AnnulusIndex::AnnulusIndex(size_t num_points, size_t num_centers,
                           size_t num_rungs,
                           const std::vector<AnnulusEntry>& entries)
    : num_points_(num_points), num_centers_(num_centers), num_rungs_(num_rungs) {
  SFA_CHECK(num_centers >= 1 && num_rungs >= 1);
  SFA_CHECK_MSG(num_centers * num_rungs <
                    std::numeric_limits<uint32_t>::max(),
                "region slots " << num_centers * num_rungs
                                << " exceed uint32 CSR row addressing");
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.reserve(entries.size());
  for (const AnnulusEntry& e : entries) {
    SFA_DCHECK(e.point < num_points && e.center < num_centers &&
               e.rank < num_rungs);
    pairs.emplace_back(static_cast<uint32_t>(e.center * num_rungs + e.rank),
                       e.point);
  }
  csr_ = spatial::BuildCsr32(num_regions(), pairs);
}

std::vector<uint64_t> AnnulusIndex::region_point_counts() const {
  // A center's rungs are cumulative: rung ℓ holds every id from the center's
  // first annulus through the end of annulus ℓ.
  std::vector<uint64_t> counts(num_regions());
  const uint32_t* offsets = csr_.offsets.data();
  for (size_t c = 0; c < num_centers_; ++c) {
    const size_t base = c * num_rungs_;
    for (size_t l = 0; l < num_rungs_; ++l) {
      counts[base + l] = offsets[base + l + 1] - offsets[base];
    }
  }
  return counts;
}

void AnnulusIndex::CountPositives(const uint8_t* labels, uint64_t* out) const {
  SFA_CHECK(labels != nullptr && out != nullptr);
  WalkLadders<uint64_t>(
      csr_, num_centers_, num_rungs_,
      [labels](uint32_t id) -> uint64_t { return labels[id]; },
      [](uint64_t* carried, uint64_t sum) { *carried += sum; },
      [out](size_t slot, uint64_t carried, uint64_t sum) {
        out[slot] = carried + sum;
      });
}

void AnnulusIndex::CountPlanes(const uint8_t* masks, size_t num_planes,
                               uint64_t* out, size_t out_stride) const {
  SFA_CHECK((masks != nullptr || num_points_ == 0) && out != nullptr);
  SFA_CHECK(num_planes >= 1 && num_planes <= kPlanesPerPass);
  SFA_CHECK(out_stride >= num_regions());
  using Totals = std::array<uint64_t, kPlanesPerPass>;
  const size_t stride = out_stride;
  // Byte lane b of the chunk sum counts plane b; a chunk of at most
  // kLaneCapacity entries cannot overflow it.
  WalkLadders<Totals>(
      csr_, num_centers_, num_rungs_,
      [masks](uint32_t id) { return kSpread[masks[id]]; },
      [](Totals* carried, uint64_t lanes) {
        for (size_t b = 0; b < kPlanesPerPass; ++b) {
          (*carried)[b] += (lanes >> (8 * b)) & 0xFF;
        }
      },
      [out, stride, num_planes](size_t slot, const Totals& carried,
                                uint64_t lanes) {
        for (size_t b = 0; b < num_planes; ++b) {
          out[b * stride + slot] = carried[b] + ((lanes >> (8 * b)) & 0xFF);
        }
      });
}

}  // namespace sfa::core
