#include "core/annulus_index.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>

#include "common/macros.h"
#include "spatial/simd_popcount.h"

#if defined(SFA_X86_SIMD)
#include <immintrin.h>
#endif

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

namespace {

/// The scalar arm for one 8-plane group: bytes[kStride * i] is point i's
/// group byte, and one WalkLadders pass adds each entry's spread-table word.
/// Plane shift + b's row is out + b * stride.
template <size_t kStride>
void ScalarCountGroup(const spatial::Csr32& csr, size_t num_centers,
                      size_t num_rungs, const uint8_t* bytes, size_t planes,
                      uint32_t* out, size_t stride) {
  using Totals = std::array<uint32_t, 8>;
  // Byte lane b of the chunk sum counts plane b; a chunk of at most
  // kLaneCapacity entries cannot overflow it.
  WalkLadders<Totals>(
      csr, num_centers, num_rungs,
      [bytes](uint32_t id) { return kSpread[bytes[kStride * size_t{id}]]; },
      [](Totals* carried, uint64_t lanes) {
        for (size_t b = 0; b < 8; ++b) {
          (*carried)[b] += static_cast<uint32_t>((lanes >> (8 * b)) & 0xFF);
        }
      },
      [out, stride, planes](size_t slot, const Totals& carried,
                            uint64_t lanes) {
        for (size_t b = 0; b < planes; ++b) {
          out[b * stride + slot] =
              carried[b] + static_cast<uint32_t>((lanes >> (8 * b)) & 0xFF);
        }
      });
}

/// The scalar arm on mask words: one group walk per 8-plane byte group, each
/// reading its byte of every word in place.
void ScalarCountPlanes(const spatial::Csr32& csr, size_t num_centers,
                       size_t num_rungs, const uint64_t* masks,
                       size_t num_planes, uint32_t* out, size_t stride) {
  for (size_t group = 0; group * 8 < num_planes; ++group) {
    const uint8_t* bytes = reinterpret_cast<const uint8_t*>(masks) +
                           (std::endian::native == std::endian::little
                                ? group
                                : 7 - group);
    ScalarCountGroup<sizeof(uint64_t)>(
        csr, num_centers, num_rungs, bytes,
        std::min<size_t>(8, num_planes - 8 * group), out + 8 * group * stride,
        stride);
  }
}

#if defined(SFA_X86_SIMD)

/// The rung-end counts of a run of up to 8 consecutive region slots,
/// world-minor (slot first + k's plane p at counts[k][p]) until the run is
/// written out plane by plane: one gather of the run's counts and one store
/// into the plane's row each, instead of one scattered store per (slot,
/// plane).
struct SlotRun {
  static constexpr size_t kSlots = 8;
  alignas(64) uint32_t counts[kSlots][64];
  size_t first = 0;
  size_t filled = 0;
};

/// Writes out and empties a run: plane p's counts are one 8-lane gather
/// (stride 64) and one masked store.
__attribute__((target("avx2"))) void WriteRun(SlotRun* run,
                                              size_t num_planes,
                                              uint32_t* out, size_t stride) {
  const __m256i live = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(run->filled)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256i slots = _mm256_setr_epi32(0, 64, 128, 192, 256, 320, 384, 448);
  const int* counts = reinterpret_cast<const int*>(run->counts);
  uint32_t* row = out + run->first;
  for (size_t p = 0; p < num_planes; ++p, row += stride) {
    const __m256i v = _mm256_mask_i32gather_epi32(
        _mm256_setzero_si256(), counts,
        _mm256_add_epi32(slots, _mm256_set1_epi32(static_cast<int>(p))), live,
        4);
    _mm256_maskstore_epi32(reinterpret_cast<int*>(row), live, v);
  }
  run->first += run->filled;
  run->filled = 0;
}

/// One entry's mask as 32 byte lanes of 0 or 0xFF: byte lane b of half h
/// is bit b of the mask's 32-bit half h. `pick` replicates each mask byte
/// over 8 lanes (vpshufb stays within 128-bit lanes, and the broadcast puts
/// the whole word in both).
__attribute__((target("avx2"))) inline __m256i MaskBytes(__m256i word,
                                                         __m256i pick,
                                                         __m256i bits) {
  return _mm256_cmpeq_epi8(_mm256_and_si256(_mm256_shuffle_epi8(word, pick),
                                            bits),
                           bits);
}

/// Adds 32 byte lanes into 32 uint32 totals (8 per register).
__attribute__((target("avx2"))) inline void FoldLanes32(__m256i lanes,
                                                        __m256i* totals) {
  const __m128i halves[2] = {_mm256_castsi256_si128(lanes),
                             _mm256_extracti128_si256(lanes, 1)};
  for (int h = 0; h < 2; ++h) {
    totals[2 * h] =
        _mm256_add_epi32(totals[2 * h], _mm256_cvtepu8_epi32(halves[h]));
    totals[2 * h + 1] = _mm256_add_epi32(
        totals[2 * h + 1],
        _mm256_cvtepu8_epi32(_mm_srli_si128(halves[h], 8)));
  }
}

/// 32 (kWide: 64) byte lanes in one (two) registers; each entry's mask
/// becomes bytes through a broadcast, vpshufb and vpcmpeqb. The lanes absorb
/// each entry, fold into 32-bit totals before any lane can have taken
/// kLaneCapacity entries, and every rung end emits totals + lanes.
template <bool kWide>
__attribute__((target("avx2"))) void Avx2CountPlanes(
    const spatial::Csr32& csr, size_t num_centers, size_t num_rungs,
    const uint64_t* masks, size_t num_planes, uint32_t* out, size_t stride) {
  const uint32_t* offsets = csr.offsets.data();
  const uint32_t* ids = csr.values.data();
  const __m256i pick_lo = _mm256_setr_epi64x(
      0, 0x0101010101010101LL, 0x0202020202020202LL, 0x0303030303030303LL);
  const __m256i pick_hi = _mm256_add_epi8(pick_lo, _mm256_set1_epi8(4));
  const __m256i bits = _mm256_set1_epi64x(0x8040201008040201LL);
  SlotRun run;
  constexpr int kHalves = kWide ? 2 : 1;
  for (size_t c = 0; c < num_centers; ++c) {
    __m256i totals[8];
    for (__m256i& t : totals) t = _mm256_setzero_si256();
    __m256i lo = _mm256_setzero_si256();
    __m256i hi = _mm256_setzero_si256();
    size_t room = kLaneCapacity;
    size_t slot = c * num_rungs;
    size_t j = offsets[slot];
    for (const size_t last = slot + num_rungs; slot < last; ++slot) {
      const size_t end = offsets[slot + 1];
      for (;;) {
        const size_t stop = std::min<size_t>(end, j + room);
        room -= stop - j;
        for (; j < stop; ++j) {
          const __m256i word =
              _mm256_set1_epi64x(static_cast<long long>(masks[ids[j]]));
          lo = _mm256_sub_epi8(lo, MaskBytes(word, pick_lo, bits));
          if constexpr (kWide) {
            hi = _mm256_sub_epi8(hi, MaskBytes(word, pick_hi, bits));
          }
        }
        if (j == end) break;
        FoldLanes32(lo, totals);
        if constexpr (kWide) FoldLanes32(hi, totals + 4);
        lo = _mm256_setzero_si256();
        hi = _mm256_setzero_si256();
        room = kLaneCapacity;
      }
      __m256i rung[8];
      for (int k = 0; k < 4 * kHalves; ++k) rung[k] = totals[k];
      FoldLanes32(lo, rung);
      if constexpr (kWide) FoldLanes32(hi, rung + 4);
      uint32_t* counts = run.counts[run.filled];
      for (int k = 0; k < 4 * kHalves; ++k) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(counts + 8 * k),
                           rung[k]);
      }
      if (++run.filled == SlotRun::kSlots) {
        WriteRun(&run, num_planes, out, stride);
      }
    }
  }
  WriteRun(&run, num_planes, out, stride);
}

#endif  // SFA_X86_SIMD

}  // namespace

void AnnulusIndex::CountPlanes(const uint64_t* masks, size_t num_planes,
                               uint32_t* out, size_t out_stride) const {
  SFA_CHECK((masks != nullptr || num_points_ == 0) && out != nullptr);
  SFA_CHECK(num_planes >= 1 && num_planes <= kMaxPlanes);
  SFA_CHECK(out_stride >= num_regions());
  // Calls of up to 8 planes take the scalar walk on every tier: it reads
  // one byte of each word, where the AVX2 walk broadcasts and spreads it.
  const bool simd =
      num_planes > 8 &&
      spatial::ActiveSamplerKernel() != spatial::PopcountKernel::kScalar;
#if defined(SFA_X86_SIMD)
  if (simd && num_planes > 32) {
    return Avx2CountPlanes<true>(csr_, num_centers_, num_rungs_, masks,
                                 num_planes, out, out_stride);
  }
  if (simd) {
    return Avx2CountPlanes<false>(csr_, num_centers_, num_rungs_, masks,
                                  num_planes, out, out_stride);
  }
#endif
  (void)simd;
  ScalarCountPlanes(csr_, num_centers_, num_rungs_, masks, num_planes, out,
                    out_stride);
}

void AnnulusIndex::CountPlaneBytes(const uint8_t* bytes, size_t num_planes,
                                   uint32_t* out, size_t out_stride) const {
  SFA_CHECK((bytes != nullptr || num_points_ == 0) && out != nullptr);
  SFA_CHECK(num_planes >= 1 && num_planes <= kBytePlanes);
  SFA_CHECK(out_stride >= num_regions());
  ScalarCountGroup<1>(csr_, num_centers_, num_rungs_, bytes, num_planes, out,
                      out_stride);
}

}  // namespace sfa::core
