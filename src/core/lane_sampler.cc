#include "core/lane_sampler.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <numeric>

#include "common/macros.h"
#include "core/labels.h"
#include "spatial/simd_popcount.h"

#if defined(SFA_X86_SIMD)
#include <immintrin.h>
#endif

namespace sfa::core {

namespace {

using spatial::PopcountKernel;

/// One 8-plane byte of every point's mask word: byte `byte` % 8 of the n
/// words at masks + (byte / 8)·n, planes 8·byte .. 8·byte + 7.
class PlaneBytes {
 public:
  PlaneBytes() = default;
  PlaneBytes(uint64_t* masks, size_t n, size_t byte)
      : first_(masks == nullptr
                   ? nullptr
                   : reinterpret_cast<uint8_t*>(masks + (byte / 8) * n) +
                         (std::endian::native == std::endian::little
                              ? byte % 8
                              : 7 - byte % 8)) {}

  uint8_t& operator[](size_t i) const { return first_[8 * i]; }

 private:
  uint8_t* first_ = nullptr;
};

/// Bits 0..num_worlds−1: the lanes that carry a world.
uint8_t LiveLanes(size_t num_worlds) {
  return static_cast<uint8_t>((1u << num_worlds) - 1);
}

/// World w's K class totals from its per-threshold exceedance counts:
/// above[c] points drew at or above m_c, and the thresholds are
/// non-decreasing, so class k holds above[k−1] − above[k] of them.
void AddClassTotals(const uint64_t* above, uint32_t counted, uint64_t n,
                    uint64_t* totals) {
  uint64_t at_least = n;
  for (uint32_t c = 0; c < counted; ++c) {
    totals[c] += at_least - above[c];
    at_least = above[c];
  }
  totals[counted] += at_least;
}

// ------------------------------------------------------------------ scalar ---

/// With kCounted > 0 thresholds the exceedance counters stay in registers;
/// kCounted == 0 takes `counted` of them and keeps a class histogram instead.
template <uint32_t kCounted>
void ScalarCategorical(const uint64_t* thresholds, uint32_t counted, size_t n,
                       size_t num_worlds, Rng* rngs, const PlaneBytes* planes,
                       uint64_t* totals) {
  constexpr uint32_t kSlots = kCounted > 0 ? kCounted : 255;
  if constexpr (kCounted > 0) counted = kCounted;
  uint64_t threshold[kSlots];
  std::copy(thresholds, thresholds + counted, threshold);
  for (uint32_t c = 0; c < counted; ++c) {
    for (size_t i = 0; i < n; ++i) planes[c][i] = 0;
  }
  for (size_t w = 0; w < num_worlds; ++w) {
    uint64_t count[kSlots + 1] = {};
    Rng local = rngs[w];
    for (size_t i = 0; i < n; ++i) {
      const uint64_t x = local.Next() >> 11;
      uint32_t k = 0;
      for (uint32_t c = 0; c < counted; ++c) {
        const uint32_t above = x >= threshold[c] ? 1u : 0u;
        k += above;
        if constexpr (kCounted > 0) count[c] += above;
      }
      if constexpr (kCounted == 0) ++count[k];
      // The last class has no plane: it ORs nothing into plane 0. Products,
      // not a branch: the class is a coin flip for near-uniform q.
      const uint32_t in_plane = k < counted ? 1u : 0u;
      planes[k * in_plane][i] |= static_cast<uint8_t>(in_plane << w);
    }
    rngs[w] = local;
    uint64_t* world_totals = totals + w * (counted + 1);
    if constexpr (kCounted > 0) {
      AddClassTotals(count, counted, n, world_totals);
    } else {
      for (uint32_t k = 0; k <= counted; ++k) world_totals[k] += count[k];
    }
  }
}

/// One world at a time: CellLaneTables::DrawWorld.
void ScalarCells(const CellLaneTables& t, size_t num_worlds, Rng* rngs,
                 uint32_t* cell_positives, uint64_t* totals) {
  for (size_t w = 0; w < num_worlds; ++w) {
    totals[w] = t.DrawWorld(&rngs[w], cell_positives + w * t.num_cells());
  }
}

/// One world at a time: DrawPermutationPositives on the first n ids.
void ScalarPermutation(size_t n, uint64_t positives, size_t num_worlds,
                       Rng* rngs, uint32_t* ids, PlaneBytes plane) {
  for (size_t i = 0; i < n; ++i) plane[i] = 0;
  for (size_t w = 0; w < num_worlds; ++w) {
    const auto bit = static_cast<uint8_t>(1u << w);
    DrawPermutationPositives(n, positives, &rngs[w], ids,
                             [plane, bit](uint32_t id) { plane[id] |= bit; });
  }
}

#if defined(SFA_X86_SIMD)

// GCC's avx512fintrin.h trips -W(maybe-)uninitialized on its own internal
// _mm512_undefined temporaries; the warning is in the system header.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// Up to 8 generators' state words, lane w = world w (dead lanes zero).
struct LaneStates {
  alignas(64) uint64_t words[4][kLaneWorlds] = {};

  LaneStates(const Rng* rngs, size_t num_worlds) {
    for (size_t w = 0; w < num_worlds; ++w) {
      const Rng::State state = rngs[w].state();
      for (size_t k = 0; k < 4; ++k) words[k][w] = state[k];
    }
  }
  void WriteBack(Rng* rngs, size_t num_worlds) const {
    for (size_t w = 0; w < num_worlds; ++w) {
      rngs[w].set_state(
          {words[0][w], words[1][w], words[2][w], words[3][w]});
    }
  }
};

/// Rng::NextUint64(bound) of lane w, whose generator in `states` has drawn
/// the x whose product x·bound has halves (high, low): when low < bound, the
/// rejection loop runs on a scalar copy of the generator, which then goes
/// back into the lane.
uint64_t FinishUniform(LaneStates* states, size_t w, uint64_t bound,
                       uint64_t high, uint64_t low) {
  const uint64_t threshold = -bound % bound;
  if (low >= threshold) return high;
  Rng rng;
  rng.set_state({states->words[0][w], states->words[1][w],
                 states->words[2][w], states->words[3][w]});
  unsigned __int128 m;
  do {
    m = static_cast<unsigned __int128>(rng.Next()) * bound;
  } while (static_cast<uint64_t>(m) < threshold);
  const Rng::State state = rng.state();
  for (size_t k = 0; k < 4; ++k) states->words[k][w] = state[k];
  return static_cast<uint64_t>(m >> 64);
}

/// Steps of a permutation draw whose offsets the lanes draw before each
/// world runs its swaps of them: 8 KB of uint32 offsets on the stack.
constexpr size_t kDrawBlock = 256;

/// World w's partial Fisher–Yates steps [i0, i0 + steps) on its own n ids
/// at ids + w·n, step i0 + k's draw being offsets[k·kLaneWorlds + w]: the
/// swap and mark of DrawPermutationPositives. One world at a time keeps the
/// swaps inside one world's ids rather than all eight worlds'.
inline void SwapWorld(uint64_t i0, size_t steps, const uint32_t* offsets,
                      size_t w, size_t n, uint32_t* ids, PlaneBytes plane) {
  uint32_t* world = ids + w * n;
  const auto bit = static_cast<uint8_t>(1u << w);
  for (size_t k = 0; k < steps; ++k) {
    const uint64_t i = i0 + k;
    uint32_t* other = world + i + offsets[k * kLaneWorlds + w];
    const uint32_t drawn = *other;
    // Slot i is never read again, so only slot j takes the swap's store.
    *other = world[i];
    plane[drawn] |= bit;
  }
}

/// The start of a permutation draw on every lane: the plane bytes cleared,
/// and world w's ids (at ids + w·n) the points 0..n−1.
void StartPermutation(size_t n, size_t num_worlds, uint32_t* ids,
                      PlaneBytes plane) {
  for (size_t i = 0; i < n; ++i) plane[i] = 0;
  for (size_t w = 0; w < num_worlds; ++w) {
    std::iota(ids + w * n, ids + (w + 1) * n, 0u);
  }
}

// -------------------------------------------------------------------- AVX2 ---
// Two groups of 4 lanes (worlds 0–3 and 4–7) step interleaved, which also
// gives the core two independent dependency chains. AVX2 has neither 64-bit
// rotates nor unsigned 64-bit compares: rotates are shift pairs, and the
// compares are signed, which is exact because both sides are below 2^63.

template <int kShift>
__attribute__((target("avx2"))) inline __m256i Rotl256(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, kShift),
                         _mm256_srli_epi64(x, 64 - kShift));
}

struct Xoshiro256x4 {
  __m256i s0, s1, s2, s3;
};

__attribute__((target("avx2"))) inline __m256i LoadWords256(
    const LaneStates& states, size_t k, size_t group) {
  return _mm256_load_si256(
      reinterpret_cast<const __m256i*>(states.words[k] + 4 * group));
}

__attribute__((target("avx2"))) inline Xoshiro256x4 Load256(
    const LaneStates& states, size_t group) {
  return {LoadWords256(states, 0, group), LoadWords256(states, 1, group),
          LoadWords256(states, 2, group), LoadWords256(states, 3, group)};
}

__attribute__((target("avx2"))) inline void Store256(const Xoshiro256x4& g,
                                                     LaneStates* states,
                                                     size_t group) {
  const __m256i words[4] = {g.s0, g.s1, g.s2, g.s3};
  for (size_t k = 0; k < 4; ++k) {
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(states->words[k] + 4 * group), words[k]);
  }
}

/// One Xoshiro256++ step in every lane; returns Next().
__attribute__((target("avx2"))) inline __m256i Nextx4(Xoshiro256x4* g) {
  const __m256i result =
      _mm256_add_epi64(Rotl256<23>(_mm256_add_epi64(g->s0, g->s3)), g->s0);
  const __m256i t = _mm256_slli_epi64(g->s1, 17);
  g->s2 = _mm256_xor_si256(g->s2, g->s0);
  g->s3 = _mm256_xor_si256(g->s3, g->s1);
  g->s1 = _mm256_xor_si256(g->s1, g->s2);
  g->s0 = _mm256_xor_si256(g->s0, g->s3);
  g->s2 = _mm256_xor_si256(g->s2, t);
  g->s3 = Rotl256<45>(g->s3);
  return result;
}

/// One Xoshiro256++ step in every lane; returns Next() >> 11.
__attribute__((target("avx2"))) inline __m256i Next53x4(Xoshiro256x4* g) {
  return _mm256_srli_epi64(Nextx4(g), 11);
}

/// Bit j set where lane j of `mask` (all ones or all zeros) is set.
__attribute__((target("avx2"))) inline uint32_t LaneBits256(__m256i mask) {
  return static_cast<uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(mask)));
}

template <uint32_t kCounted>
__attribute__((target("avx2"))) void Avx2Categorical(
    const uint64_t* thresholds, uint32_t counted, size_t n, size_t num_worlds,
    Rng* rngs, const PlaneBytes* planes, uint64_t* totals) {
  constexpr uint32_t kSlots = kCounted > 0 ? kCounted : 255;
  if constexpr (kCounted > 0) counted = kCounted;
  LaneStates states(rngs, num_worlds);
  Xoshiro256x4 a = Load256(states, 0);
  Xoshiro256x4 b = Load256(states, 1);
  __m256i limit[kSlots];
  __m256i below_a[kSlots];  // per lane: points below threshold c
  __m256i below_b[kSlots];
  for (uint32_t c = 0; c < counted; ++c) {
    limit[c] = _mm256_set1_epi64x(static_cast<long long>(thresholds[c]));
    below_a[c] = _mm256_setzero_si256();
    below_b[c] = _mm256_setzero_si256();
  }
  const uint32_t live = LiveLanes(num_worlds);
  for (size_t i = 0; i < n; ++i) {
    const __m256i xa = Next53x4(&a);
    const __m256i xb = Next53x4(&b);
    // Lanes at or above the previous threshold (all lanes before m_0).
    uint32_t previous = live;
    for (uint32_t c = 0; c < counted; ++c) {
      const __m256i lt_a = _mm256_cmpgt_epi64(limit[c], xa);
      const __m256i lt_b = _mm256_cmpgt_epi64(limit[c], xb);
      const uint32_t at_or_above =
          ~(LaneBits256(lt_a) | LaneBits256(lt_b) << 4) & live;
      planes[c][i] = static_cast<uint8_t>(previous & ~at_or_above);
      below_a[c] = _mm256_sub_epi64(below_a[c], lt_a);
      below_b[c] = _mm256_sub_epi64(below_b[c], lt_b);
      previous = at_or_above;
    }
  }
  Store256(a, &states, 0);
  Store256(b, &states, 1);
  states.WriteBack(rngs, num_worlds);
  uint64_t above[kLaneWorlds][kSlots];
  for (uint32_t c = 0; c < counted; ++c) {
    alignas(32) uint64_t lanes[kLaneWorlds];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), below_a[c]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4), below_b[c]);
    for (size_t w = 0; w < num_worlds; ++w) above[w][c] = n - lanes[w];
  }
  for (size_t w = 0; w < num_worlds; ++w) {
    AddClassTotals(above[w], counted, n, totals + w * (counted + 1));
  }
}

/// Every row starts as the point masses; the live cells overwrite theirs.
void FillConstantRows(const CellLaneTables& t, size_t num_worlds,
                      uint32_t* cell_positives) {
  for (size_t w = 0; w < num_worlds; ++w) {
    std::copy(t.constants.begin(), t.constants.end(),
              cell_positives + w * t.num_cells());
  }
}

/// Exact doubles of 4 lanes below 2^53: the high 21 and low 32 bits enter
/// the mantissas of 2^84 and 2^52, which are then subtracted off exactly.
__attribute__((target("avx2"))) inline __m256d ToDouble53x4(__m256i x) {
  const __m256i lo = _mm256_or_si256(
      _mm256_and_si256(x, _mm256_set1_epi64x(0xffffffff)),
      _mm256_set1_epi64x(0x4330000000000000));  // 2^52 + lo
  const __m256i hi = _mm256_or_si256(
      _mm256_srli_epi64(x, 32),
      _mm256_set1_epi64x(0x4530000000000000));  // 2^84 + hi·2^32
  const __m256d hi_exact = _mm256_sub_pd(
      _mm256_castsi256_pd(hi), _mm256_set1_pd(0x1.0p84 + 0x1.0p52));
  return _mm256_add_pd(hi_exact, _mm256_castsi256_pd(lo));
}

/// One draw of `table` in 4 lanes: CellLaneTables::Draw's arithmetic.
__attribute__((target("avx2"))) inline __m256i DrawCellx4(
    const CellLaneTables& t, const CellLaneTables::Table& table,
    Xoshiro256x4* g) {
  const __m256d u =
      _mm256_mul_pd(ToDouble53x4(Next53x4(g)), _mm256_set1_pd(0x1.0p-53));
  const __m256d x = _mm256_mul_pd(u, _mm256_set1_pd(table.size_d));
  // x < 2^31, so the 32-bit truncation is the scalar int64 one.
  const __m128i i32 = _mm_min_epi32(
      _mm256_cvttpd_epi32(x),
      _mm_set1_epi32(static_cast<int>(table.size - 1)));  // u ~ 1 edge
  const __m256i i = _mm256_cvtepi32_epi64(i32);
  // A column is 16 bytes: threshold at 16·i, alias 8 bytes on.
  const __m256i slot = _mm256_slli_epi64(i, 1);
  const double* base = &t.columns[table.offset].threshold;
  const __m256d threshold = _mm256_i64gather_pd(base, slot, 8);
  const __m256i alias = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(base + 1), slot, 8);
  const __m256d kept = _mm256_cmp_pd(
      _mm256_sub_pd(x, _mm256_cvtepi32_pd(i32)), threshold, _CMP_LT_OQ);
  const __m256i outcome = _mm256_castpd_si256(_mm256_blendv_pd(
      _mm256_castsi256_pd(alias), _mm256_castsi256_pd(i), kept));
  return _mm256_add_epi64(
      outcome, _mm256_set1_epi64x(static_cast<long long>(table.first)));
}

__attribute__((target("avx2"))) void Avx2Cells(const CellLaneTables& t,
                                               size_t num_worlds, Rng* rngs,
                                               uint32_t* cell_positives,
                                               uint64_t* totals) {
  FillConstantRows(t, num_worlds, cell_positives);
  LaneStates states(rngs, num_worlds);
  Xoshiro256x4 a = Load256(states, 0);
  Xoshiro256x4 b = Load256(states, 1);
  __m256i total_a = _mm256_setzero_si256();
  __m256i total_b = _mm256_setzero_si256();
  const size_t num_cells = t.num_cells();
  for (const CellLaneTables::LiveCell& live : t.live) {
    const CellLaneTables::Table& table = t.tables[live.table];
    const __m256i pa = DrawCellx4(t, table, &a);
    const __m256i pb = DrawCellx4(t, table, &b);
    total_a = _mm256_add_epi64(total_a, pa);
    total_b = _mm256_add_epi64(total_b, pb);
    alignas(32) uint64_t lanes[kLaneWorlds];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), pa);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4), pb);
    for (size_t w = 0; w < num_worlds; ++w) {
      cell_positives[w * num_cells + live.cell] =
          static_cast<uint32_t>(lanes[w]);
    }
  }
  if (t.outside) {
    total_a = _mm256_add_epi64(total_a, DrawCellx4(t, *t.outside, &a));
    total_b = _mm256_add_epi64(total_b, DrawCellx4(t, *t.outside, &b));
  }
  Store256(a, &states, 0);
  Store256(b, &states, 1);
  states.WriteBack(rngs, num_worlds);
  alignas(32) uint64_t lanes[kLaneWorlds];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), total_a);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4), total_b);
  for (size_t w = 0; w < num_worlds; ++w) {
    totals[w] = t.constant_total + lanes[w];
  }
}

/// x·bound for 4 lanes of 64-bit x and a 32-bit bound: the high and low
/// 64 bits of the 128-bit product, from two exact 32×32-bit products.
__attribute__((target("avx2"))) inline void MulHiLo4(__m256i x, __m256i bound,
                                                     __m256i* high,
                                                     __m256i* low) {
  const __m256i lo_part = _mm256_mul_epu32(x, bound);
  const __m256i hi_part = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), bound);
  const __m256i mid = _mm256_add_epi64(hi_part, _mm256_srli_epi64(lo_part, 32));
  *high = _mm256_srli_epi64(mid, 32);
  *low = _mm256_or_si256(
      _mm256_slli_epi64(mid, 32),
      _mm256_and_si256(lo_part, _mm256_set1_epi64x(0xffffffff)));
}

__attribute__((target("avx2"))) void Avx2Permutation(
    size_t n, uint64_t positives, size_t num_worlds, Rng* rngs, uint32_t* ids,
    PlaneBytes plane) {
  StartPermutation(n, num_worlds, ids, plane);
  LaneStates states(rngs, num_worlds);
  Xoshiro256x4 a = Load256(states, 0);
  Xoshiro256x4 b = Load256(states, 1);
  // Unsigned 64-bit compares as signed ones with the sign bits flipped.
  const __m256i sign = _mm256_set1_epi64x(INT64_MIN);
  // The low dword of each 64-bit lane, packed into the low 128 bits.
  const __m256i low_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const uint32_t live = LiveLanes(num_worlds);
  alignas(32) uint32_t offsets[kDrawBlock * kLaneWorlds];
  for (uint64_t i0 = 0; i0 < positives; i0 += kDrawBlock) {
    const size_t steps = std::min<uint64_t>(kDrawBlock, positives - i0);
    for (size_t k = 0; k < steps; ++k) {
      const uint64_t bound = n - (i0 + k);
      const __m256i bound4 = _mm256_set1_epi64x(static_cast<long long>(bound));
      __m256i high_a, low_a, high_b, low_b;
      MulHiLo4(Nextx4(&a), bound4, &high_a, &low_a);
      MulHiLo4(Nextx4(&b), bound4, &high_b, &low_b);
      const __m256i flipped_bound = _mm256_xor_si256(bound4, sign);
      const uint32_t rejected =
          (LaneBits256(_mm256_cmpgt_epi64(flipped_bound,
                                          _mm256_xor_si256(low_a, sign))) |
           LaneBits256(_mm256_cmpgt_epi64(flipped_bound,
                                          _mm256_xor_si256(low_b, sign)))
               << 4) &
          live;
      if (rejected != 0) {
        alignas(32) uint64_t high[kLaneWorlds];
        alignas(32) uint64_t low[kLaneWorlds];
        _mm256_store_si256(reinterpret_cast<__m256i*>(high), high_a);
        _mm256_store_si256(reinterpret_cast<__m256i*>(high + 4), high_b);
        _mm256_store_si256(reinterpret_cast<__m256i*>(low), low_a);
        _mm256_store_si256(reinterpret_cast<__m256i*>(low + 4), low_b);
        Store256(a, &states, 0);
        Store256(b, &states, 1);
        for (size_t w = 0; w < num_worlds; ++w) {
          if ((rejected >> w) & 1) {
            high[w] = FinishUniform(&states, w, bound, high[w], low[w]);
          }
        }
        a = Load256(states, 0);
        b = Load256(states, 1);
        high_a = _mm256_load_si256(reinterpret_cast<const __m256i*>(high));
        high_b =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(high + 4));
      }
      // Draws are below n − i < 2³², so their low dwords are the offsets.
      uint32_t* row = offsets + k * kLaneWorlds;
      _mm_store_si128(reinterpret_cast<__m128i*>(row),
                      _mm256_castsi256_si128(
                          _mm256_permutevar8x32_epi32(high_a, low_dwords)));
      _mm_store_si128(reinterpret_cast<__m128i*>(row + 4),
                      _mm256_castsi256_si128(
                          _mm256_permutevar8x32_epi32(high_b, low_dwords)));
    }
    for (size_t w = 0; w < num_worlds; ++w) {
      SwapWorld(i0, steps, offsets, w, n, ids, plane);
    }
  }
  Store256(a, &states, 0);
  Store256(b, &states, 1);
  states.WriteBack(rngs, num_worlds);
}

// ----------------------------------------------------------------- AVX-512 ---
// 8 lanes in one register; AVX-512F alone has the rotate, the unsigned
// compare into a lane mask (which is the mask byte) and the masked add.

struct Xoshiro256x8 {
  __m512i s0, s1, s2, s3;
};

__attribute__((target("avx512f"))) inline Xoshiro256x8 Load512(
    const LaneStates& states) {
  return {_mm512_load_si512(states.words[0]), _mm512_load_si512(states.words[1]),
          _mm512_load_si512(states.words[2]),
          _mm512_load_si512(states.words[3])};
}

__attribute__((target("avx512f"))) inline void Store512(const Xoshiro256x8& g,
                                                        LaneStates* states) {
  _mm512_store_si512(states->words[0], g.s0);
  _mm512_store_si512(states->words[1], g.s1);
  _mm512_store_si512(states->words[2], g.s2);
  _mm512_store_si512(states->words[3], g.s3);
}

/// One Xoshiro256++ step in every lane; returns Next().
__attribute__((target("avx512f"))) inline __m512i Nextx8(Xoshiro256x8* g) {
  const __m512i result = _mm512_add_epi64(
      _mm512_rol_epi64(_mm512_add_epi64(g->s0, g->s3), 23), g->s0);
  const __m512i t = _mm512_slli_epi64(g->s1, 17);
  g->s2 = _mm512_xor_si512(g->s2, g->s0);
  g->s3 = _mm512_xor_si512(g->s3, g->s1);
  g->s1 = _mm512_xor_si512(g->s1, g->s2);
  g->s0 = _mm512_xor_si512(g->s0, g->s3);
  g->s2 = _mm512_xor_si512(g->s2, t);
  g->s3 = _mm512_rol_epi64(g->s3, 45);
  return result;
}

/// One Xoshiro256++ step in every lane; returns Next() >> 11.
__attribute__((target("avx512f"))) inline __m512i Next53x8(Xoshiro256x8* g) {
  return _mm512_srli_epi64(Nextx8(g), 11);
}

template <uint32_t kCounted>
__attribute__((target("avx512f"))) void Avx512Categorical(
    const uint64_t* thresholds, uint32_t counted, size_t n, size_t num_worlds,
    Rng* rngs, const PlaneBytes* planes, uint64_t* totals) {
  constexpr uint32_t kSlots = kCounted > 0 ? kCounted : 255;
  if constexpr (kCounted > 0) counted = kCounted;
  LaneStates states(rngs, num_worlds);
  Xoshiro256x8 g = Load512(states);
  __m512i limit[kSlots];
  __m512i above[kSlots];  // per lane: points at or above threshold c
  for (uint32_t c = 0; c < counted; ++c) {
    limit[c] = _mm512_set1_epi64(static_cast<long long>(thresholds[c]));
    above[c] = _mm512_setzero_si512();
  }
  const __m512i one = _mm512_set1_epi64(1);
  const __mmask8 live = LiveLanes(num_worlds);
  for (size_t i = 0; i < n; ++i) {
    const __m512i x = Next53x8(&g);
    // Lanes at or above the previous threshold (all lanes before m_0).
    __mmask8 previous = live;
    for (uint32_t c = 0; c < counted; ++c) {
      const __mmask8 at_or_above =
          _mm512_mask_cmpge_epu64_mask(live, x, limit[c]);
      planes[c][i] = static_cast<uint8_t>(previous & ~at_or_above);
      above[c] = _mm512_mask_add_epi64(above[c], at_or_above, above[c], one);
      previous = at_or_above;
    }
  }
  Store512(g, &states);
  states.WriteBack(rngs, num_worlds);
  uint64_t world_above[kLaneWorlds][kSlots];
  for (uint32_t c = 0; c < counted; ++c) {
    alignas(64) uint64_t lanes[kLaneWorlds];
    _mm512_store_si512(lanes, above[c]);
    for (size_t w = 0; w < num_worlds; ++w) world_above[w][c] = lanes[w];
  }
  for (size_t w = 0; w < num_worlds; ++w) {
    AddClassTotals(world_above[w], counted, n, totals + w * (counted + 1));
  }
}

/// Exact doubles of 8 lanes below 2^53 (ToDouble53x4's construction; not
/// _mm512_cvtepu64_pd, which is AVX-512DQ).
__attribute__((target("avx512f"))) inline __m512d ToDouble53x8(__m512i x) {
  const __m512i lo = _mm512_or_si512(
      _mm512_and_si512(x, _mm512_set1_epi64(0xffffffff)),
      _mm512_set1_epi64(0x4330000000000000));  // 2^52 + lo
  const __m512i hi = _mm512_or_si512(
      _mm512_srli_epi64(x, 32),
      _mm512_set1_epi64(0x4530000000000000));  // 2^84 + hi·2^32
  const __m512d hi_exact = _mm512_sub_pd(
      _mm512_castsi512_pd(hi), _mm512_set1_pd(0x1.0p84 + 0x1.0p52));
  return _mm512_add_pd(hi_exact, _mm512_castsi512_pd(lo));
}

/// One draw of `table` in 8 lanes: CellLaneTables::Draw's arithmetic.
__attribute__((target("avx512f"))) inline __m512i DrawCellx8(
    const CellLaneTables& t, const CellLaneTables::Table& table,
    Xoshiro256x8* g) {
  const __m512d u =
      _mm512_mul_pd(ToDouble53x8(Next53x8(g)), _mm512_set1_pd(0x1.0p-53));
  const __m512d x = _mm512_mul_pd(u, _mm512_set1_pd(table.size_d));
  // x < 2^31, so the 32-bit truncation is the scalar int64 one.
  const __m512i i = _mm512_min_epu64(
      _mm512_cvtepi32_epi64(_mm512_cvttpd_epi32(x)),
      _mm512_set1_epi64(table.size - 1));  // u ~ 1 edge
  // A column is 16 bytes: threshold at 16·i, alias 8 bytes on.
  const __m512i slot = _mm512_slli_epi64(i, 1);
  const double* base = &t.columns[table.offset].threshold;
  const __m512d threshold = _mm512_i64gather_pd(slot, base, 8);
  const __m512i alias = _mm512_i64gather_epi64(slot, base + 1, 8);
  const __mmask8 kept = _mm512_cmp_pd_mask(
      _mm512_sub_pd(x, ToDouble53x8(i)), threshold, _CMP_LT_OQ);
  return _mm512_add_epi64(
      _mm512_mask_blend_epi64(kept, alias, i),
      _mm512_set1_epi64(static_cast<long long>(table.first)));
}

__attribute__((target("avx512f"))) void Avx512Cells(const CellLaneTables& t,
                                                    size_t num_worlds,
                                                    Rng* rngs,
                                                    uint32_t* cell_positives,
                                                    uint64_t* totals) {
  FillConstantRows(t, num_worlds, cell_positives);
  LaneStates states(rngs, num_worlds);
  Xoshiro256x8 g = Load512(states);
  const __mmask8 live_lanes = LiveLanes(num_worlds);
  // Lane w scatters into row w.
  alignas(64) uint64_t row_starts[kLaneWorlds];
  for (size_t w = 0; w < kLaneWorlds; ++w) row_starts[w] = w * t.num_cells();
  const __m512i row = _mm512_load_si512(row_starts);
  __m512i total = _mm512_setzero_si512();
  for (const CellLaneTables::LiveCell& live : t.live) {
    const __m512i p = DrawCellx8(t, t.tables[live.table], &g);
    total = _mm512_add_epi64(total, p);
    _mm512_mask_i64scatter_epi32(cell_positives + live.cell, live_lanes, row,
                                 _mm512_cvtepi64_epi32(p), 4);
  }
  if (t.outside) {
    total = _mm512_add_epi64(total, DrawCellx8(t, *t.outside, &g));
  }
  Store512(g, &states);
  states.WriteBack(rngs, num_worlds);
  alignas(64) uint64_t lanes[kLaneWorlds];
  _mm512_store_si512(lanes, total);
  for (size_t w = 0; w < num_worlds; ++w) {
    totals[w] = t.constant_total + lanes[w];
  }
}

/// x·bound for 8 lanes of 64-bit x and a 32-bit bound: MulHiLo4's halves.
__attribute__((target("avx512f"))) inline void MulHiLo8(__m512i x,
                                                        __m512i bound,
                                                        __m512i* high,
                                                        __m512i* low) {
  const __m512i lo_part = _mm512_mul_epu32(x, bound);
  const __m512i hi_part = _mm512_mul_epu32(_mm512_srli_epi64(x, 32), bound);
  const __m512i mid = _mm512_add_epi64(hi_part, _mm512_srli_epi64(lo_part, 32));
  *high = _mm512_srli_epi64(mid, 32);
  *low = _mm512_or_si512(
      _mm512_slli_epi64(mid, 32),
      _mm512_and_si512(lo_part, _mm512_set1_epi64(0xffffffff)));
}

__attribute__((target("avx512f"))) void Avx512Permutation(
    size_t n, uint64_t positives, size_t num_worlds, Rng* rngs, uint32_t* ids,
    PlaneBytes plane) {
  StartPermutation(n, num_worlds, ids, plane);
  LaneStates states(rngs, num_worlds);
  Xoshiro256x8 g = Load512(states);
  const __mmask8 live = LiveLanes(num_worlds);
  alignas(32) uint32_t offsets[kDrawBlock * kLaneWorlds];
  for (uint64_t i0 = 0; i0 < positives; i0 += kDrawBlock) {
    const size_t steps = std::min<uint64_t>(kDrawBlock, positives - i0);
    for (size_t k = 0; k < steps; ++k) {
      const uint64_t bound = n - (i0 + k);
      const __m512i bound8 = _mm512_set1_epi64(static_cast<long long>(bound));
      __m512i high;
      __m512i low;
      MulHiLo8(Nextx8(&g), bound8, &high, &low);
      const __mmask8 rejected =
          _mm512_mask_cmplt_epu64_mask(live, low, bound8);
      if (rejected != 0) {
        alignas(64) uint64_t highs[kLaneWorlds];
        alignas(64) uint64_t lows[kLaneWorlds];
        _mm512_store_si512(highs, high);
        _mm512_store_si512(lows, low);
        Store512(g, &states);
        for (size_t w = 0; w < num_worlds; ++w) {
          if ((rejected >> w) & 1) {
            highs[w] = FinishUniform(&states, w, bound, highs[w], lows[w]);
          }
        }
        g = Load512(states);
        high = _mm512_load_si512(highs);
      }
      // Draws are below n − i < 2³², so the truncation to dwords is exact.
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(offsets + k * kLaneWorlds),
          _mm512_cvtepi64_epi32(high));
    }
    for (size_t w = 0; w < num_worlds; ++w) {
      SwapWorld(i0, steps, offsets, w, n, ids, plane);
    }
  }
  Store512(g, &states);
  states.WriteBack(rngs, num_worlds);
}

#pragma GCC diagnostic pop

#endif  // SFA_X86_SIMD

template <uint32_t kCounted>
void Categorical(PopcountKernel tier, const uint64_t* thresholds,
                 uint32_t counted, size_t n, size_t num_worlds, Rng* rngs,
                 const PlaneBytes* planes, uint64_t* totals) {
  switch (tier) {
#if defined(SFA_X86_SIMD)
    case PopcountKernel::kAvx512:
      return Avx512Categorical<kCounted>(thresholds, counted, n, num_worlds,
                                         rngs, planes, totals);
    case PopcountKernel::kAvx2:
      return Avx2Categorical<kCounted>(thresholds, counted, n, num_worlds,
                                       rngs, planes, totals);
#endif
    default:
      return ScalarCategorical<kCounted>(thresholds, counted, n, num_worlds,
                                         rngs, planes, totals);
  }
}

}  // namespace

void SampleBernoulliLanes(double rho, size_t n, size_t num_worlds, Rng* rngs,
                          uint64_t* masks, size_t byte, uint64_t* positives) {
  SFA_CHECK(num_worlds >= 1 && num_worlds <= kLaneWorlds);
  SFA_CHECK(byte < kMaskBytes);
  SFA_CHECK(rngs != nullptr && positives != nullptr);
  SFA_CHECK(n == 0 || masks != nullptr);
  const PlaneBytes plane(masks, n, byte);
  // Point masses consume no draws, exactly as Rng::Bernoulli.
  if (rho <= 0.0 || rho >= 1.0) {
    const uint8_t value = rho >= 1.0 ? LiveLanes(num_worlds) : 0;
    for (size_t i = 0; i < n; ++i) plane[i] = value;
    std::fill(positives, positives + num_worlds, value != 0 ? n : 0);
    return;
  }
  // A Bernoulli world is a 2-class world on m_0 = ⌈ρ·2⁵³⌉: class 0, the
  // points drawn below m_0, are the positives.
  const uint64_t threshold = Rng::BernoulliThreshold(rho);
  uint64_t totals[2 * kLaneWorlds] = {};
  Categorical<1>(spatial::ActiveSamplerKernel(), &threshold, 1, n, num_worlds,
                 rngs, &plane, totals);
  for (size_t w = 0; w < num_worlds; ++w) positives[w] = totals[2 * w];
}

void SampleCategoricalLanes(const std::vector<uint64_t>& thresholds, size_t n,
                            size_t num_worlds, Rng* rngs, uint64_t* masks,
                            size_t byte, uint64_t* totals) {
  SFA_CHECK(num_worlds >= 1 && num_worlds <= kLaneWorlds);
  SFA_CHECK(!thresholds.empty() && thresholds.size() <= 255);
  SFA_CHECK(rngs != nullptr && totals != nullptr);
  SFA_CHECK(n == 0 || masks != nullptr);
  const auto counted = static_cast<uint32_t>(thresholds.size());
  PlaneBytes planes[255];
  for (uint32_t c = 0; c < counted; ++c) {
    planes[c] = PlaneBytes(masks, n, byte + c);
  }
  const PopcountKernel tier = spatial::ActiveSamplerKernel();
  const uint64_t* m = thresholds.data();
  switch (counted) {
    case 1:
      return Categorical<1>(tier, m, counted, n, num_worlds, rngs, planes,
                            totals);
    case 2:
      return Categorical<2>(tier, m, counted, n, num_worlds, rngs, planes,
                            totals);
    case 3:
      return Categorical<3>(tier, m, counted, n, num_worlds, rngs, planes,
                            totals);
    default:
      return Categorical<0>(tier, m, counted, n, num_worlds, rngs, planes,
                            totals);
  }
}

void SampleCellLanes(const CellLaneTables& tables, size_t num_worlds,
                     Rng* rngs, uint32_t* cell_positives, uint64_t* totals) {
  SFA_CHECK(num_worlds >= 1 && num_worlds <= kLaneWorlds);
  SFA_CHECK(rngs != nullptr && totals != nullptr);
  SFA_CHECK(tables.num_cells() == 0 || cell_positives != nullptr);
  switch (spatial::ActiveSamplerKernel()) {
#if defined(SFA_X86_SIMD)
    case PopcountKernel::kAvx512:
      return Avx512Cells(tables, num_worlds, rngs, cell_positives, totals);
    case PopcountKernel::kAvx2:
      return Avx2Cells(tables, num_worlds, rngs, cell_positives, totals);
#endif
    default:
      return ScalarCells(tables, num_worlds, rngs, cell_positives, totals);
  }
}

void SamplePermutationLanes(size_t n, uint64_t positives, size_t num_worlds,
                            Rng* rngs, uint32_t* ids, uint64_t* masks,
                            size_t byte) {
  SFA_CHECK(num_worlds >= 1 && num_worlds <= kLaneWorlds);
  SFA_CHECK(byte < kMaskBytes);
  SFA_CHECK(n <= UINT32_MAX);
  SFA_CHECK_MSG(positives <= n, "more positives than points");
  SFA_CHECK(rngs != nullptr);
  SFA_CHECK(n == 0 || (ids != nullptr && masks != nullptr));
  const PlaneBytes plane(masks, n, byte);
  switch (spatial::ActiveSamplerKernel()) {
#if defined(SFA_X86_SIMD)
    case PopcountKernel::kAvx512:
      return Avx512Permutation(n, positives, num_worlds, rngs, ids, plane);
    case PopcountKernel::kAvx2:
      return Avx2Permutation(n, positives, num_worlds, rngs, ids, plane);
#endif
    default:
      return ScalarPermutation(n, positives, num_worlds, rngs, ids, plane);
  }
}

size_t WorldTile(size_t num_points, size_t num_regions, uint32_t counted) {
  const auto block_bytes = [&](size_t worlds) {
    const size_t words = (worlds * counted + 63) / 64;
    return words * num_points * sizeof(uint64_t) +
           worlds * counted * num_regions * sizeof(uint32_t);
  };
  size_t tile = kLaneWorlds * kMaskBytes;
  while (tile > kLaneWorlds && block_bytes(tile) > kTileBlockBytes) {
    tile -= kLaneWorlds;
  }
  return tile;
}

namespace {

struct PooledBlock {
  std::unique_ptr<std::byte[]> data;
  size_t bytes = 0;
  bool held = false;
};

PooledBlock& LocalPooledBlock() {
  static thread_local PooledBlock block;
  return block;
}

}  // namespace

BatchBlock::BatchBlock(size_t bytes) {
  PooledBlock& pooled = LocalPooledBlock();
  if (pooled.held) {
    own_.reset(new std::byte[bytes]);
    data_ = own_.get();
    return;
  }
  if (pooled.data == nullptr || bytes > pooled.bytes) {
    pooled.data.reset();  // free the old block first: the two never coexist
    pooled.data.reset(new std::byte[bytes]);
    pooled.bytes = bytes;
  }
  pooled.held = true;
  data_ = pooled.data.get();
}

BatchBlock::~BatchBlock() {
  if (own_ == nullptr) LocalPooledBlock().held = false;
}

}  // namespace sfa::core
