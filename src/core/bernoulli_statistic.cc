#include "core/bernoulli_statistic.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <numeric>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/cell_sampler_bank.h"
#include "core/lane_sampler.h"
#include "spatial/simd_popcount.h"

#if defined(SFA_X86_SIMD)
#include <immintrin.h>
#endif

namespace sfa::core {

// The lane-sampler calls of one tile fill at most one mask word.
static_assert(kLaneWorlds * kMaskBytes == RegionFamily::kMaxPlanes);

namespace {

std::vector<uint64_t> RegionSizes(const RegionFamily& family) {
  std::vector<uint64_t> sizes(family.num_regions());
  for (size_t r = 0; r < sizes.size(); ++r) sizes[r] = family.PointCount(r);
  return sizes;
}

/// Everything per-world execution needs, precomputed once per simulation and
/// shared read-only across worker threads (the original mc_engine
/// SimulationContext, re-seated behind StatisticSimulation verbatim — its
/// RNG streams and table arithmetic are pinned by the golden and determinism
/// suites).
class BernoulliSimulation : public StatisticSimulation {
 public:
  BernoulliSimulation(const RegionFamily& family, double rho,
                      uint64_t total_positives, stats::ScanDirection direction,
                      const MonteCarloOptions& options)
      : family_(family),
        rho_(rho),
        total_positives_(total_positives),
        direction_(direction),
        options_(options),
        table_(family.num_points()),
        cells_(options.closed_form_cells &&
                       options.null_model == NullModel::kBernoulli
                   ? family.cell_decomposition()
                   : nullptr),
        plan_(RegionSizes(family), family.num_points()),
        root_(options.seed) {
    if (cells_ != nullptr) {
      samplers_ = std::make_unique<CellSamplerBank>(*cells_, rho_);
    }
  }

  void RunWorldBatch(size_t w_lo, size_t w_hi, double* out) const override {
    const size_t num_regions = family_.num_regions();
    const uint64_t total_n = family_.num_points();

    if (cells_ != nullptr) {
      // Closed-form worlds, kLaneWorlds at a time: the bank draws their cell
      // rows side by side, then each row is max-scanned, as it is when the
      // regions are the cells and through the family's fold otherwise.
      const size_t num_cells = samplers_->num_cells();
      const bool direct = cells_->cells_are_regions;
      const size_t region_bytes = direct ? 0 : num_regions * sizeof(uint32_t);
      const BatchBlock block(region_bytes +
                             kLaneWorlds * num_cells * sizeof(uint32_t));
      uint32_t* region_counts =
          direct ? nullptr : new (block.data()) uint32_t[num_regions];
      uint32_t* cell_rows =
          new (block.data() + region_bytes) uint32_t[kLaneWorlds * num_cells];
      for (size_t g = w_lo; g < w_hi; g += kLaneWorlds) {
        const size_t lanes = std::min(kLaneWorlds, w_hi - g);
        Rng rngs[kLaneWorlds];
        for (size_t j = 0; j < lanes; ++j) rngs[j] = root_.Split(g + j);
        uint64_t total_p[kLaneWorlds];
        samplers_->DrawLanes(lanes, rngs, cell_rows, total_p);
        for (size_t j = 0; j < lanes; ++j) {
          const uint32_t* row = cell_rows + j * num_cells;
          if (!direct) {
            family_.CountPositivesFromCells(row, region_counts);
            row = region_counts;
          }
          out[g + j] = plan_.Max(row, total_p[j], direction_, table_);
        }
      }
      return;
    }

    // i.i.d. point worlds are drawn by the lane sampler, permutation worlds
    // by its permutation lanes, a tile of up to 64 worlds at a time: world
    // t + j is bit j of every point's mask word, written kLaneWorlds worlds
    // (one byte) per sampler call, and one CountPlanes walk counts the tile.
    // The count rows share their storage with the shuffle ids, which are
    // dead before CountPlanes writes the counts.
    const bool permutation = options_.null_model != NullModel::kBernoulli;
    const size_t tile = WorldTile(total_n, num_regions, 1);
    const size_t mask_bytes = total_n * sizeof(uint64_t);
    const size_t rows_bytes =
        std::max(tile * num_regions * sizeof(uint32_t),
                 permutation ? kLaneWorlds * total_n * sizeof(uint32_t) : 0);
    const BatchBlock block(mask_bytes + rows_bytes);
    uint64_t* masks = new (block.data()) uint64_t[total_n];
    std::byte* rows = block.data() + mask_bytes;
    for (size_t t = w_lo; t < w_hi; t += tile) {
      const size_t worlds = std::min(tile, w_hi - t);
      uint64_t positives[RegionFamily::kMaxPlanes];
      for (size_t g = 0; g * kLaneWorlds < worlds; ++g) {
        const size_t first = g * kLaneWorlds;
        const size_t lanes = std::min(kLaneWorlds, worlds - first);
        Rng rngs[kLaneWorlds];
        for (size_t j = 0; j < lanes; ++j) rngs[j] = root_.Split(t + first + j);
        if (permutation) {
          uint32_t* ids = new (rows) uint32_t[kLaneWorlds * total_n];
          SamplePermutationLanes(total_n, total_positives_, lanes, rngs, ids,
                                 masks, g);
          std::fill(positives + first, positives + first + lanes,
                    total_positives_);
        } else {
          SampleBernoulliLanes(rho_, total_n, lanes, rngs, masks, g,
                               positives + first);
        }
      }
      uint32_t* counts = new (rows) uint32_t[worlds * num_regions];
      family_.CountPlanes(masks, worlds, counts, num_regions);
      for (size_t j = 0; j < worlds; ++j) {
        out[t + j] = plan_.Max(counts + j * num_regions, positives[j],
                               direction_, table_);
      }
    }
  }

 private:
  const RegionFamily& family_;
  double rho_;
  uint64_t total_positives_;
  stats::ScanDirection direction_;
  MonteCarloOptions options_;
  stats::LogLikelihoodTable table_;
  const CellDecomposition* cells_;  // non-null => closed-form sampling
  internal::LlrMaxPlan plan_;
  std::unique_ptr<CellSamplerBank> samplers_;  // non-null iff cells_ is
  Rng root_;
};

}  // namespace

namespace internal {

LlrMaxPlan::LlrMaxPlan(const std::vector<uint64_t>& region_n,
                       uint64_t total_n)
    : total_n_(total_n) {
  SFA_CHECK(region_n.size() <= UINT32_MAX);
  SFA_CHECK(total_n <= kMaxFamilyPoints);
  // Regions of size 0 or N never contribute.
  std::vector<uint32_t> order;
  order.reserve(region_n.size());
  for (size_t r = 0; r < region_n.size(); ++r) {
    if (region_n[r] > 0 && region_n[r] < total_n) {
      order.push_back(static_cast<uint32_t>(r));
    }
  }
  if (total_n > kMaxGroupedPoints) {
    for (uint32_t r : order) {
      direct_n_.push_back(region_n[r]);
      direct_regions_.push_back(r);
    }
    return;
  }
  // One stable sort of the ids by n turns every size group into a run with
  // ascending ids. As n < 2^22 it takes two counting passes over 11-bit
  // digits, where a comparison sort mispredicts on nearly every compare.
  constexpr uint32_t kDigitBits = 11;
  constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;
  std::vector<uint32_t> sorted(order.size());
  std::vector<size_t> slot(kDigitMask + 2);
  for (const uint32_t shift : {0u, kDigitBits}) {
    std::fill(slot.begin(), slot.end(), 0);
    for (uint32_t r : order) ++slot[((region_n[r] >> shift) & kDigitMask) + 1];
    std::partial_sum(slot.begin(), slot.end(), slot.begin());
    for (uint32_t r : order) {
      sorted[slot[(region_n[r] >> shift) & kDigitMask]++] = r;
    }
    order.swap(sorted);
  }
  // Runs of 3+ become reduced groups, the rest stay direct.
  std::vector<bool> is_direct(region_n.size(), false);
  for (size_t begin = 0, end = 0; begin < order.size(); begin = end) {
    const uint64_t n = region_n[order[begin]];
    end = begin + 1;
    while (end < order.size() && region_n[order[end]] == n) ++end;
    if (end - begin >= 3) {
      groups_.push_back({n, grouped_.size(), grouped_.size() + end - begin});
      grouped_.insert(grouped_.end(), order.begin() + begin,
                      order.begin() + end);
    } else {
      for (size_t i = begin; i < end; ++i) is_direct[order[i]] = true;
    }
  }
  // The groups of at most kMaxLaneGroup regions go first, by size, so that
  // each batch of kBatchLanes pads few steps.
  const auto size_of = [](const Group& g) { return g.end - g.begin; };
  const auto batch_key = [&](const Group& g) {
    return std::min(size_of(g), kMaxLaneGroup + 1);
  };
  std::stable_sort(groups_.begin(), groups_.end(),
                   [&](const Group& a, const Group& b) {
                     return batch_key(a) < batch_key(b);
                   });
  while (num_batched_groups_ < groups_.size() &&
         size_of(groups_[num_batched_groups_]) <= kMaxLaneGroup) {
    ++num_batched_groups_;
  }
  for (size_t b = 0; b < num_batched_groups_; b += kBatchLanes) {
    const Group* batch = groups_.data() + b;
    const size_t lanes = std::min(kBatchLanes, num_batched_groups_ - b);
    const size_t steps = size_of(batch[lanes - 1]);
    batch_steps_.push_back(static_cast<uint32_t>(steps));
    for (size_t k = 0; k < steps; ++k) {
      for (size_t j = 0; j < kBatchLanes; ++j) {
        const Group& g = batch[j < lanes ? j : 0];
        batch_ids_.push_back(grouped_[g.begin + std::min(k, size_of(g) - 1)]);
      }
    }
    for (size_t j = 0; j < kBatchLanes; ++j) {
      batch_n_.push_back(batch[j < lanes ? j : 0].n);
    }
  }
  for (size_t r = 0; r < region_n.size(); ++r) {
    if (is_direct[r]) {
      direct_n_.push_back(region_n[r]);
      direct_regions_.push_back(static_cast<uint32_t>(r));
    }
  }
}

/// Max's three arms. A friend of LlrMaxPlan, so they read its layout.
struct LlrMaxArms {
  using Direction = stats::ScanDirection;

  template <Direction kDirection>
  static double Scalar(const LlrMaxPlan& plan, const uint32_t* positives,
                       uint64_t total_p,
                       const stats::LogLikelihoodTable& table) {
    const uint64_t total_n = plan.total_n_;
    // Inlined table LLR with the per-world constant null term hoisted out of
    // the region loops. Operation order matches
    // stats::BernoulliLogLikelihoodRatio(counts, direction, table) exactly
    // — (ll_in + ll_out) - null with the same gating — so maxima are
    // bit-equal to the stats-layer evaluation (asserted by
    // test_mc_engine.cc).
    const double null_ll = table.MaxBernoulliLogLikelihood(total_p, total_n);
    double max_llr = 0.0;
    const auto consider = [&](uint64_t n, uint64_t p) {
      const uint64_t n_out = total_n - n;
      const uint64_t p_out = total_p - p;
      // Every factor is at most N < 2³², so the products are exact.
      const uint64_t lhs = p * n_out;
      const uint64_t rhs = p_out * n;
      if (lhs == rhs) return;
      if (kDirection == Direction::kHigh && lhs < rhs) return;
      if (kDirection == Direction::kLow && lhs > rhs) return;
      const double llr = table.MaxBernoulliLogLikelihood(p, n) +
                         table.MaxBernoulliLogLikelihood(p_out, n_out) -
                         null_ll;
      max_llr = llr > max_llr ? llr : max_llr;
    };
    for (const LlrMaxPlan::Group& group : plan.groups_) {
      uint64_t lo = positives[plan.grouped_[group.begin]];
      uint64_t hi = lo;
      for (size_t i = group.begin + 1; i < group.end; ++i) {
        const uint64_t p = positives[plan.grouped_[i]];
        lo = std::min(lo, p);
        hi = std::max(hi, p);
      }
      ForEachEnd<kDirection>(lo, hi, [&](uint64_t p) { consider(group.n, p); });
    }
    for (size_t i = 0; i < plan.direct_n_.size(); ++i) {
      consider(plan.direct_n_[i], positives[plan.direct_regions_[i]]);
    }
    return max_llr;
  }

  /// Calls end(p) for each end of a size group with counts [lo, hi] that
  /// the direction evaluates.
  template <Direction kDirection, typename End>
  static void ForEachEnd(uint64_t lo, uint64_t hi, End end) {
    if (kDirection != Direction::kLow) end(hi);
    if (kDirection == Direction::kLow ||
        (kDirection == Direction::kTwoSided && lo != hi)) {
      end(lo);
    }
  }

#if defined(SFA_X86_SIMD)
  template <Direction kDirection>
  static double Avx2(const LlrMaxPlan& plan, const uint32_t* positives,
                     uint64_t total_p, const stats::LogLikelihoodTable& table);
  template <Direction kDirection>
  static double Avx512(const LlrMaxPlan& plan, const uint32_t* positives,
                       uint64_t total_p,
                       const stats::LogLikelihoodTable& table);
#endif
};

#if defined(SFA_X86_SIMD)

// GCC's avx512fintrin.h trips -W(maybe-)uninitialized on its own internal
// _mm512_undefined temporaries; the warning is in the system header.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace {

using stats::ScanDirection;

/// The most ends ForEachEnd gives one size group.
template <ScanDirection kDirection>
constexpr size_t kEndsPerGroup =
    kDirection == ScanDirection::kTwoSided ? 2 : 1;

/// The final fold of the lane maxima: the scalar arm's fold, from +0.0.
double FoldLanes(const double* lanes, size_t count) {
  double max_llr = 0.0;
  for (size_t i = 0; i < count; ++i) {
    max_llr = lanes[i] > max_llr ? lanes[i] : max_llr;
  }
  return max_llr;
}

// -------------------------------------------------------------------- AVX2 ---
// Two groups of 4 lanes. AVX2 has no unsigned 64-bit compares; the signed
// ones are exact here, as counts are at most N and gate products below 2⁶².

/// Region sizes in 4 lanes, with their table entries.
struct Sizes4 {
  __m256i n;
  __m256i n_out;
  __m256d t_n;
  __m256d t_n_out;
};

/// Λ in 4 lanes, the scalar arm's gate and operation order.
template <ScanDirection kDirection>
struct Avx2Llr {
  __m256i total_n;
  __m256i total_p;
  __m256d null_ll;
  const double* t;

  __attribute__((target("avx2"))) __m256d At(__m256i k, __m256d keep) const {
    return _mm256_mask_i64gather_pd(_mm256_setzero_pd(), t, k, keep, 8);
  }

  /// Every lane's n must be at most N.
  __attribute__((target("avx2"))) Sizes4 SizesOf(__m256i n) const {
    const __m256i n_out = _mm256_sub_epi64(total_n, n);
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    return {n, n_out, At(n, all), At(n_out, all)};
  }

  /// Folds Λ at counts p into the lane maxima of `acc` on the `live` lanes
  /// (all ones or all zeros) that pass the direction's gate.
  __attribute__((target("avx2"))) __m256d Fold(__m256d acc, const Sizes4& s,
                                                __m256i p,
                                                __m256i live) const {
    const __m256i p_out = _mm256_sub_epi64(total_p, p);
    const __m256i lhs = _mm256_mul_epu32(p, s.n_out);
    const __m256i rhs = _mm256_mul_epu32(p_out, s.n);
    __m256i gate;
    if constexpr (kDirection == ScanDirection::kHigh) {
      gate = _mm256_cmpgt_epi64(lhs, rhs);
    } else if constexpr (kDirection == ScanDirection::kLow) {
      gate = _mm256_cmpgt_epi64(rhs, lhs);
    } else {
      gate = _mm256_xor_si256(_mm256_cmpeq_epi64(lhs, rhs),
                              _mm256_set1_epi64x(-1));
    }
    const __m256d keep = _mm256_castsi256_pd(_mm256_and_si256(gate, live));
    if (_mm256_movemask_pd(keep) == 0) return acc;
    const __m256d in = _mm256_sub_pd(
        _mm256_add_pd(At(p, keep), At(_mm256_sub_epi64(s.n, p), keep)),
        s.t_n);
    const __m256d out = _mm256_sub_pd(
        _mm256_add_pd(At(p_out, keep),
                      At(_mm256_sub_epi64(s.n_out, p_out), keep)),
        s.t_n_out);
    const __m256d llr = _mm256_sub_pd(_mm256_add_pd(in, out), null_ll);
    return _mm256_blendv_pd(acc, _mm256_max_pd(llr, acc), keep);
  }

  /// Fold on the first `count` of the 4 buffered ends (n[i], p[i]).
  __attribute__((target("avx2"))) __m256d FoldEnds(__m256d acc,
                                                    const uint64_t* n,
                                                    const uint64_t* p,
                                                    size_t count) const;
};

/// Lanes [0, count) of 4 as an all-ones/all-zeros mask.
__attribute__((target("avx2"))) inline __m256i LiveMask4(size_t count) {
  return _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(count)),
      _mm256_setr_epi64x(0, 1, 2, 3));
}

/// The 32-bit form of LiveMask4, for masked loads of uint32 ids.
__attribute__((target("avx2"))) inline __m128i LiveMask4x32(size_t count) {
  return _mm_cmpgt_epi32(_mm_set1_epi32(static_cast<int>(count)),
                         _mm_setr_epi32(0, 1, 2, 3));
}

/// positives[id] for the 4 uint32 ids at `ids`, widened to 64 bits.
__attribute__((target("avx2"))) inline __m256i GatherCounts4(
    const int* positives, const uint32_t* ids) {
  return _mm256_cvtepu32_epi64(_mm256_i64gather_epi32(
      positives,
      _mm256_cvtepu32_epi64(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids))),
      4));
}

__attribute__((target("avx2"))) inline __m256i Min4(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
}

__attribute__((target("avx2"))) inline __m256i Max4(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(b, a));
}

template <ScanDirection kDirection>
__attribute__((target("avx2"))) __m256d Avx2Llr<kDirection>::FoldEnds(
    __m256d acc, const uint64_t* n, const uint64_t* p, size_t count) const {
  return Fold(acc,
              SizesOf(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(n))),
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)),
              LiveMask4(count));
}

}  // namespace

template <ScanDirection kDirection>
__attribute__((target("avx2"))) double LlrMaxArms::Avx2(
    const LlrMaxPlan& plan, const uint32_t* positives, uint64_t total_p,
    const stats::LogLikelihoodTable& table) {
  const uint64_t total_n = plan.total_n_;
  const Avx2Llr<kDirection> llr{
      _mm256_set1_epi64x(static_cast<long long>(total_n)),
      _mm256_set1_epi64x(static_cast<long long>(total_p)),
      _mm256_set1_pd(table.MaxBernoulliLogLikelihood(total_p, total_n)),
      table.data()};
  const __m256i all = _mm256_set1_epi64x(-1);
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  const auto* counts = reinterpret_cast<const int*>(positives);

  // Batched groups: lanes 0–3 and 4–7 reduce side by side, then evaluate
  // their ends.
  const uint32_t* ids = plan.batch_ids_.data();
  const uint64_t* batch_n = plan.batch_n_.data();
  for (const uint32_t steps : plan.batch_steps_) {
    __m256i lo_a = GatherCounts4(counts, ids);
    __m256i lo_b = GatherCounts4(counts, ids + 4);
    __m256i hi_a = lo_a;
    __m256i hi_b = lo_b;
    for (uint32_t k = 1; k < steps; ++k) {
      const __m256i va = GatherCounts4(counts, ids + 8 * k);
      const __m256i vb = GatherCounts4(counts, ids + 8 * k + 4);
      lo_a = Min4(lo_a, va);
      lo_b = Min4(lo_b, vb);
      hi_a = Max4(hi_a, va);
      hi_b = Max4(hi_b, vb);
    }
    ids += 8 * steps;
    const Sizes4 sa = llr.SizesOf(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(batch_n)));
    const Sizes4 sb = llr.SizesOf(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(batch_n + 4)));
    batch_n += 8;
    if constexpr (kDirection == ScanDirection::kLow) {
      acc_a = llr.Fold(acc_a, sa, lo_a, all);
      acc_b = llr.Fold(acc_b, sb, lo_b, all);
    } else {
      acc_a = llr.Fold(acc_a, sa, hi_a, all);
      acc_b = llr.Fold(acc_b, sb, hi_b, all);
    }
    if constexpr (kDirection == ScanDirection::kTwoSided) {
      const __m256i differ_a =
          _mm256_xor_si256(_mm256_cmpeq_epi64(lo_a, hi_a), all);
      const __m256i differ_b =
          _mm256_xor_si256(_mm256_cmpeq_epi64(lo_b, hi_b), all);
      acc_a = llr.Fold(acc_a, sa, lo_a, differ_a);
      acc_b = llr.Fold(acc_b, sb, lo_b, differ_b);
    }
  }

  // The larger groups reduce one at a time; their ends wait here, 8 at a
  // time, for one evaluation of both halves.
  alignas(32) uint64_t end_n[8] = {};
  alignas(32) uint64_t end_p[8] = {};
  size_t pending = 0;
  for (size_t g = plan.num_batched_groups_; g < plan.groups_.size(); ++g) {
    const LlrMaxPlan::Group& group = plan.groups_[g];
    const uint32_t* group_ids = plan.grouped_.data() + group.begin;
    const size_t size = group.end - group.begin;
    // Lanes past the group's end repeat its first count.
    const __m128i first = _mm_set1_epi32(counts[group_ids[0]]);
    __m256i lo = _mm256_cvtepu32_epi64(first);
    __m256i hi = lo;
    for (size_t k = 0; k < size; k += 4) {
      const size_t rest = std::min<size_t>(size - k, 4);
      const __m128i live = LiveMask4x32(rest);
      const __m128i id = _mm_maskload_epi32(
          reinterpret_cast<const int*>(group_ids + k), live);
      const __m256i v = _mm256_cvtepu32_epi64(_mm256_mask_i64gather_epi32(
          first, counts, _mm256_cvtepu32_epi64(id), live, 4));
      lo = Min4(lo, v);
      hi = Max4(hi, v);
    }
    alignas(32) uint64_t lo_lanes[4];
    alignas(32) uint64_t hi_lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lo_lanes), lo);
    _mm256_store_si256(reinterpret_cast<__m256i*>(hi_lanes), hi);
    const uint64_t group_lo = std::min(std::min(lo_lanes[0], lo_lanes[1]),
                                       std::min(lo_lanes[2], lo_lanes[3]));
    const uint64_t group_hi = std::max(std::max(hi_lanes[0], hi_lanes[1]),
                                       std::max(hi_lanes[2], hi_lanes[3]));
    ForEachEnd<kDirection>(group_lo, group_hi, [&](uint64_t p) {
      end_n[pending] = group.n;
      end_p[pending] = p;
      ++pending;
    });
    if (pending > 8 - kEndsPerGroup<kDirection>) {
      // Flush while the next group's ends still fit.
      acc_a = llr.FoldEnds(acc_a, end_n, end_p, 4);
      acc_b = llr.FoldEnds(acc_b, end_n + 4, end_p + 4, pending - 4);
      pending = 0;
    }
  }
  for (size_t k = 0; k < pending; k += 4) {
    acc_a = llr.FoldEnds(acc_a, end_n + k, end_p + k,
                         std::min<size_t>(pending - k, 4));
  }

  const size_t num_direct = plan.direct_n_.size();
  const uint64_t* direct_n = plan.direct_n_.data();
  const uint32_t* direct_regions = plan.direct_regions_.data();
  for (size_t k = 0; k < num_direct; k += 4) {
    const size_t rest = std::min<size_t>(num_direct - k, 4);
    const __m256i live = LiveMask4(rest);
    const __m256i region = _mm256_cvtepu32_epi64(_mm_maskload_epi32(
        reinterpret_cast<const int*>(direct_regions + k), LiveMask4x32(rest)));
    const Sizes4 s = llr.SizesOf(_mm256_maskload_epi64(
        reinterpret_cast<const long long*>(direct_n + k), live));
    const __m256i p = _mm256_cvtepu32_epi64(_mm256_mask_i64gather_epi32(
        _mm_setzero_si128(), counts, region, LiveMask4x32(rest), 4));
    acc_a = llr.Fold(acc_a, s, p, live);
  }

  alignas(32) double lanes[8];
  _mm256_store_pd(lanes, acc_a);
  _mm256_store_pd(lanes + 4, acc_b);
  return FoldLanes(lanes, 8);
}

// ----------------------------------------------------------------- AVX-512 ---
// 8 lanes in one register, unsigned 64-bit min/max and compares, and masked
// gathers that read only the gated lanes.

namespace {

/// Region sizes in 8 lanes, with their table entries.
struct Sizes8 {
  __m512i n;
  __m512i n_out;
  __m512d t_n;
  __m512d t_n_out;
};

/// Λ in 8 lanes, the scalar arm's gate and operation order.
template <ScanDirection kDirection>
struct Avx512Llr {
  __m512i total_n;
  __m512i total_p;
  __m512d null_ll;
  const double* t;

  __attribute__((target("avx512f"))) __m512d At(__m512i k,
                                                __mmask8 keep) const {
    return _mm512_mask_i64gather_pd(_mm512_setzero_pd(), keep, k, t, 8);
  }

  /// Every lane's n must be at most N.
  __attribute__((target("avx512f"))) Sizes8 SizesOf(__m512i n) const {
    const __m512i n_out = _mm512_sub_epi64(total_n, n);
    return {n, n_out, At(n, 0xff), At(n_out, 0xff)};
  }

  /// Folds Λ at counts p into the lane maxima of `acc` on the `live` lanes
  /// that pass the direction's gate.
  __attribute__((target("avx512f"))) __m512d Fold(__m512d acc,
                                                  const Sizes8& s, __m512i p,
                                                  __mmask8 live) const {
    const __m512i p_out = _mm512_sub_epi64(total_p, p);
    const __m512i lhs = _mm512_mul_epu32(p, s.n_out);
    const __m512i rhs = _mm512_mul_epu32(p_out, s.n);
    __mmask8 keep;
    if constexpr (kDirection == ScanDirection::kHigh) {
      keep = _mm512_mask_cmpgt_epu64_mask(live, lhs, rhs);
    } else if constexpr (kDirection == ScanDirection::kLow) {
      keep = _mm512_mask_cmplt_epu64_mask(live, lhs, rhs);
    } else {
      keep = _mm512_mask_cmpneq_epu64_mask(live, lhs, rhs);
    }
    if (keep == 0) return acc;
    const __m512d in = _mm512_sub_pd(
        _mm512_add_pd(At(p, keep), At(_mm512_sub_epi64(s.n, p), keep)),
        s.t_n);
    const __m512d out = _mm512_sub_pd(
        _mm512_add_pd(At(p_out, keep),
                      At(_mm512_sub_epi64(s.n_out, p_out), keep)),
        s.t_n_out);
    const __m512d llr = _mm512_sub_pd(_mm512_add_pd(in, out), null_ll);
    return _mm512_mask_max_pd(acc, keep, llr, acc);
  }
};

/// Lanes [0, count) of 8, count <= 8.
inline __mmask8 LiveMask8(size_t count) {
  return static_cast<__mmask8>((1u << count) - 1);
}

/// positives[id] for the 8 uint32 ids at `ids`, widened to 64 bits.
__attribute__((target("avx512f"))) inline __m512i GatherCounts8(
    const uint32_t* positives, const uint32_t* ids) {
  return _mm512_cvtepu32_epi64(_mm512_i64gather_epi32(
      _mm512_cvtepu32_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids))),
      positives, 4));
}

}  // namespace

template <ScanDirection kDirection>
__attribute__((target("avx512f"))) double LlrMaxArms::Avx512(
    const LlrMaxPlan& plan, const uint32_t* positives, uint64_t total_p,
    const stats::LogLikelihoodTable& table) {
  const uint64_t total_n = plan.total_n_;
  const Avx512Llr<kDirection> llr{
      _mm512_set1_epi64(static_cast<long long>(total_n)),
      _mm512_set1_epi64(static_cast<long long>(total_p)),
      _mm512_set1_pd(table.MaxBernoulliLogLikelihood(total_p, total_n)),
      table.data()};
  __m512d acc = _mm512_setzero_pd();

  // Batched groups: one group per lane, reduced side by side, then their
  // ends evaluated.
  const uint32_t* ids = plan.batch_ids_.data();
  const uint64_t* batch_n = plan.batch_n_.data();
  for (const uint32_t steps : plan.batch_steps_) {
    __m512i lo = GatherCounts8(positives, ids);
    __m512i hi = lo;
    for (uint32_t k = 1; k < steps; ++k) {
      const __m512i v = GatherCounts8(positives, ids + 8 * k);
      lo = _mm512_min_epu64(lo, v);
      hi = _mm512_max_epu64(hi, v);
    }
    ids += 8 * steps;
    const Sizes8 s = llr.SizesOf(_mm512_loadu_si512(batch_n));
    batch_n += 8;
    if constexpr (kDirection == ScanDirection::kLow) {
      acc = llr.Fold(acc, s, lo, 0xff);
    } else {
      acc = llr.Fold(acc, s, hi, 0xff);
    }
    if constexpr (kDirection == ScanDirection::kTwoSided) {
      acc = llr.Fold(acc, s, lo, _mm512_cmpneq_epu64_mask(lo, hi));
    }
  }

  // The larger groups reduce one at a time; their ends wait here, 8 at a
  // time, for one evaluation.
  alignas(64) uint64_t end_n[8] = {};
  alignas(64) uint64_t end_p[8] = {};
  size_t pending = 0;
  for (size_t g = plan.num_batched_groups_; g < plan.groups_.size(); ++g) {
    const LlrMaxPlan::Group& group = plan.groups_[g];
    const uint32_t* group_ids = plan.grouped_.data() + group.begin;
    const size_t size = group.end - group.begin;
    // Lanes past the group's end repeat its first count.
    const __m256i first =
        _mm256_set1_epi32(static_cast<int>(positives[group_ids[0]]));
    __m512i lo = _mm512_cvtepu32_epi64(first);
    __m512i hi = lo;
    for (size_t k = 0; k < size; k += 8) {
      const __mmask8 live = LiveMask8(std::min<size_t>(size - k, 8));
      const __m512i id = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(
          _mm512_maskz_loadu_epi32(live, group_ids + k)));
      const __m512i v = _mm512_cvtepu32_epi64(
          _mm512_mask_i64gather_epi32(first, live, id, positives, 4));
      lo = _mm512_min_epu64(lo, v);
      hi = _mm512_max_epu64(hi, v);
    }
    ForEachEnd<kDirection>(_mm512_reduce_min_epu64(lo),
                           _mm512_reduce_max_epu64(hi), [&](uint64_t p) {
                             end_n[pending] = group.n;
                             end_p[pending] = p;
                             ++pending;
                           });
    if (pending > 8 - kEndsPerGroup<kDirection>) {
      // Flush while the next group's ends still fit.
      acc = llr.Fold(acc, llr.SizesOf(_mm512_load_si512(end_n)),
                     _mm512_load_si512(end_p), LiveMask8(pending));
      pending = 0;
    }
  }
  if (pending > 0) {
    acc = llr.Fold(acc, llr.SizesOf(_mm512_load_si512(end_n)),
                   _mm512_load_si512(end_p), LiveMask8(pending));
  }

  const size_t num_direct = plan.direct_n_.size();
  const uint64_t* direct_n = plan.direct_n_.data();
  const uint32_t* direct_regions = plan.direct_regions_.data();
  for (size_t k = 0; k < num_direct; k += 8) {
    const __mmask8 live = LiveMask8(std::min<size_t>(num_direct - k, 8));
    const __m512i region = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(
        _mm512_maskz_loadu_epi32(live, direct_regions + k)));
    acc = llr.Fold(
        acc, llr.SizesOf(_mm512_maskz_loadu_epi64(live, direct_n + k)),
        _mm512_cvtepu32_epi64(_mm512_mask_i64gather_epi32(
            _mm256_setzero_si256(), live, region, positives, 4)),
        live);
  }

  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, acc);
  return FoldLanes(lanes, 8);
}

#pragma GCC diagnostic pop

#endif  // SFA_X86_SIMD

namespace {

/// Calls arm(direction tag) with the direction as a compile-time constant.
template <typename Arm>
double ForDirection(stats::ScanDirection direction, Arm arm) {
  using stats::ScanDirection;
  switch (direction) {
    case ScanDirection::kHigh:
      return arm(std::integral_constant<ScanDirection, ScanDirection::kHigh>{});
    case ScanDirection::kLow:
      return arm(std::integral_constant<ScanDirection, ScanDirection::kLow>{});
    case ScanDirection::kTwoSided:
      break;
  }
  return arm(
      std::integral_constant<ScanDirection, ScanDirection::kTwoSided>{});
}

}  // namespace

double LlrMaxPlan::Max(const uint32_t* positives, uint64_t total_p,
                       stats::ScanDirection direction,
                       const stats::LogLikelihoodTable& table) const {
  // One instance per direction keeps the direction tests out of the loops.
#if defined(SFA_X86_SIMD)
  switch (spatial::ActiveSamplerKernel()) {
    case spatial::PopcountKernel::kAvx512:
      return ForDirection(direction, [&](auto d) {
        return LlrMaxArms::Avx512<decltype(d)::value>(*this, positives,
                                                      total_p, table);
      });
    case spatial::PopcountKernel::kAvx2:
      return ForDirection(direction, [&](auto d) {
        return LlrMaxArms::Avx2<decltype(d)::value>(*this, positives, total_p,
                                                    table);
      });
    default:
      break;
  }
#endif
  return ForDirection(direction, [&](auto d) {
    return LlrMaxArms::Scalar<decltype(d)::value>(*this, positives, total_p,
                                                  table);
  });
}

}  // namespace internal

BernoulliScanStatistic::BernoulliScanStatistic(stats::ScanDirection direction,
                                               uint64_t total_n,
                                               uint64_t total_p)
    : direction_(direction),
      total_n_(total_n),
      total_p_(total_p),
      rho_(total_n == 0 ? 0.0
                        : static_cast<double>(total_p) /
                              static_cast<double>(total_n)) {}

std::string BernoulliScanStatistic::Name() const {
  return StrFormat("Bernoulli scan statistic (%s)",
                   stats::ScanDirectionToString(direction_));
}

std::string BernoulliScanStatistic::Fingerprint() const {
  return StrFormat("bernoulli dir=%s P=%llu",
                   stats::ScanDirectionToString(direction_),
                   static_cast<unsigned long long>(total_p_));
}

Status BernoulliScanStatistic::ValidateOutcomes(const uint8_t* outcomes,
                                                size_t n) const {
  if (n != total_n_) {
    return Status::InvalidArgument(
        StrFormat("outcome stream has %zu entries, statistic expects %llu",
                  n, static_cast<unsigned long long>(total_n_)));
  }
  for (size_t i = 0; i < n; ++i) {
    if (outcomes[i] > 1) {
      return Status::InvalidArgument(
          "Bernoulli outcomes must be 0/1; use the multinomial statistic for "
          "multi-class audits");
    }
  }
  return Status::OK();
}

Status BernoulliScanStatistic::ValidateForFamily(
    const RegionFamily& family) const {
  SFA_RETURN_NOT_OK(RequireCountablePoints(family.num_points()));
  if (family.num_points() != total_n_) {
    return Status::InvalidArgument(StrFormat(
        "region family is bound to %zu points but the statistic's view has "
        "%llu",
        family.num_points(), static_cast<unsigned long long>(total_n_)));
  }
  if (total_p_ > total_n_) {
    return Status::InvalidArgument("more positives than points");
  }
  return Status::OK();
}

ScanResult BernoulliScanStatistic::ScanObserved(const RegionFamily& family,
                                                const uint8_t* outcomes,
                                                size_t n,
                                                AuditScratch* scratch) const {
  // The scratch recycles the observed-world label buffer and the shared
  // k·log k table across pooled calls — identical arithmetic to the null
  // simulation, so observed-vs-null ties are exact (core/scan.h contract).
  scratch->observed_labels.AssignBytes(outcomes, n);
  return ScanAllRegions(family, scratch->observed_labels, direction_,
                        scratch->TableFor(n));
}

std::unique_ptr<StatisticSimulation> BernoulliScanStatistic::MakeSimulation(
    const RegionFamily& family, const MonteCarloOptions& options) const {
  return std::make_unique<BernoulliSimulation>(family, rho_, total_p_,
                                               direction_, options);
}

void BernoulliScanStatistic::FillFinding(const RegionFamily& family,
                                         const ScanResult& observed,
                                         size_t region,
                                         RegionFinding* finding) const {
  finding->n = family.PointCount(region);
  finding->p = observed.positives[region];
  finding->local_rate =
      finding->n == 0
          ? 0.0
          : static_cast<double>(finding->p) / static_cast<double>(finding->n);
  // log SUL = Λ + log L0max; L0max is constant across regions, so ranking by
  // Λ equals ranking by SUL (the paper's Eq. 1).
  finding->log_sul =
      finding->llr + stats::NullLogLikelihood(observed.total_p,
                                              observed.total_n);
}

}  // namespace sfa::core
