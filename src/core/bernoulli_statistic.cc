#include "core/bernoulli_statistic.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <numeric>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/cell_sampler_bank.h"
#include "core/labels.h"
#include "core/lane_sampler.h"

namespace sfa::core {

// One lane-sampler call fills exactly the planes one CountPlanes call counts.
static_assert(kLaneWorlds == RegionFamily::kMaxPlanes);

namespace {

/// Thread-local buffer pool: mask planes, count rows, cell draws, and the
/// permutation shuffle buffer all live here, so after a worker's first batch
/// the steady state allocates nothing.
struct BatchArena {
  std::vector<uint8_t> masks;     // one mask byte per point
  std::vector<uint32_t> shuffle;  // the permutation shuffle buffer

  /// Untyped storage for a batch's rows: the point worlds' count rows, or the
  /// closed-form worlds' region row and cell rows. One block serves both, so
  /// a worker that runs both kinds keeps only the larger; callers start
  /// their arrays' lifetimes in it with placement new, which does no work
  /// for these trivial types. The contents do not survive a call.
  std::byte* Rows(size_t bytes) {
    if (rows == nullptr || bytes > rows_bytes) {
      rows.reset();  // free the old block first: the two never coexist
      rows.reset(new std::byte[bytes]);
      rows_bytes = bytes;
    }
    return rows.get();
  }
  std::unique_ptr<std::byte[]> rows;
  size_t rows_bytes = 0;
};

BatchArena& LocalArena() {
  static thread_local BatchArena arena;
  return arena;
}

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

  /// The reference strategy: one world at a time, fresh buffers per world,
  /// the family's scalar counting interface. Kept as the semantic baseline
  /// the batched strategy must match bit-for-bit.
  double RunWorldReference(size_t w) const override {
    Rng rng = root_.Split(w);
    const size_t num_regions = family_.num_regions();
    const uint64_t total_n = family_.num_points();
    if (cells_ != nullptr) {
      std::vector<uint32_t> cell_positives(cells_->cell_counts.size());
      const uint64_t total_p =
          samplers_->Draw(&rng, cell_positives.data());
      std::vector<uint64_t> counts(num_regions);
      family_.CountPositivesFromCells(cell_positives.data(), counts.data());
      return plan_.Max(counts.data(), total_p, direction_, table_);
    }
    const Labels labels =
        options_.null_model == NullModel::kBernoulli
            ? Labels::SampleBernoulli(total_n, rho_, &rng)
            : Labels::SamplePermutation(total_n, total_positives_, &rng);
    std::vector<uint64_t> counts;
    family_.CountPositives(labels, &counts);
    return plan_.Max(counts.data(), labels.positive_count(), direction_,
                     table_);
  }

  void RunWorldBatch(size_t w_lo, size_t w_hi, double* out) const override {
    const size_t num_regions = family_.num_regions();
    const uint64_t total_n = family_.num_points();
    BatchArena& arena = LocalArena();

    if (cells_ != nullptr) {
      // Closed-form worlds, kLaneWorlds at a time: the bank draws their cell
      // rows side by side, then each row is folded and max-scanned.
      const size_t num_cells = samplers_->num_cells();
      const size_t region_bytes = num_regions * sizeof(uint64_t);
      std::byte* rows = arena.Rows(
          region_bytes + kLaneWorlds * num_cells * sizeof(uint32_t));
      uint64_t* region_counts = new (rows) uint64_t[num_regions];
      uint32_t* cell_rows =
          new (rows + region_bytes) uint32_t[kLaneWorlds * num_cells];
      for (size_t g = w_lo; g < w_hi; g += kLaneWorlds) {
        const size_t lanes = std::min(kLaneWorlds, w_hi - g);
        Rng rngs[kLaneWorlds];
        for (size_t j = 0; j < lanes; ++j) rngs[j] = root_.Split(g + j);
        uint64_t total_p[kLaneWorlds];
        samplers_->DrawLanes(lanes, rngs, cell_rows, total_p);
        for (size_t j = 0; j < lanes; ++j) {
          family_.CountPositivesFromCells(cell_rows + j * num_cells,
                                          region_counts);
          out[g + j] =
              plan_.Max(region_counts, total_p[j], direction_, table_);
        }
      }
      return;
    }

    // i.i.d. point worlds are drawn by the lane sampler, permutation worlds
    // by one partial shuffle each; either way, kLaneWorlds at a time into
    // mask planes (bit j of masks[i] = world g + j's label of point i),
    // which CountPlanes counts directly.
    arena.masks.resize(total_n);
    uint8_t* masks = arena.masks.data();
    uint64_t* counts =
        new (arena.Rows(kLaneWorlds * num_regions * sizeof(uint64_t)))
            uint64_t[kLaneWorlds * num_regions];
    for (size_t g = w_lo; g < w_hi; g += kLaneWorlds) {
      const size_t lanes = std::min(kLaneWorlds, w_hi - g);
      Rng rngs[kLaneWorlds];
      for (size_t j = 0; j < lanes; ++j) rngs[j] = root_.Split(g + j);
      uint64_t positives[kLaneWorlds];
      if (options_.null_model == NullModel::kBernoulli) {
        SampleBernoulliLanes(rho_, total_n, lanes, rngs, masks, positives);
      } else {
        std::fill(masks, masks + total_n, uint8_t{0});
        for (size_t j = 0; j < lanes; ++j) {
          const auto bit = static_cast<uint8_t>(1u << j);
          DrawPermutationPositives(total_n, total_positives_, &rngs[j],
                                   &arena.shuffle,
                                   [masks, bit](uint32_t id) {
                                     masks[id] |= bit;
                                   });
          positives[j] = total_positives_;
        }
      }
      family_.CountPlanes(masks, lanes, counts, num_regions);
      for (size_t j = 0; j < lanes; ++j) {
        out[g + j] = plan_.Max(counts + j * num_regions, positives[j],
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
  // Regions of size 0 or N never contribute.
  std::vector<uint32_t> order;
  order.reserve(region_n.size());
  for (size_t r = 0; r < region_n.size(); ++r) {
    if (region_n[r] > 0 && region_n[r] < total_n) {
      order.push_back(static_cast<uint32_t>(r));
    }
  }
  if (total_n > kMaxGroupedPoints) {
    for (uint32_t r : order) direct_.push_back({region_n[r], r});
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
  for (size_t r = 0; r < region_n.size(); ++r) {
    if (is_direct[r]) direct_.push_back({region_n[r], r});
  }
}

double LlrMaxPlan::Max(const uint64_t* positives, uint64_t total_p,
                       stats::ScanDirection direction,
                       const stats::LogLikelihoodTable& table) const {
  // One instance per direction keeps the direction tests out of the loops.
  switch (direction) {
    case stats::ScanDirection::kHigh:
      return MaxIn<stats::ScanDirection::kHigh>(positives, total_p, table);
    case stats::ScanDirection::kLow:
      return MaxIn<stats::ScanDirection::kLow>(positives, total_p, table);
    case stats::ScanDirection::kTwoSided:
      break;
  }
  return MaxIn<stats::ScanDirection::kTwoSided>(positives, total_p, table);
}

template <stats::ScanDirection kDirection>
double LlrMaxPlan::MaxIn(const uint64_t* positives, uint64_t total_p,
                         const stats::LogLikelihoodTable& table) const {
  const uint64_t total_n = total_n_;
  // Inlined table LLR with the per-world constant null term hoisted out of
  // the region loops. Operation order matches
  // stats::BernoulliLogLikelihoodRatio(counts, direction, table) exactly —
  // (ll_in + ll_out) - null with the same gating — so maxima are bit-equal
  // to the stats-layer evaluation (asserted by test_mc_engine.cc).
  const double null_ll = table.MaxBernoulliLogLikelihood(total_p, total_n);
  double max_llr = 0.0;
  const auto consider = [&](uint64_t n, uint64_t p) {
    const uint64_t n_out = total_n - n;
    const uint64_t p_out = total_p - p;
    const auto lhs = static_cast<unsigned __int128>(p) * n_out;
    const auto rhs = static_cast<unsigned __int128>(p_out) * n;
    if (lhs == rhs) return;
    if (kDirection == stats::ScanDirection::kHigh && lhs < rhs) return;
    if (kDirection == stats::ScanDirection::kLow && lhs > rhs) return;
    const double llr = table.MaxBernoulliLogLikelihood(p, n) +
                       table.MaxBernoulliLogLikelihood(p_out, n_out) - null_ll;
    max_llr = llr > max_llr ? llr : max_llr;
  };
  for (const Group& group : groups_) {
    uint64_t lo = positives[grouped_[group.begin]];
    uint64_t hi = lo;
    for (size_t i = group.begin + 1; i < group.end; ++i) {
      const uint64_t p = positives[grouped_[i]];
      lo = std::min(lo, p);
      hi = std::max(hi, p);
    }
    if (kDirection != stats::ScanDirection::kLow) consider(group.n, hi);
    if (kDirection == stats::ScanDirection::kLow ||
        (kDirection == stats::ScanDirection::kTwoSided && lo != hi)) {
      consider(group.n, lo);
    }
  }
  for (const Direct& d : direct_) consider(d.n, positives[d.region]);
  return max_llr;
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
