#include "core/bernoulli_statistic.h"

#include <algorithm>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/cell_sampler_bank.h"

namespace sfa::core {

namespace {

/// Max Λ over all regions from a row of positive counts, using the shared
/// k·log k table. Region point counts are pre-gathered into `region_n` so the
/// hot loop makes no virtual calls.
double MaxLlrFromCounts(const uint64_t* positives,
                        const std::vector<uint64_t>& region_n, uint64_t total_n,
                        uint64_t total_p, stats::ScanDirection direction,
                        const stats::LogLikelihoodTable& table) {
  double max_llr = 0.0;
  const size_t num_regions = region_n.size();
  // Inlined table LLR with the per-world constant null term hoisted out of
  // the region loop. Operation order matches
  // stats::BernoulliLogLikelihoodRatio(counts, direction, table) exactly —
  // (ll_in + ll_out) - null with the same gating — so maxima are bit-equal
  // to the stats-layer evaluation (asserted by test_mc_engine.cc).
  const double null_ll = table.MaxBernoulliLogLikelihood(total_p, total_n);
  for (size_t r = 0; r < num_regions; ++r) {
    const uint64_t n = region_n[r];
    const uint64_t p = positives[r];
    const uint64_t n_out = total_n - n;
    const uint64_t p_out = total_p - p;
    if (n == 0 || n_out == 0) continue;
    const auto lhs = static_cast<unsigned __int128>(p) * n_out;
    const auto rhs = static_cast<unsigned __int128>(p_out) * n;
    if (lhs == rhs) continue;
    if (direction == stats::ScanDirection::kHigh && lhs < rhs) continue;
    if (direction == stats::ScanDirection::kLow && lhs > rhs) continue;
    const double llr = table.MaxBernoulliLogLikelihood(p, n) +
                       table.MaxBernoulliLogLikelihood(p_out, n_out) - null_ll;
    if (llr > max_llr) max_llr = llr;
  }
  return max_llr;
}

/// Thread-local buffer pool: label worlds, count rows, cell draws, and the
/// permutation shuffle buffer all live here, so after a worker's first batch
/// the steady state allocates nothing.
struct BatchArena {
  std::vector<Labels> labels;
  std::vector<const Labels*> label_ptrs;
  std::vector<uint64_t> counts;          // batch x num_regions, row-major
  std::vector<uint32_t> cell_positives;  // one world's cell draws
  std::vector<uint64_t> region_counts;   // one world's folded region counts
  std::vector<uint32_t> perm_scratch;
};

BatchArena& LocalArena() {
  static thread_local BatchArena arena;
  return arena;
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
        root_(options.seed) {
    region_n_.resize(family_.num_regions());
    for (size_t r = 0; r < region_n_.size(); ++r) {
      region_n_[r] = family_.PointCount(r);
    }
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
      return MaxLlrFromCounts(counts.data(), region_n_, total_n, total_p,
                              direction_, table_);
    }
    const Labels labels =
        options_.null_model == NullModel::kBernoulli
            ? Labels::SampleBernoulli(total_n, rho_, &rng)
            : Labels::SamplePermutation(total_n, total_positives_, &rng);
    std::vector<uint64_t> counts;
    family_.CountPositives(labels, &counts);
    return MaxLlrFromCounts(counts.data(), region_n_, total_n,
                            labels.positive_count(), direction_, table_);
  }

  void RunWorldBatch(size_t w_lo, size_t w_hi, double* out) const override {
    const size_t worlds = w_hi - w_lo;
    const size_t num_regions = family_.num_regions();
    const uint64_t total_n = family_.num_points();
    BatchArena& arena = LocalArena();

    if (cells_ != nullptr) {
      // Closed-form worlds: O(cells) sampling dominates and has no
      // cross-world memory traffic to amortize, so the batch is a plain loop
      // over pooled buffers.
      arena.cell_positives.resize(cells_->cell_counts.size());
      arena.region_counts.resize(num_regions);
      for (size_t w = w_lo; w < w_hi; ++w) {
        Rng rng = root_.Split(w);
        const uint64_t total_p =
            samplers_->Draw(&rng, arena.cell_positives.data());
        family_.CountPositivesFromCells(arena.cell_positives.data(),
                                        arena.region_counts.data());
        out[w] = MaxLlrFromCounts(arena.region_counts.data(), region_n_,
                                  total_n, total_p, direction_, table_);
      }
      return;
    }

    if (arena.labels.size() < worlds) arena.labels.resize(worlds);
    arena.label_ptrs.resize(worlds);
    arena.counts.resize(worlds * num_regions);
    for (size_t j = 0; j < worlds; ++j) {
      Rng rng = root_.Split(w_lo + j);
      if (options_.null_model == NullModel::kBernoulli) {
        arena.labels[j].ResampleBernoulli(total_n, rho_, &rng);
      } else {
        arena.labels[j].ResamplePermutation(total_n, total_positives_, &rng,
                                            &arena.perm_scratch);
      }
      arena.label_ptrs[j] = &arena.labels[j];
    }
    family_.CountPositivesBatch(arena.label_ptrs.data(), worlds,
                                arena.counts.data());
    for (size_t j = 0; j < worlds; ++j) {
      out[w_lo + j] = MaxLlrFromCounts(
          arena.counts.data() + j * num_regions, region_n_, total_n,
          arena.labels[j].positive_count(), direction_, table_);
    }
  }

 private:
  const RegionFamily& family_;
  double rho_;
  uint64_t total_positives_;
  stats::ScanDirection direction_;
  MonteCarloOptions options_;
  stats::LogLikelihoodTable table_;
  std::vector<uint64_t> region_n_;
  const CellDecomposition* cells_;  // non-null => closed-form sampling
  std::unique_ptr<CellSamplerBank> samplers_;  // non-null iff cells_ is
  Rng root_;
};

}  // namespace

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
