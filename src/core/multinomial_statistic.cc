#include "core/multinomial_statistic.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/random.h"
#include "common/string_util.h"

namespace sfa::core {

namespace {

/// Σ_k C_k log(C_k/N): the maximized null log-likelihood (the multinomial
/// analog of stats::NullLogLikelihood), used for the SUL-style evidence
/// field only — the scan itself runs through the k·log k table.
double MultinomialNullLogLikelihood(const std::vector<uint64_t>& totals,
                                    uint64_t total_n) {
  double ll = 0.0;
  for (uint64_t c : totals) {
    if (c == 0) continue;
    ll += static_cast<double>(c) *
          std::log(static_cast<double>(c) / static_cast<double>(total_n));
  }
  return ll;
}

/// Λ(R) from per-class inside counts via the shared k·log k table:
///
///   Λ = (Σ_k t[c_k] − t[n]) + (Σ_k t[d_k] − t[m]) − null_term
///
/// with t[k] = k log k, d_k = W_k − c_k, m = N − n, and null_term =
/// Σ_k t[W_k] − t[N] hoisted per world (W_k are that world's class totals).
/// counts_by_class[k] points at the per-region counts of class k for
/// k < K−1; the last class is derived from n(R). The clamp at 0 drops
/// floating-point residue only (nested hypotheses: Λ >= 0 mathematically). The observed scan and every
/// null world share this exact operation order, so rank-p-value ties are
/// exact (the Bernoulli arithmetic contract, core/scan.h).
double RegionLlrFromTable(const uint64_t* const* counts_by_class, size_t r,
                          uint32_t num_classes, uint64_t region_n,
                          uint64_t total_n, const uint64_t* world_totals,
                          double null_term,
                          const stats::LogLikelihoodTable& table) {
  const uint64_t m = total_n - region_n;
  if (region_n == 0 || m == 0) return 0.0;  // degenerate: alternative collapses
  double t_in = 0.0;
  double t_out = 0.0;
  uint64_t counted = 0;
  for (uint32_t k = 0; k + 1 < num_classes; ++k) {
    const uint64_t c = counts_by_class[k][r];
    counted += c;
    t_in += table.klogk(c);
    t_out += table.klogk(world_totals[k] - c);
  }
  const uint64_t c_last = region_n - counted;
  t_in += table.klogk(c_last);
  t_out += table.klogk(world_totals[num_classes - 1] - c_last);
  const double llr = (t_in - table.klogk(region_n)) +
                     (t_out - table.klogk(m)) - null_term;
  return llr < 0.0 ? 0.0 : llr;
}

double WorldNullTerm(const uint64_t* world_totals, uint32_t num_classes,
                     uint64_t total_n, const stats::LogLikelihoodTable& table) {
  double t = 0.0;
  for (uint32_t k = 0; k < num_classes; ++k) t += table.klogk(world_totals[k]);
  return t - table.klogk(total_n);
}

/// Draws Multinomial(n, q) by chained binomials: class k gets
/// Binomial(remaining, q_k / rest-mass), the last class the remainder. Cell
/// and class order are fixed, so for a given per-world RNG the draw is
/// identical in every engine strategy. Writes K counts to `out` and returns
/// nothing beyond them.
void DrawMultinomial(uint64_t n, const std::vector<double>& q, Rng* rng,
                     uint64_t* out) {
  const uint32_t num_classes = static_cast<uint32_t>(q.size());
  uint64_t remaining = n;
  double rest = 1.0;
  for (uint32_t k = 0; k + 1 < num_classes; ++k) {
    double p = rest > 0.0 ? q[k] / rest : 1.0;
    if (p > 1.0) p = 1.0;
    const uint64_t draw = remaining > 0 ? rng->Binomial(remaining, p) : 0;
    out[k] = draw;
    remaining -= draw;
    rest -= q[k];
  }
  out[num_classes - 1] = remaining;
}

/// Thread-local buffer pool of both engine strategies: packed class worlds,
/// per-class count rows, and per-cell class draws — after a worker's first
/// batch (or reference world) the steady state allocates nothing.
struct MultinomialArena {
  std::vector<uint8_t> classes;        // one world's per-point class draws
  std::vector<uint8_t> indicator;      // one class's 0/1 bytes (reference)
  Labels ref_labels;                   // pooled indicator Labels (reference)
  std::vector<uint8_t> class_worlds;   // worlds × N packed class codes
  std::vector<const uint8_t*> class_world_ptrs;
  std::vector<uint64_t> counts;        // worlds × (K-1) × regions
  std::vector<uint64_t> world_totals;  // worlds × K
  std::vector<uint32_t> cell_class;    // one world's per-cell draws, one class
  std::vector<uint64_t> cell_draw;     // one cell's K draws
  std::vector<uint64_t> region_counts; // (K-1) × regions, one world
  std::vector<uint64_t> scalar_counts; // CountPositives output row (reference)
  std::vector<const uint64_t*> class_ptrs;
};

MultinomialArena& LocalArena() {
  static thread_local MultinomialArena arena;
  return arena;
}

/// Per-simulation immutable context, shared read-only across workers.
class MultinomialSimulation : public StatisticSimulation {
 public:
  MultinomialSimulation(const RegionFamily& family,
                        std::vector<uint64_t> class_totals,
                        std::vector<double> q, const MonteCarloOptions& options)
      : family_(family),
        class_totals_(std::move(class_totals)),
        q_(std::move(q)),
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
    // Cumulative class thresholds for the branchless per-point draw in
    // DrawPointClasses: class k wins when the uniform lands in
    // [prefix[k-1], prefix[k]). The last threshold is the exact weight total,
    // so u = NextDouble() * total < prefix[K-1] always classifies.
    q_prefix_.resize(q_.size());
    double acc = 0.0;
    for (size_t k = 0; k < q_.size(); ++k) {
      acc += q_[k];
      q_prefix_[k] = acc;
    }
  }

  double RunWorldReference(size_t w) const override {
    Rng rng = root_.Split(w);
    const uint32_t num_classes = static_cast<uint32_t>(q_.size());
    const size_t num_regions = family_.num_regions();
    const uint64_t total_n = family_.num_points();
    std::vector<uint64_t> world_totals(num_classes, 0);

    if (cells_ != nullptr) {
      // Closed-form: one Multinomial(n_c, q) per cell (plus the outside
      // points, which shift world totals only), folded to per-region counts
      // through the family's cell mapping — never labeling a point.
      const size_t num_cells = cells_->cell_counts.size();
      std::vector<uint32_t> cell_class(num_cells * (num_classes - 1));
      std::vector<uint64_t> draw(num_classes);
      for (size_t c = 0; c < num_cells; ++c) {
        DrawMultinomial(cells_->cell_counts[c], q_, &rng, draw.data());
        for (uint32_t k = 0; k < num_classes; ++k) world_totals[k] += draw[k];
        for (uint32_t k = 0; k + 1 < num_classes; ++k) {
          cell_class[static_cast<size_t>(k) * num_cells + c] =
              static_cast<uint32_t>(draw[k]);
        }
      }
      if (cells_->num_outside > 0) {
        DrawMultinomial(cells_->num_outside, q_, &rng, draw.data());
        for (uint32_t k = 0; k < num_classes; ++k) world_totals[k] += draw[k];
      }
      std::vector<uint64_t> counts(num_regions * (num_classes - 1));
      std::vector<const uint64_t*> class_ptrs(num_classes - 1);
      for (uint32_t k = 0; k + 1 < num_classes; ++k) {
        family_.CountPositivesFromCells(
            cell_class.data() + static_cast<size_t>(k) * num_cells,
            counts.data() + static_cast<size_t>(k) * num_regions);
        class_ptrs[k] = counts.data() + static_cast<size_t>(k) * num_regions;
      }
      return MaxLlr(class_ptrs.data(), world_totals.data(), num_classes,
                    total_n);
    }

    // Reference oracle of the label-world path: K−1 indicator passes through
    // the scalar binary counting interface — the construction
    // CountClassesBatch must reproduce exactly. All O(N)/O(regions) buffers
    // (including the indicator Labels) live in the thread-local arena, so
    // reference worlds allocate nothing in steady state and stay timing-
    // comparable with the batched strategy.
    MultinomialArena& arena = LocalArena();
    arena.classes.resize(total_n);
    arena.indicator.resize(total_n);
    arena.region_counts.resize(num_regions * (num_classes - 1));
    arena.class_ptrs.resize(num_classes - 1);
    DrawPointClasses(&rng, arena.classes.data(), total_n, world_totals.data());
    for (uint32_t k = 0; k + 1 < num_classes; ++k) {
      for (size_t i = 0; i < total_n; ++i) {
        arena.indicator[i] = arena.classes[i] == k ? 1 : 0;
      }
      arena.ref_labels.AssignBytes(arena.indicator.data(), total_n);
      family_.CountPositives(arena.ref_labels, &arena.scalar_counts);
      std::copy(arena.scalar_counts.begin(), arena.scalar_counts.end(),
                arena.region_counts.begin() +
                    static_cast<size_t>(k) * num_regions);
      arena.class_ptrs[k] =
          arena.region_counts.data() + static_cast<size_t>(k) * num_regions;
    }
    return MaxLlr(arena.class_ptrs.data(), world_totals.data(), num_classes,
                  total_n);
  }

  void RunWorldBatch(size_t w_lo, size_t w_hi, double* out) const override {
    const size_t worlds = w_hi - w_lo;
    const uint32_t num_classes = static_cast<uint32_t>(q_.size());
    const size_t num_regions = family_.num_regions();
    const uint64_t total_n = family_.num_points();
    MultinomialArena& arena = LocalArena();
    arena.world_totals.assign(worlds * num_classes, 0);
    arena.class_ptrs.resize(num_classes - 1);

    if (cells_ != nullptr) {
      // Closed-form worlds have no cross-world memory traffic to amortize
      // (like the Bernoulli statistic's cell path): a plain loop over pooled
      // buffers.
      const size_t num_cells = cells_->cell_counts.size();
      arena.cell_class.resize(num_cells * (num_classes - 1));
      arena.cell_draw.resize(num_classes);
      arena.region_counts.resize(num_regions * (num_classes - 1));
      for (size_t w = w_lo; w < w_hi; ++w) {
        Rng rng = root_.Split(w);
        uint64_t* world_totals =
            arena.world_totals.data() + (w - w_lo) * num_classes;
        for (size_t c = 0; c < num_cells; ++c) {
          DrawMultinomial(cells_->cell_counts[c], q_, &rng,
                          arena.cell_draw.data());
          for (uint32_t k = 0; k < num_classes; ++k) {
            world_totals[k] += arena.cell_draw[k];
          }
          for (uint32_t k = 0; k + 1 < num_classes; ++k) {
            arena.cell_class[static_cast<size_t>(k) * num_cells + c] =
                static_cast<uint32_t>(arena.cell_draw[k]);
          }
        }
        if (cells_->num_outside > 0) {
          DrawMultinomial(cells_->num_outside, q_, &rng,
                          arena.cell_draw.data());
          for (uint32_t k = 0; k < num_classes; ++k) {
            world_totals[k] += arena.cell_draw[k];
          }
        }
        for (uint32_t k = 0; k + 1 < num_classes; ++k) {
          family_.CountPositivesFromCells(
              arena.cell_class.data() + static_cast<size_t>(k) * num_cells,
              arena.region_counts.data() +
                  static_cast<size_t>(k) * num_regions);
          arena.class_ptrs[k] =
              arena.region_counts.data() + static_cast<size_t>(k) * num_regions;
        }
        out[w] = MaxLlr(arena.class_ptrs.data(), world_totals, num_classes,
                        total_n);
      }
      return;
    }

    // Label-world path: draw every world's classes as ONE packed class-code
    // array, then a single CountClassesBatch pass over the family's geometry
    // produces all K−1 per-class count rows for the whole batch — the K−1
    // indicator materializations and repeated counting passes of the legacy
    // construction (kept above as RunWorldReference's oracle) disappear.
    // All offsets into the worlds × (K−1) × regions buffer go through the
    // size_t-widening ClassCountRowOffset helper; forming them from narrower
    // products overflows at paper-scale configs.
    const uint32_t counted = num_classes - 1;
    const size_t points = static_cast<size_t>(total_n);
    arena.class_worlds.resize(worlds * points);
    arena.class_world_ptrs.resize(worlds);
    for (size_t j = 0; j < worlds; ++j) {
      Rng rng = root_.Split(w_lo + j);
      uint8_t* world = arena.class_worlds.data() + j * points;
      DrawPointClasses(&rng, world, total_n,
                       arena.world_totals.data() + j * num_classes);
      arena.class_world_ptrs[j] = world;
    }
    arena.counts.resize(ClassCountBufferSize(worlds, counted, num_regions));
    family_.CountClassesBatch(arena.class_world_ptrs.data(), worlds,
                              num_classes, arena.counts.data());
    for (size_t j = 0; j < worlds; ++j) {
      for (uint32_t k = 0; k < counted; ++k) {
        arena.class_ptrs[k] =
            arena.counts.data() +
            ClassCountRowOffset(j, k, counted, num_regions);
      }
      out[w_lo + j] =
          MaxLlr(arena.class_ptrs.data(),
                 arena.world_totals.data() + j * num_classes, num_classes,
                 total_n);
    }
  }

 private:
  /// Draws one world's per-point classes into `classes` and accumulates the
  /// world's class totals. kBernoulli: i.i.d. Categorical(q) per point;
  /// kPermutation: the exact observed class multiset, Fisher-Yates shuffled.
  void DrawPointClasses(Rng* rng, uint8_t* classes, uint64_t total_n,
                        uint64_t* world_totals) const {
    const uint32_t num_classes = static_cast<uint32_t>(q_.size());
    if (options_.null_model == NullModel::kBernoulli) {
      // Branchless Categorical(q): one uniform per point compared against the
      // precomputed cumulative thresholds. Data-dependent branches are poison
      // here — with q near uniform every compare is a coin flip, and the
      // mispredict cost dwarfs the arithmetic — so the class index is a sum
      // of comparison results instead (K-1 flagless adds; for the paper's
      // K=3 that is two cmovs per point). The scaled uniform is strictly
      // below the last threshold (an exact weight total) by construction, so
      // the sum always lands in [0, K).
      const double* prefix = q_prefix_.data();
      const double total = q_prefix_[num_classes - 1];
      for (uint64_t i = 0; i < total_n; ++i) {
        const double u = rng->NextDouble() * total;
        uint32_t k = 0;
        for (uint32_t c = 0; c + 1 < num_classes; ++c) {
          k += u >= prefix[c] ? 1u : 0u;
        }
        classes[i] = static_cast<uint8_t>(k);
        ++world_totals[k];
      }
      return;
    }
    uint64_t at = 0;
    for (uint32_t k = 0; k < num_classes; ++k) {
      for (uint64_t i = 0; i < class_totals_[k]; ++i) {
        classes[at++] = static_cast<uint8_t>(k);
      }
      world_totals[k] = class_totals_[k];
    }
    rng->Shuffle(classes, classes + total_n);
  }

  double MaxLlr(const uint64_t* const* counts_by_class,
                const uint64_t* world_totals, uint32_t num_classes,
                uint64_t total_n) const {
    const double null_term =
        WorldNullTerm(world_totals, num_classes, total_n, table_);
    double max_llr = 0.0;
    for (size_t r = 0; r < region_n_.size(); ++r) {
      const double llr =
          RegionLlrFromTable(counts_by_class, r, num_classes, region_n_[r],
                             total_n, world_totals, null_term, table_);
      if (llr > max_llr) max_llr = llr;
    }
    return max_llr;
  }

  const RegionFamily& family_;
  std::vector<uint64_t> class_totals_;
  std::vector<double> q_;
  std::vector<double> q_prefix_;
  MonteCarloOptions options_;
  stats::LogLikelihoodTable table_;
  std::vector<uint64_t> region_n_;
  const CellDecomposition* cells_;  // non-null => closed-form sampling
  Rng root_;
};

}  // namespace

MultinomialScanStatistic::MultinomialScanStatistic(
    std::vector<uint64_t> class_totals)
    : class_totals_(std::move(class_totals)) {
  for (uint64_t c : class_totals_) total_n_ += c;
  class_distribution_.resize(class_totals_.size());
  for (size_t k = 0; k < class_totals_.size(); ++k) {
    class_distribution_[k] =
        total_n_ == 0 ? 0.0
                      : static_cast<double>(class_totals_[k]) /
                            static_cast<double>(total_n_);
  }
}

Result<std::unique_ptr<MultinomialScanStatistic>>
MultinomialScanStatistic::FromOutcomes(const uint8_t* outcomes, size_t n,
                                       uint32_t num_classes) {
  if (num_classes < 2) {
    return Status::InvalidArgument("need at least 2 outcome classes");
  }
  if (num_classes > 256) {
    return Status::InvalidArgument("at most 256 outcome classes (uint8 ids)");
  }
  std::vector<uint64_t> totals(num_classes, 0);
  for (size_t i = 0; i < n; ++i) {
    if (outcomes[i] >= num_classes) {
      return Status::InvalidArgument(StrFormat(
          "class value %u outside [0, %u)", outcomes[i], num_classes));
    }
    ++totals[outcomes[i]];
  }
  return std::make_unique<MultinomialScanStatistic>(std::move(totals));
}

std::string MultinomialScanStatistic::Name() const {
  return StrFormat("multinomial scan statistic (K=%u)", num_classes());
}

std::string MultinomialScanStatistic::Fingerprint() const {
  std::string totals;
  for (size_t k = 0; k < class_totals_.size(); ++k) {
    if (k > 0) totals += ',';
    totals += StrFormat("%llu",
                        static_cast<unsigned long long>(class_totals_[k]));
  }
  return StrFormat("multinomial K=%u C=%s", num_classes(), totals.c_str());
}

Status MultinomialScanStatistic::ValidateOutcomes(const uint8_t* outcomes,
                                                  size_t n) const {
  if (n != total_n_) {
    return Status::InvalidArgument(
        StrFormat("outcome stream has %zu entries, statistic expects %llu",
                  n, static_cast<unsigned long long>(total_n_)));
  }
  std::vector<uint64_t> totals(class_totals_.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    if (outcomes[i] >= class_totals_.size()) {
      return Status::InvalidArgument(
          StrFormat("class value %u outside [0, %zu)", outcomes[i],
                    class_totals_.size()));
    }
    ++totals[outcomes[i]];
  }
  if (totals != class_totals_) {
    return Status::InvalidArgument(
        "outcome stream's class totals differ from the statistic's; build "
        "the statistic from this view (MakeScanStatistic)");
  }
  return Status::OK();
}

Status MultinomialScanStatistic::ValidateForFamily(
    const RegionFamily& family) const {
  if (class_totals_.size() < 2) {
    return Status::InvalidArgument("need at least 2 outcome classes");
  }
  if (family.num_points() != total_n_) {
    return Status::InvalidArgument(StrFormat(
        "region family is bound to %zu points but the statistic's view has "
        "%llu",
        family.num_points(), static_cast<unsigned long long>(total_n_)));
  }
  return Status::OK();
}

ScanResult MultinomialScanStatistic::ScanObserved(const RegionFamily& family,
                                                  const uint8_t* outcomes,
                                                  size_t n,
                                                  AuditScratch* scratch) const {
  SFA_CHECK(n == total_n_);
  const uint32_t num_classes = this->num_classes();
  const size_t num_regions = family.num_regions();
  const stats::LogLikelihoodTable& table = scratch->TableFor(n);

  // Per-class region counts in one pass: the outcome stream IS a packed
  // class-code world, so the native kernel counts all K−1 classes directly
  // (the last class stays derived from n(R)). The count buffer lives in the
  // scratch, so a pooled worker's steady state allocates nothing beyond the
  // result (class_ptrs is O(K)).
  const uint32_t counted = num_classes - 1;
  scratch->counts.resize(ClassCountBufferSize(1, counted, num_regions));
  family.CountClassesBatch(&outcomes, 1, num_classes, scratch->counts.data());
  std::vector<const uint64_t*> class_ptrs(counted);
  for (uint32_t k = 0; k < counted; ++k) {
    class_ptrs[k] =
        scratch->counts.data() + ClassCountRowOffset(0, k, counted, num_regions);
  }

  ScanResult result;
  result.total_n = n;
  result.total_p = 0;
  result.num_classes = num_classes;
  result.llr.resize(num_regions);
  result.class_counts.resize(num_regions * static_cast<size_t>(num_classes));
  const double null_term =
      WorldNullTerm(class_totals_.data(), num_classes, n, table);
  for (size_t r = 0; r < num_regions; ++r) {
    const uint64_t region_n = family.PointCount(r);
    uint64_t counted = 0;
    for (uint32_t k = 0; k + 1 < num_classes; ++k) {
      const uint64_t c = class_ptrs[k][r];
      result.class_counts[r * num_classes + k] = c;
      counted += c;
    }
    result.class_counts[r * num_classes + (num_classes - 1)] =
        region_n - counted;
    const double llr =
        RegionLlrFromTable(class_ptrs.data(), r, num_classes, region_n, n,
                           class_totals_.data(), null_term, table);
    result.llr[r] = llr;
    if (llr > result.max_llr) {
      result.max_llr = llr;
      result.argmax = r;
    }
  }
  return result;
}

std::unique_ptr<StatisticSimulation> MultinomialScanStatistic::MakeSimulation(
    const RegionFamily& family, const MonteCarloOptions& options) const {
  return std::make_unique<MultinomialSimulation>(family, class_totals_,
                                                 class_distribution_, options);
}

void MultinomialScanStatistic::FillFinding(const RegionFamily& family,
                                           const ScanResult& observed,
                                           size_t region,
                                           RegionFinding* finding) const {
  (void)family;
  const uint32_t num_classes = observed.num_classes;
  finding->class_counts.assign(
      observed.class_counts.begin() + region * num_classes,
      observed.class_counts.begin() + (region + 1) * num_classes);
  finding->n = 0;
  for (uint64_t c : finding->class_counts) finding->n += c;
  finding->p = 0;
  finding->local_rate = 0.0;
  // The SUL analog: log L1max(R) = Λ + maximized null log-likelihood.
  finding->log_sul =
      finding->llr + MultinomialNullLogLikelihood(class_totals_, total_n_);
}

}  // namespace sfa::core
