#include "core/multinomial_statistic.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <new>

#include "common/macros.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/lane_sampler.h"

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
/// identical in every batch. Writes K counts to `out`.
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

/// Thread-local buffer pool of the engine's batches: packed class worlds
/// and per-cell class draws — after a worker's first batch the steady state
/// allocates nothing. The count rows and mask words live in the block the
/// Bernoulli statistic's rows use too (BatchBlock, core/lane_sampler.h).
struct MultinomialArena {
  std::vector<uint8_t> class_worlds;   // tile × N permutation class codes
  std::vector<const uint8_t*> class_world_ptrs;
  std::vector<uint64_t> world_totals;  // worlds × K
  std::vector<uint32_t> cell_class;    // one world's per-cell draws, one class
  std::vector<uint64_t> cell_draw;     // one cell's K draws
  std::vector<const uint32_t*> class_ptrs;
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
        draw_(q_),
        root_(options.seed) {
    // Regions with n(R) = 0 or N never contribute (RegionLlrFromTable gives
    // them 0), so only the others are scanned, with t(n) and t(N − n)
    // looked up once here.
    const uint64_t total_n = family_.num_points();
    for (size_t r = 0; r < family_.num_regions(); ++r) {
      const uint64_t n = family_.PointCount(r);
      if (n == 0 || n == total_n) continue;
      regions_.push_back({r, n, table_.klogk(n), table_.klogk(total_n - n)});
    }
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
      const size_t row_entries = num_regions * (num_classes - 1);
      const BatchBlock block(row_entries * sizeof(uint32_t));
      uint32_t* region_counts = new (block.data()) uint32_t[row_entries];
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
              region_counts + static_cast<size_t>(k) * num_regions);
          arena.class_ptrs[k] =
              region_counts + static_cast<size_t>(k) * num_regions;
        }
        out[w] = MaxLlr(arena.class_ptrs.data(), world_totals, num_classes,
                        total_n);
      }
      return;
    }

    const uint32_t counted = num_classes - 1;
    const size_t points = static_cast<size_t>(total_n);
    if (options_.null_model == NullModel::kBernoulli) {
      const size_t tile = WorldTile(points, num_regions, counted);
      // i.i.d. point worlds, a tile at a time: lane group g (worlds
      // t + 8g … t + 8g + 7) writes its class c plane bytes to mask byte
      // b = g·(K−1) + c, so the plane of (world t + 8g + j, class c) is
      // 8b + j and its count row lands at counts + (8b + j)·regions. The
      // bytes fill one mask word per point for up to 8 bytes, and a further
      // word array per 8 bytes beyond; one CountPlanes walk counts each.
      const size_t tile_bytes = tile / kLaneWorlds * counted;
      const size_t words = (tile_bytes + kMaskBytes - 1) / kMaskBytes;
      const size_t mask_bytes = words * points * sizeof(uint64_t);
      const size_t count_entries = tile * counted * num_regions;
      const BatchBlock block(mask_bytes + count_entries * sizeof(uint32_t));
      uint64_t* masks = new (block.data()) uint64_t[words * points];
      uint32_t* counts =
          new (block.data() + mask_bytes) uint32_t[count_entries];
      for (size_t t = w_lo; t < w_hi; t += tile) {
        const size_t worlds = std::min(tile, w_hi - t);
        const size_t groups = (worlds + kLaneWorlds - 1) / kLaneWorlds;
        for (size_t g = 0; g < groups; ++g) {
          const size_t lanes = std::min(kLaneWorlds, worlds - g * kLaneWorlds);
          Rng rngs[kLaneWorlds];
          for (size_t j = 0; j < lanes; ++j) {
            rngs[j] = root_.Split(t + g * kLaneWorlds + j);
          }
          SampleCategoricalLanes(
              draw_.thresholds(), points, lanes, rngs, masks, g * counted,
              arena.world_totals.data() +
                  (t - w_lo + g * kLaneWorlds) * num_classes);
        }
        const size_t planes = groups * counted * kLaneWorlds;
        for (size_t first = 0; first < planes;
             first += RegionFamily::kMaxPlanes) {
          family_.CountPlanes(
              masks + first / RegionFamily::kMaxPlanes * points,
              std::min(RegionFamily::kMaxPlanes, planes - first),
              counts + first * num_regions, num_regions);
        }
        for (size_t w = 0; w < worlds; ++w) {
          const size_t g = w / kLaneWorlds;
          const size_t j = w % kLaneWorlds;
          for (uint32_t k = 0; k < counted; ++k) {
            arena.class_ptrs[k] =
                counts + ((g * counted + k) * kLaneWorlds + j) * num_regions;
          }
          out[t + w] = MaxLlr(arena.class_ptrs.data(),
                              arena.world_totals.data() +
                                  (t - w_lo + w) * num_classes,
                              num_classes, total_n);
        }
      }
      return;
    }

    // Permutation worlds keep their scalar shuffles into class codes,
    // kLaneWorlds worlds (the codes' N bytes each) at a time, whose
    // (world, class) planes are packed in ClassCountRowOffset order
    // (internal::PackClassPlanes) and counted up to 64 per walk.
    const size_t count_entries = kLaneWorlds * counted * num_regions;
    const BatchBlock block(points * sizeof(uint64_t) +
                           count_entries * sizeof(uint32_t));
    uint64_t* masks = new (block.data()) uint64_t[points];
    uint32_t* counts =
        new (block.data() + points * sizeof(uint64_t)) uint32_t[count_entries];
    arena.class_worlds.resize(kLaneWorlds * points);
    arena.class_world_ptrs.resize(kLaneWorlds);
    for (size_t t = w_lo; t < w_hi; t += kLaneWorlds) {
      const size_t worlds = std::min(kLaneWorlds, w_hi - t);
      for (size_t j = 0; j < worlds; ++j) {
        Rng rng = root_.Split(t + j);
        uint8_t* world = arena.class_worlds.data() + j * points;
        DrawPointClasses(
            &rng, world, total_n,
            arena.world_totals.data() + (t - w_lo + j) * num_classes);
        arena.class_world_ptrs[j] = world;
      }
      const size_t planes = worlds * counted;
      for (size_t first = 0; first < planes;
           first += RegionFamily::kMaxPlanes) {
        const size_t count = std::min(RegionFamily::kMaxPlanes, planes - first);
        internal::PackClassPlanes(arena.class_world_ptrs.data(), first, count,
                                  counted, points, masks);
        family_.CountPlanes(masks, count, counts + first * num_regions,
                            num_regions);
      }
      for (size_t j = 0; j < worlds; ++j) {
        for (uint32_t k = 0; k < counted; ++k) {
          arena.class_ptrs[k] =
              counts + ClassCountRowOffset(j, k, counted, num_regions);
        }
        out[t + j] = MaxLlr(arena.class_ptrs.data(),
                            arena.world_totals.data() +
                                (t - w_lo + j) * num_classes,
                            num_classes, total_n);
      }
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
      draw_.Draw(rng, classes, total_n, world_totals);
      return;
    }
    uint64_t at = 0;
    for (uint32_t k = 0; k < num_classes; ++k) {
      for (uint64_t i = 0; i < class_totals_[k]; ++i) {
        classes[at++] = static_cast<uint8_t>(k);
      }
      world_totals[k] = class_totals_[k];
    }
    // A local generator keeps its state in registers across the swaps.
    Rng local = *rng;
    local.Shuffle(classes, classes + total_n);
    *rng = local;
  }

  /// The world's max Λ over regions_: an unrolled instance for K = 3, the
  /// one measured class count, and any K through kCounted = 0.
  double MaxLlr(const uint32_t* const* counts_by_class,
                const uint64_t* world_totals, uint32_t num_classes,
                uint64_t total_n) const {
    const uint32_t counted = num_classes - 1;
    if (counted == 2) {
      return MaxLlrIn<2>(counts_by_class, world_totals, counted, total_n);
    }
    return MaxLlrIn<0>(counts_by_class, world_totals, counted, total_n);
  }

  /// RegionLlrFromTable's operation order exactly, so null maxima tie the
  /// observed scan's values bit for bit; with kCounted > 0 the class loop
  /// unrolls and its row pointers and totals stay in registers.
  template <uint32_t kCounted>
  double MaxLlrIn(const uint32_t* const* counts_by_class,
                  const uint64_t* world_totals, uint32_t counted,
                  uint64_t total_n) const {
    if constexpr (kCounted > 0) counted = kCounted;
    const double null_term =
        WorldNullTerm(world_totals, counted + 1, total_n, table_);
    const uint64_t last_total = world_totals[counted];
    double max_llr = 0.0;
    for (const Region& region : regions_) {
      double t_in = 0.0;
      double t_out = 0.0;
      uint64_t in_counted = 0;
      for (uint32_t k = 0; k < counted; ++k) {
        const uint64_t c = counts_by_class[k][region.r];
        in_counted += c;
        t_in += table_.klogk(c);
        t_out += table_.klogk(world_totals[k] - c);
      }
      const uint64_t c_last = region.n - in_counted;
      t_in += table_.klogk(c_last);
      t_out += table_.klogk(last_total - c_last);
      const double llr =
          (t_in - region.t_n) + (t_out - region.t_m) - null_term;
      max_llr = llr > max_llr ? llr : max_llr;
    }
    return max_llr;
  }

  /// A region that can contribute: 0 < n(R) < N, with t(n) and t(N − n).
  struct Region {
    size_t r;
    uint64_t n;
    double t_n;
    double t_m;
  };

  const RegionFamily& family_;
  std::vector<uint64_t> class_totals_;
  std::vector<double> q_;
  MonteCarloOptions options_;
  stats::LogLikelihoodTable table_;
  std::vector<Region> regions_;
  const CellDecomposition* cells_;  // non-null => closed-form sampling
  internal::CategoricalDraw draw_;
  Rng root_;
};

}  // namespace

namespace internal {

CategoricalDraw::CategoricalDraw(const std::vector<double>& q) {
  SFA_CHECK(q.size() >= 2 && q.size() <= 256);
  double total = 0.0;
  for (double w : q) total += w;
  double prefix = 0.0;
  for (size_t c = 0; c + 1 < q.size(); ++c) {
    prefix += q[c];
    // Smallest m in [0, 2^53] with fl(m·2^-53·total) >= prefix; the
    // product is formed exactly as NextDouble() * total forms it.
    uint64_t lo = 0;
    uint64_t hi = uint64_t{1} << 53;
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (static_cast<double>(mid) * 0x1.0p-53 * total >= prefix) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    thresholds_.push_back(lo);
  }
}

namespace {

/// CategoricalDraw::Draw with kCounted thresholds when kCounted > 0, or
/// with `counted` of them when kCounted == 0.
template <uint32_t kCounted>
void DrawClasses(const uint64_t* thresholds, uint32_t counted, Rng* rng,
                 uint8_t* classes, uint64_t n, uint64_t* totals) {
  // The class is a sum of compare results, not a branch: with q near
  // uniform every compare is a coin flip. The generator, the thresholds and
  // the class counts live in locals, so the byte stores (which may alias
  // anything) force none of them back to memory. With few thresholds
  // (kCounted > 0), count[c] counts the points at or above threshold c and
  // stays in a register; the thresholds are non-decreasing, so class k's
  // total is count[k−1] − count[k]. Otherwise count[k] is a per-class
  // histogram.
  constexpr uint32_t kSlots = kCounted > 0 ? kCounted : 255;
  if constexpr (kCounted > 0) counted = kCounted;
  uint64_t threshold[kSlots];
  std::copy(thresholds, thresholds + counted, threshold);
  uint64_t count[kSlots + 1] = {};
  Rng local = *rng;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t x = local.Next() >> 11;
    uint32_t k = 0;
    for (uint32_t c = 0; c < counted; ++c) {
      const uint32_t above = x >= threshold[c] ? 1u : 0u;
      k += above;
      if constexpr (kCounted > 0) count[c] += above;
    }
    classes[i] = static_cast<uint8_t>(k);
    if constexpr (kCounted == 0) ++count[k];
  }
  *rng = local;
  if constexpr (kCounted > 0) {
    uint64_t at_least = n;
    for (uint32_t c = 0; c < counted; ++c) {
      totals[c] += at_least - count[c];
      at_least = count[c];
    }
    totals[counted] += at_least;
  } else {
    for (uint32_t k = 0; k <= counted; ++k) totals[k] += count[k];
  }
}

}  // namespace

void CategoricalDraw::Draw(Rng* rng, uint8_t* classes, uint64_t n,
                           uint64_t* totals) const {
  const uint32_t counted = static_cast<uint32_t>(thresholds_.size());
  switch (counted) {
    case 1:
      return DrawClasses<1>(thresholds_.data(), counted, rng, classes, n,
                            totals);
    case 2:
      return DrawClasses<2>(thresholds_.data(), counted, rng, classes, n,
                            totals);
    default:
      return DrawClasses<0>(thresholds_.data(), counted, rng, classes, n,
                            totals);
  }
}

}  // namespace internal

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
  if (class_totals_.size() > 256) {
    return Status::InvalidArgument("at most 256 outcome classes (uint8 ids)");
  }
  SFA_RETURN_NOT_OK(RequireCountablePoints(family.num_points()));
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
