// The pluggable scan-statistic layer: one abstraction behind which every
// outcome model (Bernoulli today, multinomial, and future continuous or
// autocorrelation-aware statistics) plugs into the SAME engine, cache, and
// serving stack.
//
// The paper's framework is statistic-agnostic: scan a region family for
// τ = max_R Λ(R), calibrate τ's null distribution by Monte Carlo, rank the
// evidence. What varies per outcome model is exactly four things, and they
// are the interface:
//
//   observed scan      per-region Λ of the observed world (ScanObserved);
//   null simulation    a per-simulation context that draws alternate worlds
//                      and evaluates their max Λ (MakeSimulation), run by the
//                      generic batched Monte Carlo engine (core/mc_engine.h);
//   evidence fields    how a significant region is described to humans
//                      (FillFinding);
//   identity           a stable fingerprint string embedded in calibration
//                      keys (Fingerprint), so calibrations of different
//                      statistics can never collide in the cache or the
//                      persistent store.
//
// Implementations must uphold the engine's determinism contract: for a fixed
// seed, a simulation's maxima are bit-identical across batch size, thread
// count, and parallel on/off. They achieve this the same way the Bernoulli
// statistic does — per-world RNG substreams (Rng::Split(world)) and a shared
// k·log k log-likelihood table so observed and null worlds with identical
// counts produce bit-identical statistics (exact tie semantics for the rank
// p-value).
#ifndef SFA_CORE_SCAN_STATISTIC_H_
#define SFA_CORE_SCAN_STATISTIC_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/labels.h"
#include "core/region_family.h"
#include "core/scan.h"
#include "core/significance.h"
#include "geo/rect.h"
#include "stats/bernoulli_scan.h"

namespace sfa::core {

/// The bundled outcome models. Every kind shares the full performance and
/// serving stack (batched MC engine, calibration cache/store, streaming
/// Submit) — adding a kind means implementing ScanStatistic, nothing else.
enum class StatisticKind : uint8_t {
  kBernoulli = 0,   ///< binary outcome rate (the paper's test)
  kMultinomial = 1, ///< full K-class outcome distribution (Jung et al. 2010)
};

const char* StatisticKindToString(StatisticKind kind);

/// One region offered as evidence of spatial unfairness. Bernoulli audits
/// fill the rate fields (p, local_rate, log_sul); multinomial audits fill
/// class_counts and leave the binary-only fields zero.
struct RegionFinding {
  size_t region_index = 0;
  geo::Rect rect;
  std::string label;
  uint32_t group = 0;
  uint64_t n = 0;          ///< individuals inside
  uint64_t p = 0;          ///< positives inside (Bernoulli)
  double local_rate = 0.0; ///< ρ(R) = p/n (Bernoulli)
  double llr = 0.0;        ///< Λ(R); ranking by Λ == ranking by SUL
  double log_sul = 0.0;    ///< log of the paper's Eq. 1 (statistic's analog)
  bool significant = false;
  /// True when `significant` was decided against a tail-advisory threshold
  /// (Gumbel quantile) because the empirical critical value was unresolvable
  /// at this world budget — treat as indicative, not calibrated.
  bool advisory = false;
  /// Per-class counts inside the region (multinomial; empty for Bernoulli).
  std::vector<uint64_t> class_counts;
};

/// Reusable per-thread buffers for pooled audit execution: the audit
/// pipeline keeps one AuditScratch per worker so the steady state of a
/// request stream allocates no observed-world storage and rebuilds the
/// O(N)-std::log likelihood table only when the view size changes. Plain
/// Audit/AuditView calls allocate transparently when no scratch is supplied.
/// Statistics share the table and label buffers; the byte and count buffers
/// are generic scratch any statistic may resize and use (the multinomial
/// statistic keeps its indicator bytes and per-class count rows here so a
/// pooled worker's steady state stays allocation-free).
struct AuditScratch {
  Labels observed_labels;
  std::optional<stats::LogLikelihoodTable> table;
  std::vector<uint8_t> bytes;
  std::vector<uint64_t> counts;
  std::vector<uint64_t> region_counts;

  /// The k·log k table for views of `total_n` points, rebuilt on size change.
  const stats::LogLikelihoodTable& TableFor(uint64_t total_n) {
    if (!table.has_value() || table->max_count() != total_n) {
      table.emplace(total_n);
    }
    return *table;
  }
};

/// Per-simulation immutable context built once by a statistic (tables,
/// per-region point counts, closed-form cell samplers, the RNG root) and
/// shared read-only across worker threads by the generic Monte Carlo engine.
/// Mutable per-world buffers live in implementation-owned thread-local
/// arenas, so steady-state batches allocate nothing.
class StatisticSimulation {
 public:
  virtual ~StatisticSimulation() = default;

  /// Max statistics of worlds [w_lo, w_hi) into out[w_lo..w_hi), through
  /// pooled thread-local buffers and the family's batched counting paths.
  /// World w's value depends on w alone, never on the range it came in.
  virtual void RunWorldBatch(size_t w_lo, size_t w_hi, double* out) const = 0;
};

/// One outcome model bound to one audit view's totals. Instances are
/// immutable and cheap; the Auditor builds one per audit (or the caller
/// injects one). The view totals are constructor state — not method
/// parameters — because they are part of the calibration identity: two
/// audits may share a null calibration iff family fingerprint, N, this
/// statistic's Fingerprint(), and the draw-relevant Monte Carlo options all
/// agree (see core/calibration_cache.h).
class ScanStatistic {
 public:
  virtual ~ScanStatistic() = default;

  virtual StatisticKind kind() const = 0;

  /// Human-readable one-liner for reports.
  virtual std::string Name() const = 0;

  /// Stable identity string embedded in calibration keys (hashed AND carried
  /// in the debug rendering). Must capture everything statistic-specific
  /// that shapes the observed Λ or the null draws: the kind, its
  /// configuration (direction, class count), and the view totals beyond N
  /// (P for Bernoulli, per-class totals for multinomial). Changing a
  /// statistic's arithmetic or RNG stream MUST change this string.
  virtual std::string Fingerprint() const = 0;

  /// N: number of individuals in the view this statistic was built from.
  virtual uint64_t total_n() const = 0;

  /// Per-point outcome values this statistic can scan (0/1 for Bernoulli,
  /// class ids < K for multinomial). `n` must equal total_n().
  virtual Status ValidateOutcomes(const uint8_t* outcomes, size_t n) const = 0;

  /// Checks this statistic can calibrate against `family` (point counts
  /// match, totals consistent). Called by SimulateNull before simulating.
  virtual Status ValidateForFamily(const RegionFamily& family) const = 0;

  /// Full per-region scan of the observed world: Λ per region, the counts
  /// evidence needs, and τ = max Λ. Arithmetic contract: evaluates Λ through
  /// the same shared table as the null simulation, so observed-vs-null ties
  /// are exact. `scratch` recycles buffers across pooled calls.
  virtual ScanResult ScanObserved(const RegionFamily& family,
                                  const uint8_t* outcomes, size_t n,
                                  AuditScratch* scratch) const = 0;

  /// The per-simulation context the generic Monte Carlo engine runs
  /// (core/mc_engine.h). Inputs are assumed validated via ValidateForFamily.
  virtual std::unique_ptr<StatisticSimulation> MakeSimulation(
      const RegionFamily& family, const MonteCarloOptions& options) const = 0;

  /// Fills the statistic-specific fields of one evidence finding from the
  /// observed scan (n/p/local_rate/log_sul for Bernoulli; class_counts for
  /// multinomial). Generic fields (region_index, rect, label, group, llr,
  /// significant) are the caller's job.
  virtual void FillFinding(const RegionFamily& family,
                           const ScanResult& observed, size_t region,
                           RegionFinding* finding) const = 0;

  /// Global empirical class proportions for the result (multinomial); empty
  /// for statistics without a class decomposition.
  virtual std::vector<double> ClassDistribution() const { return {}; }
};

/// Partial progress of a stopped calibration, reported through the error
/// path of SimulateNull so an incomplete null distribution is never mistaken
/// for (or cached as) a complete one. `maxima` holds the contiguous
/// completed-world prefix in world order (see core/mc_engine.h for why that
/// prefix is deterministic given its length).
struct PartialCalibration {
  size_t worlds_completed = 0;
  std::vector<double> maxima;
};

/// Simulates the null distribution of the max statistic for `statistic` over
/// `family` — the statistic-generic entry point of the calibration path.
///
/// Cooperative stop: when options.cancel / options.deadline (or an armed
/// `mc_engine.batch` failpoint) stop the run early, the call FAILS with the
/// stop cause (Cancelled / DeadlineExceeded / the injected status) so
/// read-through caches drop it; callers that can serve degraded results pass
/// `partial` to receive the completed-world prefix alongside that error.
Result<NullDistribution> SimulateNull(const ScanStatistic& statistic,
                                      const RegionFamily& family,
                                      const MonteCarloOptions& options,
                                      PartialCalibration* partial = nullptr);

}  // namespace sfa::core

#endif  // SFA_CORE_SCAN_STATISTIC_H_
