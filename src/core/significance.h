// Monte Carlo calibration of the scan statistic (paper §3): simulate W-1
// alternate worlds that keep every individual's location but redraw labels
// under spatial fairness, record each world's max statistic, and read off
// p-values and per-region critical values from the resulting null
// distribution of max Λ.
#ifndef SFA_CORE_SIGNIFICANCE_H_
#define SFA_CORE_SIGNIFICANCE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"

namespace sfa {
class CancellationToken;  // common/thread_pool.h
}

namespace sfa::core {

enum class NullModel {
  /// Each label is an independent Bernoulli(ρ) trial — the paper's variant.
  kBernoulli,
  /// Exactly P positives permuted over locations (Kulldorff's conditional
  /// null). Provided for ablation; slightly tighter for small N.
  kPermutation,
};

const char* NullModelToString(NullModel model);

/// How a p-value (and the advisory critical value) is derived from the
/// simulated null distribution.
enum class SignificanceMethod : uint8_t {
  /// The exact Monte Carlo rank p-value only (the paper's k/w formulation).
  /// Resolution is hard-capped at 1/(num_worlds+1).
  kEmpirical = 0,
  /// The Gumbel tail fit to the simulated maxima (Abrams/Kulldorff/Kleinman
  /// 2010), when the fit passes the KS quality gate; degrades to empirical
  /// otherwise. Smooth far-tail p-values, approximate everywhere.
  kGumbelTail = 1,
  /// Empirical while the observed statistic is inside the simulated range;
  /// the gated Gumbel tail only when it exceeds every simulated maximum —
  /// exactly where the empirical p-value saturates at 1/(num_worlds+1).
  kAuto = 2,
};

const char* SignificanceMethodToString(SignificanceMethod method);

/// Why an adaptive sequential Monte Carlo run stopped before simulating all
/// requested worlds. kNone means no adaptive stop (full run, or an
/// error/deadline stop reported through Status instead).
enum class McStopReason : uint8_t {
  kNone = 0,
  /// The CI on the running p-value lies entirely below alpha: the observed
  /// statistic is settled significant; more worlds cannot change the verdict.
  kCiBelowAlpha = 1,
  /// The CI lies entirely above alpha: settled not significant.
  kCiAboveAlpha = 2,
};

const char* McStopReasonToString(McStopReason reason);

/// Sequential early-stopping configuration of the Monte Carlo engine. At
/// every `check_every`-world boundary the engine computes a Wilson CI (at
/// `z` standard normal units) on the exceedance probability of `observed`
/// against the worlds simulated so far, and stops as soon as the CI lies
/// entirely on one side of `alpha` AND the running rank p-value agrees with
/// that side (so a served prefix p-value never contradicts the stop verdict).
///
/// Unlike the execution-only stop controls below, every field here is
/// DECISION-RELEVANT: it changes how many worlds the calibration contains,
/// hence the calibration value itself. All fields are therefore hashed into
/// calibration keys when `enabled` (core/calibration_cache.cc), so an
/// early-stopped calibration can never alias a full-precision one — a
/// request with adaptive disabled recomputes rather than silently adopting
/// a shortened null. Note the key consequence: `observed` and `alpha` are
/// request-specific, so adaptive calibrations do not share across an
/// alpha-sweep the way full calibrations do; enable adaptive when keys are
/// cold-unique, keep it off to maximize cache sharing.
struct AdaptiveMcOptions {
  bool enabled = false;
  /// The observed max statistic whose p-value is being decided. The audit
  /// pipeline and Auditor fill this from the observed scan; direct
  /// SimulateNull callers set it themselves.
  double observed = 0.0;
  /// The decision level the CI is tested against (the audit's alpha).
  double alpha = 0.05;
  /// Never stop before this many worlds (stabilizes the normal
  /// approximation behind the Wilson interval).
  uint32_t min_worlds = 64;
  /// Worlds per sequential chunk between CI checks. Unlike batch_size this
  /// IS decision-relevant: it sets where a stop can land.
  uint32_t check_every = 64;
  /// Wilson interval half-width in standard normal units. 3.2905 is the
  /// two-sided 99.9% quantile: stops are wrong (would disagree with the
  /// full run's verdict) with probability ~1e-3 per decided calibration.
  double z = 3.2905;
};

struct MonteCarloOptions {
  /// Number of simulated worlds (W-1 in the paper's notation; the observed
  /// world makes it W). 999 gives p-value resolution 0.001.
  uint32_t num_worlds = 999;
  NullModel null_model = NullModel::kBernoulli;
  uint64_t seed = 99;
  /// Worlds are simulated on the default thread pool when true; results are
  /// identical either way (per-world substreams).
  bool parallel = true;
  /// Worlds per batch: the unit of work a pool worker takes, which the
  /// engine counts in tiles of up to 64 worlds whose mask words and count
  /// rows fit one worker's block (core/lane_sampler.h's WorldTile). On a
  /// parallel run a batch is also capped near range / workers (a multiple
  /// of 8), so that a short range, such as one adaptive check_every chunk,
  /// still spreads over the pool.
  /// Affects performance only, never results — on every family counting
  /// path (partition/closed-form cells, the overlapping families' annulus
  /// walk) counts are exact integers, so batch boundaries cannot shift the
  /// null distribution — and so is not part of a CalibrationKey.
  uint32_t batch_size = 64;
  /// When the family exposes a cell decomposition (grid, rectangle sweep,
  /// single partitioning) and the null is Bernoulli, draw per-cell positives
  /// directly as independent Binomial(n_c, ρ) — O(cells) per world instead of
  /// O(N) point labeling. Distributionally identical to point-level sampling
  /// (the per-cell counts of i.i.d. Bernoulli labels ARE independent
  /// binomials) but consumes a different RNG stream, so disable it to
  /// reproduce point-level draws world-by-world.
  bool closed_form_cells = true;

  /// Sequential early stopping (decision-relevant; see AdaptiveMcOptions).
  AdaptiveMcOptions adaptive;

  // --- Execution-only cooperative stop controls -----------------------------
  // Consulted between world batches, and ONLY when the caller passes a
  // McRunOutcome (core/mc_engine.h) — a run that cannot report partial
  // progress is never stopped early, so it can never silently return (or
  // cache) a short null distribution. These fields are intentionally absent
  // from calibration keys (core/calibration_cache.cc): they change when a
  // simulation stops, never what it computes.

  /// Sticky cooperative cancel, polled at batch boundaries. Not owned.
  const CancellationToken* cancel = nullptr;
  /// Liveness callback fired at every world-batch boundary regardless of
  /// stoppability (callee rate-limits). The calibration fabric wires this to
  /// the key's lease heartbeat (core/calibration_cache.h ComputeContext) so
  /// a long simulation keeps its cross-process lease fresh. Execution-only:
  /// absent from calibration keys, never affects drawn values.
  std::function<void()> heartbeat;
  /// Absolute deadline; epoch-zero (the default) means none. Worlds whose
  /// batch starts before the deadline still run to completion — the engine
  /// stops before batches, never inside one.
  std::chrono::steady_clock::time_point deadline{};
};

/// Default KS-distance bound of the Gumbel tail-fit quality gate: the fit
/// is trusted only when its CDF tracks the empirical maxima within this
/// distance over the checkable range. 0.1 comfortably admits the
/// near-Gumbel maxima of real scan nulls (KS ~ 1.4/sqrt(W) ≈ 0.04 at
/// W = 999 when the family is Gumbel) while rejecting point-massed or
/// otherwise degenerate nulls (tiny families whose worlds mostly scan to
/// one value), whose KS distance against any continuous fit approaches the
/// mass of the largest atom.
inline constexpr double kDefaultTailKsGate = 0.1;

/// Gumbel tail fit of a null distribution plus its quality-gate verdict.
struct TailFit {
  /// The method-of-moments fit succeeded (>= 2 worlds, non-constant maxima).
  bool fitted = false;
  /// fitted AND ks_distance <= the gate: the tail extrapolation is usable.
  bool ok = false;
  /// KS distance of the fitted CDF against the empirical maxima (1 when the
  /// fit failed outright).
  double ks_distance = 1.0;
  double mu = 0.0;    ///< Gumbel location (when fitted)
  double beta = 0.0;  ///< Gumbel scale (when fitted)
};

/// One resolved p-value: the estimate plus which method actually produced
/// it. `method` is always kEmpirical or kGumbelTail — the concrete method
/// used, never kAuto.
struct PValueEstimate {
  double p_value = 1.0;
  SignificanceMethod method = SignificanceMethod::kEmpirical;
  /// The tail-fit gate verdict (false when the fit was never attempted —
  /// kEmpirical, or kAuto with the observed value in simulated range).
  bool tail_fit_ok = false;
  /// KS distance of the attempted tail fit (1 when not attempted).
  double tail_ks = 1.0;
};

/// A significance threshold that knows whether it is exact. Distinguishes
/// "alpha is unresolvable at this world count" from "nothing reached the
/// threshold" — previously both surfaced as +inf.
struct CriticalValueInfo {
  /// The threshold: the empirical order statistic when `resolvable`, the
  /// Gumbel advisory quantile when `advisory_tail`, +inf otherwise.
  double value = 0.0;
  /// floor(alpha*(num_worlds+1)) >= 1: the empirical null can express a
  /// threshold at this alpha. When false, no region can clear the exact
  /// Monte Carlo test at this world count no matter how extreme.
  bool resolvable = false;
  /// `value` is the Gumbel quantile at 1-alpha (fit passed the quality
  /// gate), offered as an ADVISORY threshold where the empirical one is
  /// unresolvable. Never set when `resolvable`.
  bool advisory_tail = false;
};

/// The simulated null distribution of the max statistic.
///
/// Storage model: the sorted maxima live in a single immutable allocation
/// owned through a type-erased shared keepalive, and the object itself holds
/// only a span into it. Copying a NullDistribution (e.g. into every
/// AuditResult) is therefore O(1) — a span plus a reference bump, never a
/// heap copy of W doubles — and the same representation serves ZERO-COPY
/// views whose maxima live in storage the distribution does not own at all,
/// such as an mmap'd CalibrationStore frame (the keepalive then pins the
/// mapping, so views stay valid even after the frame is unlinked on disk —
/// POSIX keeps mapped pages alive until the last munmap).
class NullDistribution {
 public:
  NullDistribution() = default;
  explicit NullDistribution(std::vector<double> max_llrs);
  /// An (adaptively) early-stopped calibration: `max_llrs` holds the
  /// completed contiguous world prefix of a run that targeted
  /// `worlds_requested` worlds, cut short because `stop_reason` settled the
  /// decision. Requires worlds_requested >= max_llrs.size().
  NullDistribution(std::vector<double> max_llrs, uint64_t worlds_requested,
                   McStopReason stop_reason);
  /// Zero-copy view: `sorted_maxima` must already be sorted DESCENDING and
  /// must stay valid for as long as `backing` keeps its referent alive (the
  /// caller — CalibrationStore::LoadView — validates sortedness during its
  /// one-time frame validation). No bytes are copied; every copy of the
  /// resulting object shares `backing`.
  NullDistribution(std::span<const double> sorted_maxima,
                   std::shared_ptr<const void> backing,
                   uint64_t worlds_requested, McStopReason stop_reason);

  size_t num_worlds() const { return maxima_.size(); }
  std::span<const double> sorted_max() const { return maxima_; }
  /// Owned copy of the maxima (tests, serialization helpers). O(W).
  std::vector<double> MaximaVector() const {
    return std::vector<double>(maxima_.begin(), maxima_.end());
  }
  /// True when the maxima live in storage this object does not own (an
  /// mmap'd store frame held alive through the backing keepalive).
  bool zero_copy() const { return zero_copy_; }

  /// The world count the simulation targeted; equals num_worlds() for full
  /// runs, exceeds it for early-stopped calibrations.
  uint64_t worlds_requested() const { return worlds_requested_; }
  bool early_stopped() const { return num_worlds() < worlds_requested_; }
  /// Why an early-stopped run ended (kNone for full runs).
  McStopReason stop_reason() const { return stop_reason_; }

  /// Monte Carlo p-value of an observed max statistic: with the observed
  /// world included, p = (1 + #{null >= observed}) / (num_worlds + 1), the
  /// paper's k/w rank formulation.
  double PValue(double observed) const;

  /// Per-region significance threshold at level `alpha`: the smallest Λ such
  /// that PValue(Λ) <= alpha. Regions with Λ > CriticalValue(alpha) are
  /// individually significant. Returns +inf when alpha is unattainable with
  /// this many worlds (alpha < 1/(num_worlds+1)).
  double CriticalValue(double alpha) const;

  /// Smooth far-tail p-value from a Gumbel fit to the simulated maxima
  /// (Abrams/Kulldorff/Kleinman-style). Unlike PValue, this can resolve
  /// values far below 1/num_worlds; it is an approximation and should be
  /// reported alongside the exact Monte Carlo rank p-value. Fails when the
  /// simulated maxima are too few or degenerate (< 2 distinct values —
  /// e.g. tiny families where every world scans to 0); use ResolvePValue
  /// for the error-free gated form.
  Result<double> GumbelPValue(double observed) const;

  /// Fits the Gumbel tail by moments and grades it: ks_distance is the KS
  /// distance of the fitted CDF against the empirical maxima, `ok` requires
  /// it within `max_ks`. Degenerate nulls yield fitted=false (never an
  /// error). O(num_worlds).
  TailFit AssessTailFit(double max_ks = kDefaultTailKsGate) const;

  /// Resolves the p-value of `observed` under `method` (see
  /// SignificanceMethod), degrading cleanly: whenever the tail fit fails or
  /// flunks the quality gate, the empirical rank p-value is served and the
  /// returned PValueEstimate says so. A kAuto tail value is additionally
  /// clamped to the empirical cap 1/(num_worlds+1) (it only fires beyond
  /// the simulated range, where empirical saturates there).
  PValueEstimate ResolvePValue(double observed, SignificanceMethod method,
                               double max_ks = kDefaultTailKsGate) const;

  /// CriticalValue with resolvability made explicit. When the empirical
  /// threshold is unresolvable (floor(alpha*(W+1)) == 0) and
  /// `tail_advisory` is set, a healthy tail fit supplies the Gumbel
  /// quantile at 1-alpha as an advisory threshold (advisory_tail = true);
  /// otherwise the value is +inf with both flags false.
  CriticalValueInfo CriticalValueEx(double alpha, bool tail_advisory = false,
                                    double max_ks = kDefaultTailKsGate) const;

 private:
  /// Installs an owned, freshly sorted maxima vector behind the keepalive.
  void AdoptOwned(std::vector<double> max_llrs);

  std::span<const double> maxima_;       // sorted descending
  std::shared_ptr<const void> backing_;  // owns (or pins) maxima_'s storage
  uint64_t worlds_requested_ = 0;  // == maxima_.size() unless early-stopped
  McStopReason stop_reason_ = McStopReason::kNone;
  bool zero_copy_ = false;
};

/// A NullDistribution whose maxima are served zero-copy out of storage owned
/// elsewhere — in practice an mmap'd CalibrationStore frame. Same type, same
/// API: after the span/backing refactor the distinction is purely where the
/// backing keepalive points, so views flow through the cache, the pipeline,
/// and AuditResult without any call-site changes.
using NullDistributionView = NullDistribution;

/// Validates the decision-relevant Monte Carlo options: the world count
/// and, when enabled, the adaptive sequential-stopping configuration.
/// SimulateNull (core/scan_statistic.h) runs it before every simulation.
Status ValidateMonteCarloOptions(const MonteCarloOptions& options);

}  // namespace sfa::core

#endif  // SFA_CORE_SIGNIFICANCE_H_
