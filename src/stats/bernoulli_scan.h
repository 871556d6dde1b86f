// The Bernoulli spatial scan statistic (Kulldorff 1997) as used by the
// paper's spatial-fairness likelihood-ratio test (§3).
//
// For a region R with n = n(R) individuals of which p = p(R) are positive,
// inside a population of N individuals with P positives:
//
//   log L0max        = ll(P, N)                      (one global rate)
//   log L1max(R)     = ll(p, n) + ll(P-p, N-n)       (inside/outside rates)
//   Λ(R)             = log L1max(R) - log L0max      (the log-likelihood ratio)
//
// with ll(k, m) = k log(k/m) + (m-k) log(1 - k/m) and 0·log 0 := 0. The paper
// calls L1max(R) the spatial unfairness likelihood (SUL, its Eq. 1) and keeps
// the statistic two-sided: any difference between the inside and outside rates
// counts. Directional variants restrict to regions whose inside rate is higher
// ("green") or lower ("red") than the outside rate (paper App. B.2).
#ifndef SFA_STATS_BERNOULLI_SCAN_H_
#define SFA_STATS_BERNOULLI_SCAN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sfa::stats {

/// Which deviations of the inside rate count as signal.
enum class ScanDirection {
  kTwoSided,  ///< any inside/outside difference (the paper's default)
  kHigh,      ///< inside rate above outside rate ("green" regions)
  kLow,       ///< inside rate below outside rate ("red" regions)
};

const char* ScanDirectionToString(ScanDirection d);

/// Maximized Bernoulli log-likelihood of k successes in m trials:
/// k log(k/m) + (m-k) log(1-k/m), with the 0 log 0 = 0 convention.
/// Requires 0 <= k <= m; returns 0 for m == 0.
double MaxBernoulliLogLikelihood(uint64_t k, uint64_t m);

/// Counts that parameterize one evaluation of the scan statistic.
struct ScanCounts {
  uint64_t n = 0;  ///< individuals inside the region
  uint64_t p = 0;  ///< positives inside the region
  uint64_t total_n = 0;  ///< N, individuals overall
  uint64_t total_p = 0;  ///< P, positives overall

  bool IsValid() const {
    return p <= n && total_p <= total_n && n <= total_n && p <= total_p &&
           (total_n - n) >= (total_p - p);
  }

  double inside_rate() const { return n == 0 ? 0.0 : static_cast<double>(p) / n; }
  double outside_rate() const {
    const uint64_t m = total_n - n;
    return m == 0 ? 0.0 : static_cast<double>(total_p - p) / m;
  }
  double overall_rate() const {
    return total_n == 0 ? 0.0 : static_cast<double>(total_p) / total_n;
  }
};

/// Log-likelihood ratio Λ(R) >= 0 of the alternative (inside != outside)
/// over the null (single rate). Returns 0 when the observed inside and
/// outside rates coincide, or when the deviation does not match `direction`.
double BernoulliLogLikelihoodRatio(const ScanCounts& counts,
                                   ScanDirection direction = ScanDirection::kTwoSided);

/// Memoized k·log k table for allocation-free, log-free LLR evaluation on the
/// Monte Carlo hot path. Every count entering the scan statistic is an
/// integer in [0, N], and
///
///   ll(k, m) = k log(k/m) + (m-k) log(1-k/m) = t[k] + t[m-k] - t[m]
///
/// with t[k] = k log k (t[0] = 0), so a whole Λ(R) evaluation is 9 table
/// lookups and adds — no std::log calls. The table costs (N+1) doubles and is
/// shared read-only across worker threads.
///
/// Table-based values agree with the direct formula to ~1 ulp of the additive
/// reassociation (see test_bernoulli_scan.cc); the Monte Carlo engine uses
/// the table for every world so null distributions are internally exact.
class LogLikelihoodTable {
 public:
  /// Builds t[k] = k log k for k in [0, max_count]; max_count must be at
  /// most UINT32_MAX (a family holds fewer than 2^32 points).
  explicit LogLikelihoodTable(uint64_t max_count);

  uint64_t max_count() const { return klogk_.size() - 1; }

  double klogk(uint64_t k) const { return klogk_[k]; }

  /// t[0..max_count()], for kernels that gather entries by index.
  const double* data() const { return klogk_.data(); }

  /// ll(k, m) via three lookups; requires k <= m <= max_count().
  double MaxBernoulliLogLikelihood(uint64_t k, uint64_t m) const {
    return klogk_[k] + klogk_[m - k] - klogk_[m];
  }

 private:
  std::vector<double> klogk_;
};

/// Table-driven Λ(R): identical semantics to the std::log overload (same
/// zero-gating for degenerate or direction-mismatched regions), with all
/// transcendentals replaced by lookups. Requires counts.total_n <=
/// table.max_count(). The direction gate compares integer cross-products
/// (p·n_out vs p_out·n), so gating decisions are exact.
double BernoulliLogLikelihoodRatio(const ScanCounts& counts, ScanDirection direction,
                                   const LogLikelihoodTable& table);

/// log L1max(R): the log of the paper's SUL (Eq. 1). Equals
/// BernoulliLogLikelihoodRatio(counts) + log L0max.
double LogSpatialUnfairnessLikelihood(const ScanCounts& counts);

/// log L0max: maximized null log-likelihood for the whole dataset.
double NullLogLikelihood(uint64_t total_p, uint64_t total_n);

}  // namespace sfa::stats

#endif  // SFA_STATS_BERNOULLI_SCAN_H_
