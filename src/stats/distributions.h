// Probability distributions needed by the audit framework and its tests:
// exact binomial pmf/cdf (log-space, stable for large n), normal cdf, and
// log-gamma. These back the false-alarm analysis (Fig. 6 of the paper) and
// the property tests for the scan statistic.
#ifndef SFA_STATS_DISTRIBUTIONS_H_
#define SFA_STATS_DISTRIBUTIONS_H_

#include <cstdint>
#include <vector>

#include "common/random.h"

namespace sfa::stats {

/// log Γ(x) for x > 0 (Lanczos approximation, |error| < 1e-13).
double LogGamma(double x);

/// log C(n, k); requires k <= n.
double LogBinomialCoefficient(uint64_t n, uint64_t k);

/// log P[Binomial(n, p) = k]. Handles p in {0, 1} exactly; -inf for
/// impossible outcomes.
double BinomialLogPmf(uint64_t k, uint64_t n, double p);

/// P[Binomial(n, p) = k].
double BinomialPmf(uint64_t k, uint64_t n, double p);

/// P[Binomial(n, p) <= k], summed in the shorter tail for accuracy.
double BinomialCdf(uint64_t k, uint64_t n, double p);

/// P[Binomial(n, p) >= k].
double BinomialSf(uint64_t k, uint64_t n, double p);

/// Standard normal cumulative distribution function.
double NormalCdf(double z);

/// Standard normal density.
double NormalPdf(double z);

/// Two-sided binomial test p-value: probability under Binomial(n, p) of an
/// outcome at most as probable as the observed k (minlike method, the same
/// convention as R's binom.test).
double BinomialTestTwoSided(uint64_t k, uint64_t n, double p);

/// O(1)-per-draw Binomial(n, p) sampler for FIXED (n, p): a Walker/Vose
/// alias table over the (numerically supported) binomial outcomes, built once
/// in O(n). One draw costs one uniform and two table loads — no
/// transcendentals, no rejection loop.
///
/// This is the Monte Carlo engine's closed-form null sampler: a partition
/// family's cell keeps the same (n_c, ρ) across every simulated world, so
/// the per-cell pmf is computed once and each world pays O(cells) uniforms
/// total. The pmf is evaluated outward from the mode (stable recurrence);
/// outcomes whose probability underflows double precision are excluded,
/// a truncation below 1e-300 of mass. Use Rng::Binomial for one-off draws.
class FixedBinomialSampler {
 public:
  /// Degenerate sampler that always returns 0.
  FixedBinomialSampler() = default;

  FixedBinomialSampler(uint64_t n, double p);

  /// Draws one variate; consumes exactly one uniform unless the distribution
  /// is a point mass (then none).
  uint64_t Draw(Rng* rng) const {
    if (threshold_.empty()) return first_;
    const double x = rng->NextDouble() * static_cast<double>(threshold_.size());
    size_t i = static_cast<size_t>(x);
    if (i >= threshold_.size()) i = threshold_.size() - 1;  // u ~ 1 edge
    return first_ + ((x - static_cast<double>(i)) < threshold_[i] ? i : alias_[i]);
  }

  uint64_t n() const { return n_; }
  double p() const { return p_; }

  /// The alias structure Draw reads: outcome first() + i is kept with
  /// probability thresholds()[i], else aliased to first() + aliases()[i].
  /// Both are empty for a point mass at first().
  uint64_t first() const { return first_; }
  const std::vector<double>& thresholds() const { return threshold_; }
  const std::vector<uint32_t>& aliases() const { return alias_; }

 private:
  uint64_t n_ = 0;
  double p_ = 0.0;
  uint64_t first_ = 0;  // smallest representable outcome
  // Vose alias structure over outcomes [first_, first_ + K): entry i keeps
  // outcome first_+i with probability threshold_[i], else alias to
  // first_+alias_[i].
  std::vector<double> threshold_;
  std::vector<uint32_t> alias_;
};

}  // namespace sfa::stats

#endif  // SFA_STATS_DISTRIBUTIONS_H_
