#include "core/significance.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"
#include "stats/gumbel.h"

namespace sfa::core {

const char* NullModelToString(NullModel model) {
  switch (model) {
    case NullModel::kBernoulli:
      return "unconditional Bernoulli";
    case NullModel::kPermutation:
      return "conditional permutation";
  }
  return "?";
}

const char* McEngineToString(McEngine engine) {
  switch (engine) {
    case McEngine::kBatched:
      return "batched";
    case McEngine::kReference:
      return "per-world reference";
  }
  return "?";
}

const char* SignificanceMethodToString(SignificanceMethod method) {
  switch (method) {
    case SignificanceMethod::kEmpirical:
      return "empirical";
    case SignificanceMethod::kGumbelTail:
      return "gumbel-tail";
    case SignificanceMethod::kAuto:
      return "auto";
  }
  return "?";
}

const char* McStopReasonToString(McStopReason reason) {
  switch (reason) {
    case McStopReason::kNone:
      return "none";
    case McStopReason::kCiBelowAlpha:
      return "ci-below-alpha";
    case McStopReason::kCiAboveAlpha:
      return "ci-above-alpha";
  }
  return "?";
}

void NullDistribution::AdoptOwned(std::vector<double> max_llrs) {
  std::sort(max_llrs.begin(), max_llrs.end(), std::greater<double>());
  // The vector's heap buffer is address-stable behind the shared_ptr, so the
  // span survives copies/moves of this object without custom copy control.
  auto owned = std::make_shared<const std::vector<double>>(std::move(max_llrs));
  maxima_ = std::span<const double>(owned->data(), owned->size());
  backing_ = std::move(owned);
}

NullDistribution::NullDistribution(std::vector<double> max_llrs) {
  worlds_requested_ = max_llrs.size();
  AdoptOwned(std::move(max_llrs));
}

NullDistribution::NullDistribution(std::vector<double> max_llrs,
                                   uint64_t worlds_requested,
                                   McStopReason stop_reason)
    : worlds_requested_(worlds_requested), stop_reason_(stop_reason) {
  SFA_CHECK_MSG(worlds_requested_ >= max_llrs.size(),
                "worlds_requested " << worlds_requested_ << " < completed "
                                    << max_llrs.size());
  AdoptOwned(std::move(max_llrs));
}

NullDistribution::NullDistribution(std::span<const double> sorted_maxima,
                                   std::shared_ptr<const void> backing,
                                   uint64_t worlds_requested,
                                   McStopReason stop_reason)
    : maxima_(sorted_maxima),
      backing_(std::move(backing)),
      worlds_requested_(worlds_requested),
      stop_reason_(stop_reason),
      zero_copy_(true) {
  SFA_CHECK_MSG(worlds_requested_ >= maxima_.size(),
                "worlds_requested " << worlds_requested_ << " < completed "
                                    << maxima_.size());
  // Sorted-descending is the caller's contract (checked once at frame
  // validation); spot-check the ends so a grossly wrong span fails fast.
  SFA_DCHECK(maxima_.empty() || maxima_.front() >= maxima_.back());
}

double NullDistribution::PValue(double observed) const {
  SFA_CHECK(!maxima_.empty());
  // maxima_ is descending; upper_bound with greater<> yields the first
  // element strictly below `observed`, so everything before it is >= observed.
  const auto it = std::upper_bound(maxima_.begin(), maxima_.end(), observed,
                                   std::greater<double>());
  const auto geq = static_cast<size_t>(it - maxima_.begin());
  return static_cast<double>(1 + geq) / static_cast<double>(maxima_.size() + 1);
}

double NullDistribution::CriticalValue(double alpha) const {
  SFA_CHECK(!maxima_.empty());
  SFA_CHECK_MSG(alpha > 0.0 && alpha < 1.0, "alpha " << alpha << " outside (0,1)");
  const size_t w = maxima_.size() + 1;
  // Λ is significant iff (1 + #{null >= Λ}) / w <= alpha, i.e. at most
  // floor(alpha*w) - 1 null values may reach Λ. The threshold is the
  // (floor(alpha*w))-th largest null value: any Λ strictly above it wins.
  const auto budget = static_cast<size_t>(std::floor(alpha * static_cast<double>(w)));
  if (budget == 0) return std::numeric_limits<double>::infinity();
  return maxima_[budget - 1];
}

Result<double> NullDistribution::GumbelPValue(double observed) const {
  // Degenerate nulls (constant maxima — e.g. tiny families where every
  // world scans to 0) have no tail to fit; make the failure mode explicit
  // rather than leaving it to the moments fit's sample-variance check.
  if (maxima_.size() < 2 || maxima_.front() == maxima_.back()) {
    return Status::FailedPrecondition(
        "Gumbel tail fit needs >= 2 distinct simulated maxima");
  }
  SFA_ASSIGN_OR_RETURN(stats::GumbelDistribution gumbel,
                       stats::GumbelDistribution::FitMoments(maxima_));
  return gumbel.UpperTail(observed);
}

TailFit NullDistribution::AssessTailFit(double max_ks) const {
  TailFit fit;
  if (maxima_.size() < 2 || maxima_.front() == maxima_.back()) {
    return fit;  // degenerate: fitted = false, ks = 1
  }
  auto fitted = stats::GumbelDistribution::FitMoments(maxima_);
  if (!fitted.ok()) return fit;
  fit.fitted = true;
  fit.mu = fitted->mu();
  fit.beta = fitted->beta();
  // Two-sided KS distance of the fitted CDF against the empirical maxima,
  // evaluated at both sides of every jump. maxima_ is descending, so
  // index size-1-i walks the samples ascending; ties are covered because
  // every tied index contributes both its lower and upper ECDF step, which
  // bracket the true jump.
  const double n = static_cast<double>(maxima_.size());
  double d = 0.0;
  for (size_t i = 0; i < maxima_.size(); ++i) {
    const double x = maxima_[maxima_.size() - 1 - i];
    const double f = fitted->Cdf(x);
    d = std::max(d, (static_cast<double>(i) + 1.0) / n - f);
    d = std::max(d, f - static_cast<double>(i) / n);
  }
  fit.ks_distance = d;
  fit.ok = d <= max_ks;
  return fit;
}

PValueEstimate NullDistribution::ResolvePValue(double observed,
                                               SignificanceMethod method,
                                               double max_ks) const {
  SFA_CHECK(!maxima_.empty());
  PValueEstimate estimate;
  estimate.p_value = PValue(observed);
  estimate.method = SignificanceMethod::kEmpirical;

  const bool beyond_simulated = observed > maxima_.front();
  const bool want_tail =
      method == SignificanceMethod::kGumbelTail ||
      (method == SignificanceMethod::kAuto && beyond_simulated);
  if (!want_tail) return estimate;

  const TailFit fit = AssessTailFit(max_ks);
  estimate.tail_fit_ok = fit.ok;
  estimate.tail_ks = fit.ks_distance;
  if (!fit.ok) return estimate;  // clean degradation to empirical

  const stats::GumbelDistribution gumbel(fit.mu, fit.beta);
  double tail_p = gumbel.UpperTail(observed);
  if (method == SignificanceMethod::kAuto) {
    // kAuto only fires beyond the simulated range, where the empirical
    // p-value saturates at its resolution cap 1/(W+1); keep the tail value
    // under that cap so auto p-values are monotone in the evidence.
    tail_p = std::min(tail_p, estimate.p_value);
  }
  estimate.p_value = tail_p;
  estimate.method = SignificanceMethod::kGumbelTail;
  return estimate;
}

CriticalValueInfo NullDistribution::CriticalValueEx(double alpha,
                                                    bool tail_advisory,
                                                    double max_ks) const {
  SFA_CHECK(!maxima_.empty());
  SFA_CHECK_MSG(alpha > 0.0 && alpha < 1.0, "alpha " << alpha << " outside (0,1)");
  CriticalValueInfo info;
  const size_t w = maxima_.size() + 1;
  const auto budget = static_cast<size_t>(std::floor(alpha * static_cast<double>(w)));
  if (budget > 0) {
    info.value = maxima_[budget - 1];
    info.resolvable = true;
    return info;
  }
  if (tail_advisory) {
    const TailFit fit = AssessTailFit(max_ks);
    if (fit.ok) {
      info.value = stats::GumbelDistribution(fit.mu, fit.beta).Quantile(1.0 - alpha);
      info.advisory_tail = true;
      return info;
    }
  }
  info.value = std::numeric_limits<double>::infinity();
  return info;
}

Status ValidateMonteCarloOptions(const MonteCarloOptions& options) {
  if (options.num_worlds == 0) {
    return Status::InvalidArgument("Monte Carlo needs at least one world");
  }
  if (options.adaptive.enabled) {
    if (!(options.adaptive.alpha > 0.0 && options.adaptive.alpha < 1.0)) {
      return Status::InvalidArgument(
          "adaptive Monte Carlo alpha must be in (0, 1)");
    }
    if (!(options.adaptive.z > 0.0)) {
      return Status::InvalidArgument("adaptive Monte Carlo z must be > 0");
    }
    if (!std::isfinite(options.adaptive.observed)) {
      return Status::InvalidArgument(
          "adaptive Monte Carlo observed statistic must be finite");
    }
    if (options.adaptive.check_every == 0) {
      return Status::InvalidArgument(
          "adaptive Monte Carlo check_every must be >= 1");
    }
    if (options.adaptive.min_worlds == 0) {
      return Status::InvalidArgument(
          "adaptive Monte Carlo min_worlds must be >= 1");
    }
  }
  return Status::OK();
}

}  // namespace sfa::core
