#include "stats/bernoulli_scan.h"

#include <cmath>

#include "common/macros.h"

namespace sfa::stats {

const char* ScanDirectionToString(ScanDirection d) {
  switch (d) {
    case ScanDirection::kTwoSided:
      return "two-sided";
    case ScanDirection::kHigh:
      return "high (green)";
    case ScanDirection::kLow:
      return "low (red)";
  }
  return "?";
}

double MaxBernoulliLogLikelihood(uint64_t k, uint64_t m) {
  SFA_DCHECK(k <= m);
  if (m == 0) return 0.0;
  const auto kd = static_cast<double>(k);
  const auto md = static_cast<double>(m);
  double ll = 0.0;
  if (k > 0) ll += kd * std::log(kd / md);
  if (k < m) ll += (md - kd) * std::log((md - kd) / md);
  return ll;
}

double NullLogLikelihood(uint64_t total_p, uint64_t total_n) {
  return MaxBernoulliLogLikelihood(total_p, total_n);
}

double BernoulliLogLikelihoodRatio(const ScanCounts& c, ScanDirection direction) {
  SFA_DCHECK(c.IsValid());
  const uint64_t n_out = c.total_n - c.n;
  const uint64_t p_out = c.total_p - c.p;
  // Degenerate regions (empty or everything) cannot separate inside from
  // outside; their alternative collapses to the null.
  if (c.n == 0 || n_out == 0) return 0.0;

  const double rate_in = static_cast<double>(c.p) / static_cast<double>(c.n);
  const double rate_out = static_cast<double>(p_out) / static_cast<double>(n_out);
  if (rate_in == rate_out) return 0.0;
  switch (direction) {
    case ScanDirection::kTwoSided:
      break;
    case ScanDirection::kHigh:
      if (rate_in <= rate_out) return 0.0;
      break;
    case ScanDirection::kLow:
      if (rate_in >= rate_out) return 0.0;
      break;
  }
  const double alt = MaxBernoulliLogLikelihood(c.p, c.n) +
                     MaxBernoulliLogLikelihood(p_out, n_out);
  const double null = MaxBernoulliLogLikelihood(c.total_p, c.total_n);
  const double llr = alt - null;
  // The alternative nests the null, so Λ is mathematically >= 0; clamp tiny
  // negative floating-point residue.
  return llr < 0.0 ? 0.0 : llr;
}

LogLikelihoodTable::LogLikelihoodTable(uint64_t max_count) {
  SFA_CHECK_MSG(max_count <= UINT32_MAX,
                "k log k table of " << max_count << " counts exceeds 2^32 - 1");
  klogk_.resize(max_count + 1);
  klogk_[0] = 0.0;
  for (uint64_t k = 1; k <= max_count; ++k) {
    const auto kd = static_cast<double>(k);
    klogk_[k] = kd * std::log(kd);
  }
}

double BernoulliLogLikelihoodRatio(const ScanCounts& c, ScanDirection direction,
                                   const LogLikelihoodTable& table) {
  SFA_DCHECK(c.IsValid());
  SFA_DCHECK(c.total_n <= table.max_count());
  const uint64_t n_out = c.total_n - c.n;
  const uint64_t p_out = c.total_p - c.p;
  if (c.n == 0 || n_out == 0) return 0.0;

  // rate_in vs rate_out as exact integer cross-products: p/n <=> p_out/n_out
  // iff p*n_out <=> p_out*n. The table caps N below 2^32, so each product is
  // at most n*(N-n) <= N^2/4 < 2^62 and 64 bits hold it exactly.
  const uint64_t lhs = c.p * n_out;
  const uint64_t rhs = p_out * c.n;
  if (lhs == rhs) return 0.0;
  switch (direction) {
    case ScanDirection::kTwoSided:
      break;
    case ScanDirection::kHigh:
      if (lhs < rhs) return 0.0;
      break;
    case ScanDirection::kLow:
      if (lhs > rhs) return 0.0;
      break;
  }
  const double llr = table.MaxBernoulliLogLikelihood(c.p, c.n) +
                     table.MaxBernoulliLogLikelihood(p_out, n_out) -
                     table.MaxBernoulliLogLikelihood(c.total_p, c.total_n);
  return llr < 0.0 ? 0.0 : llr;
}

double LogSpatialUnfairnessLikelihood(const ScanCounts& c) {
  return BernoulliLogLikelihoodRatio(c, ScanDirection::kTwoSided) +
         NullLogLikelihood(c.total_p, c.total_n);
}

}  // namespace sfa::stats
