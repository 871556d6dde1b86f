#include "common/random.h"

#include <cmath>

#include "common/macros.h"

namespace sfa {

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.Next();
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  SFA_DCHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextUint64(static_cast<uint64_t>(hi - lo) + 1ULL));
}

double Rng::Normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = Uniform(-1.0, 1.0);
    v = Uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return u * factor;
}

double Rng::Normal(double mean, double stddev) { return mean + stddev * Normal(); }

double Rng::Exponential(double lambda) {
  SFA_DCHECK(lambda > 0.0);
  // Guard against log(0): NextDouble() is in [0,1), so use 1 - u in (0,1].
  return -std::log(1.0 - NextDouble()) / lambda;
}

uint64_t Rng::Poisson(double mean) {
  SFA_DCHECK(mean >= 0.0);
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    // Knuth multiplication method.
    const double limit = std::exp(-mean);
    double prod = NextDouble();
    uint64_t k = 0;
    while (prod > limit) {
      ++k;
      prod *= NextDouble();
    }
    return k;
  }
  // For large means, split off blocks of mean 16 (sum of independent Poissons
  // is Poisson); exact and avoids rejection-sampler complexity.
  uint64_t total = 0;
  double remaining = mean;
  while (remaining >= 30.0) {
    total += Poisson(16.0);
    remaining -= 16.0;
  }
  return total + Poisson(remaining);
}

namespace {

// Stirling tail fc(k) = log(k!) - [ (k+1/2) log(k+1) - (k+1) + log(sqrt(2pi)) ]
// used by BTRS's exact acceptance bound. Exact table for k <= 9, asymptotic
// series above (error < 1e-12 there).
double StirlingTail(uint64_t k) {
  static constexpr double kExact[] = {
      0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
      0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
      0.01189670994589177, 0.01041126526197209, 0.00925546218271273,
      0.00833056343336287};
  if (k < 10) return kExact[k];
  const double kp1 = static_cast<double>(k) + 1.0;
  const double kp1sq = kp1 * kp1;
  return (1.0 / 12 - (1.0 / 360 - 1.0 / 1260 / kp1sq) / kp1sq) / kp1;
}

}  // namespace

uint64_t Rng::Binomial(uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - Binomial(n, 1.0 - p);

  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  if (nd * p < 10.0) {
    // CDF inversion by sequential search from k = 0: expected O(n·p)
    // iterations of one multiply-divide each (no transcendentals). The start
    // pmf q^n >= e^{-n·p·(1+p)} stays well above double underflow here.
    const double s = p / q;
    double f = std::exp(nd * std::log1p(-p));  // Binomial pmf at k = 0
    double u = NextDouble();
    uint64_t k = 0;
    while (u > f && k < n) {
      u -= f;
      f *= s * (nd - static_cast<double>(k)) / (static_cast<double>(k) + 1.0);
      ++k;
    }
    return k;
  }

  // BTRS: Hörmann's transformed rejection with squeeze (1993), exact for
  // n·p >= 10 and p <= 1/2. ~1.15 uniform pairs per variate.
  const double spq = std::sqrt(nd * p * q);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double r = p / q;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double m = std::floor((nd + 1.0) * p);
  while (true) {
    const double u = NextDouble() - 0.5;
    double v = NextDouble();
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    if (us >= 0.07 && v <= v_r) return static_cast<uint64_t>(kd);
    // Exact acceptance test against the Binomial pmf (log domain).
    v = std::log(v * alpha / (a / (us * us) + b));
    const double bound =
        (m + 0.5) * std::log((m + 1.0) / (r * (nd - m + 1.0))) +
        (nd + 1.0) * std::log((nd - m + 1.0) / (nd - kd + 1.0)) +
        (kd + 0.5) * std::log(r * (nd - kd + 1.0) / (kd + 1.0)) +
        StirlingTail(static_cast<uint64_t>(m)) +
        StirlingTail(n - static_cast<uint64_t>(m)) -
        StirlingTail(static_cast<uint64_t>(kd)) -
        StirlingTail(n - static_cast<uint64_t>(kd));
    if (v <= bound) return static_cast<uint64_t>(kd);
  }
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  SFA_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    SFA_DCHECK(w >= 0.0);
    total += w;
  }
  SFA_CHECK_MSG(total > 0.0, "Categorical weights must not all be zero");
  double u = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: u consumed by rounding
}

Rng Rng::Split(uint64_t index) const {
  // Derive a child seed by hashing (state, index) through SplitMix64 twice.
  SplitMix64 sm(s_[0] ^ Rotl(s_[2], 31) ^ (0x9E3779B97F4A7C15ULL * (index + 1)));
  uint64_t child_seed = sm.Next() ^ Rotl(sm.Next(), 17);
  return Rng(child_seed);
}

}  // namespace sfa
