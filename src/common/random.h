// Deterministic pseudo-random number generation.
//
// The library's statistical results must be reproducible across runs and
// thread counts, so all stochastic components (dataset generators, Monte
// Carlo worlds, k-means init, forest bagging) draw from explicitly seeded
// generators. Xoshiro256++ is the workhorse (fast, 2^256 period, passes
// BigCrush); SplitMix64 seeds it and derives independent per-task substreams.
#ifndef SFA_COMMON_RANDOM_H_
#define SFA_COMMON_RANDOM_H_

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace sfa {

/// SplitMix64: tiny 64-bit generator used to expand seeds. Each call advances
/// the state by a fixed odd constant and scrambles it, so nearby seeds give
/// unrelated outputs.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// Xoshiro256++ by Blackman & Vigna. Satisfies the C++ UniformRandomBitGenerator
/// concept so it can drive <random> distributions where convenient, but the
/// member helpers below are preferred (they are portable across standard
/// library implementations, which <random> distributions are not).
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the four 64-bit state words via SplitMix64(seed).
  explicit Rng(uint64_t seed = 0xD1B54A32D192ED03ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Equal generators produce equal streams from here on.
  bool operator==(const Rng&) const = default;

  /// Next 64 uniformly random bits. Inline, like the other per-draw helpers
  /// below: the null-world samplers call them once per point, so an
  /// out-of-line call would cost more than the arithmetic.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  result_type operator()() { return Next(); }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Uses Lemire's multiply-shift rejection method
  /// (unbiased). n must be > 0.
  uint64_t NextUint64(uint64_t n) {
    SFA_DCHECK(n > 0);
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
    uint64_t l = static_cast<uint64_t>(m);
    if (l < n) {
      const uint64_t t = -n % n;
      while (l < t) {
        x = Next();
        m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]). Consumes
  /// one draw unless p <= 0 or p >= 1 (a NaN p draws and returns false).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// The integer form of the trial above for p in (0, 1) or NaN:
  /// NextDouble() < p exactly when (Next() >> 11) < BernoulliThreshold(p),
  /// because NextDouble() is (Next() >> 11)·2^-53 and scaling by 2^53 is
  /// exact. NaN maps to 0, so the trial always fails, as above.
  static uint64_t BernoulliThreshold(double p) {
    return std::isnan(p) ? 0
                         : static_cast<uint64_t>(std::ceil(std::ldexp(p, 53)));
  }

  /// Standard normal via Marsaglia polar method (cached spare deviate).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Exponential with the given rate lambda (> 0).
  double Exponential(double lambda);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// PTRS rejection for large).
  uint64_t Poisson(double mean);

  /// Binomial(n, p), exact for all (n, p): CDF inversion by sequential
  /// search when n·min(p,1-p) is small (O(n·p) cheap arithmetic steps, no
  /// logs), Hörmann's BTRS transformed rejection otherwise (O(1) expected
  /// draws). This is the closed-form null-world sampler of the Monte Carlo
  /// engine: partition families draw per-cell positives directly instead of
  /// labeling N points.
  uint64_t Binomial(uint64_t n, double p);

  /// Samples an index in [0, weights.size()) proportional to weights (all
  /// weights must be >= 0 and not all zero).
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of the range [first, last).
  template <typename It>
  void Shuffle(It first, It last) {
    auto n = static_cast<uint64_t>(last - first);
    for (uint64_t i = n; i > 1; --i) {
      uint64_t j = NextUint64(i);
      std::swap(first[i - 1], first[j]);
    }
  }

  /// The four Xoshiro256++ state words. The null-world lane sampler
  /// (core/lane_sampler.h) steps up to 8 generators side by side in SIMD
  /// lanes from these words and writes the advanced words back.
  using State = std::array<uint64_t, 4>;
  State state() const { return {s_[0], s_[1], s_[2], s_[3]}; }
  void set_state(const State& state) {
    for (size_t i = 0; i < 4; ++i) s_[i] = state[i];
  }

  /// Derives an independent substream generator for task `index`. Two
  /// generators Split(a) and Split(b) with a != b are statistically
  /// independent for all practical purposes.
  Rng Split(uint64_t index) const;

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace sfa

#endif  // SFA_COMMON_RANDOM_H_
