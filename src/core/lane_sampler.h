// Null-world lane sampler: draws up to 8 i.i.d. point-level null worlds at
// once, each from its own generator, straight into packed mask planes.
//
// Every null world w already draws from its own generator (Rng::Split(w) of
// the simulation seed), so 8 worlds can step side by side in 8 SIMD lanes and
// produce exactly the streams they produce one at a time. Each point gets one
// mask byte with bit w = world w's label, which is the plane format of
// RegionFamily::CountPlanes, so the simulations count the worlds without
// label arrays, class-code arrays or a packing pass:
//
//   Bernoulli   point i of world w is positive when (Next() >> 11) <
//               Rng::BernoulliThreshold(ρ), exactly as
//               Labels::ResampleBernoulli draws it: the class-0 plane of a
//               2-class draw on that one threshold;
//   K classes   the class is the number of thresholds m_c with
//               (Next() >> 11) >= m_c, exactly as
//               core::internal::CategoricalDraw draws it, and each point
//               gets one mask byte per counted class c < K−1.
//
// Three arms, picked by spatial::ActiveSamplerKernel() (CPUID, clamped by
// SFA_SIMD_POPCOUNT / ForcePopcountKernel):
//
//   scalar   one world at a time; the portable reference;
//   AVX2     two groups of 4 64-bit lanes, rotates as shift pairs;
//   AVX-512  8 lanes (AVX-512F only), one-instruction rotates, unsigned
//            compares straight into the mask byte.
//
// Every arm produces the same mask bits, per-world totals and final generator
// states (tests/test_lane_sampler.cc pins them against the scalar samplers).
#ifndef SFA_CORE_LANE_SAMPLER_H_
#define SFA_CORE_LANE_SAMPLER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace sfa::core {

/// Worlds one sampler call draws at most: one per bit of a mask byte.
inline constexpr size_t kLaneWorlds = 8;

/// Draws `num_worlds` (1..kLaneWorlds) Bernoulli(rho) label worlds over `n`
/// points, world w from rngs[w]. Bit w of masks[i] is world w's label of
/// point i; bits at and above num_worlds are 0. positives[w] gets world w's
/// positive count, and rngs[w] ends where Labels::ResampleBernoulli(n, rho,
/// &rngs[w]) leaves it: ρ <= 0 and ρ >= 1 draw nothing, and a NaN ρ draws
/// once per point and labels every point 0.
void SampleBernoulliLanes(double rho, size_t n, size_t num_worlds, Rng* rngs,
                          uint8_t* masks, uint64_t* positives);

/// Draws `num_worlds` (1..kLaneWorlds) K-class worlds over `n` points on the
/// non-decreasing thresholds m_0..m_{K−2} of internal::CategoricalDraw
/// (1 <= K−1 <= 255), world w from rngs[w]. Class plane c < K−1 is the n
/// bytes at masks + c·n: bit w of its byte i says point i of world w has
/// class c (bits at and above num_worlds are 0). Adds world w's count of
/// class k to totals[w·K + k] and advances rngs[w] by n steps, as
/// CategoricalDraw::Draw does.
void SampleCategoricalLanes(const std::vector<uint64_t>& thresholds, size_t n,
                            size_t num_worlds, Rng* rngs, uint8_t* masks,
                            uint64_t* totals);

}  // namespace sfa::core

#endif  // SFA_CORE_LANE_SAMPLER_H_
