// Runtime-dispatched AND+popcount kernels over 64-bit word arrays.
//
// This is the instruction-level layer under BitVector::AndPopcount, the
// counting primitive of user-defined region families that memoize bit-vector
// memberships (examples/custom_regions.cpp). Three implementations share one
// contract and are bit-identical (popcounts are integer-exact, so "identical"
// here is a hard guarantee, not a tolerance):
//
//   kScalar  — portable std::popcount loop, 4 accumulators (the reference).
//   kAvx2    — 256-bit AND + vpshufb nibble-LUT popcount + psadbw reduce.
//   kAvx512  — 512-bit AND + native vpopcntq (AVX-512 VPOPCNTDQ).
//
// Dispatch is resolved once per process from CPUID, overridable two ways:
//   * env  SFA_SIMD_POPCOUNT = scalar | avx2 | avx512 | auto   (read at first
//     use — this is the CI A/B escape hatch; unsupported tiers clamp down),
//   * code ForcePopcountKernel(k) — used by the fuzz tests to pin each arm.
//
// The same request also sets the sampler tier: the null-world lane sampler
// (core/lane_sampler.h), the wide annulus walk (core/annulus_index.h) and
// the LLR max (core/bernoulli_statistic.h) run it. Each clamps the request
// to what its own arms need: the popcount's kAvx512 needs AVX-512F plus
// VPOPCNTDQ, the sampler tier's only AVX-512F (the walk has no AVX-512 arm
// and runs AVX2 there), so on a CPU with AVX-512F but no VPOPCNTDQ `auto`
// runs the AVX2 popcount and the AVX-512 sampler. All are bit-identical to
// their scalar arms on every tier.
//
// Kernels compiled with __attribute__((target(...))) function multiversioning,
// so no per-file -mavx* flags leak into the rest of the build; non-x86 builds
// (or toolchains failing the CMake probe) compile the scalar path only.
#ifndef SFA_SPATIAL_SIMD_POPCOUNT_H_
#define SFA_SPATIAL_SIMD_POPCOUNT_H_

#include <cstddef>
#include <cstdint>

namespace sfa::spatial {

enum class PopcountKernel : uint8_t {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// The kernel currently in effect (after env override and CPUID clamping).
PopcountKernel ActivePopcountKernel();

/// Forces a specific kernel; clamps to the best supported tier at or below
/// `kernel` and returns the previously active kernel (so tests can restore).
/// It sets the sampler tier too. Restoring with the returned kernel
/// restores both, except on a CPU with AVX-512F but no VPOPCNTDQ, where the
/// sampler then stays at AVX2 (a speed, never a result, difference).
PopcountKernel ForcePopcountKernel(PopcountKernel kernel);

/// The tier the lane sampler runs: the active request (env or the last
/// ForcePopcountKernel argument), clamped to the sampler's own support.
PopcountKernel ActiveSamplerKernel();

/// Human-readable kernel name ("scalar" / "avx2" / "avx512").
const char* PopcountKernelName(PopcountKernel kernel);

/// sum_i popcount(a[i] & b[i]) over `n` words, via the active kernel.
uint64_t AndPopcountWords(const uint64_t* a, const uint64_t* b, size_t n);

}  // namespace sfa::spatial

#endif  // SFA_SPATIAL_SIMD_POPCOUNT_H_
