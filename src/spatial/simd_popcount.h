// Runtime SIMD tier selection for the vector kernels.
//
// One request picks the tier of every vector kernel: the null-world lane
// sampler (core/lane_sampler.h), the wide annulus walk (core/annulus_index.h)
// and the LLR max (core/bernoulli_statistic.h) run it through
// ActiveSamplerKernel(). Three tiers share one contract, bit-identical
// results (counts and draws are integer-exact, so "identical" here is a hard
// guarantee, not a tolerance):
//
//   kScalar  — portable loops (the reference arms).
//   kAvx2    — 256-bit arms.
//   kAvx512  — 512-bit arms.
//
// Dispatch is resolved once per process from CPUID, overridable two ways:
//   * env  SFA_SIMD_POPCOUNT = scalar | avx2 | avx512 | auto   (read at first
//     use — this is the CI A/B escape hatch; unsupported tiers clamp down),
//   * code ForcePopcountKernel(k) — used by the tests to pin each arm.
//
// The request is reported two ways, each clamped to what the CPU supports:
// ActivePopcountKernel() clamps kAvx512 to AVX-512F plus VPOPCNTDQ (the
// "popcount tier" tools print), ActiveSamplerKernel() to AVX-512F alone (the
// walk has no AVX-512 arm and runs AVX2 there), so on a CPU with AVX-512F
// but no VPOPCNTDQ `auto` reports the AVX2 popcount tier and runs the
// AVX-512 sampler.
//
// Kernels are compiled with __attribute__((target(...))) function
// multiversioning, so no per-file -mavx* flags leak into the rest of the
// build; non-x86 builds (or toolchains failing the CMake probe) compile the
// scalar arms only.
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

/// The requested tier after env override and CPUID clamping, kAvx512
/// needing AVX-512F and VPOPCNTDQ.
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

}  // namespace sfa::spatial

#endif  // SFA_SPATIAL_SIMD_POPCOUNT_H_
