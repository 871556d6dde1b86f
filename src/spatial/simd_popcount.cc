#include "spatial/simd_popcount.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace sfa::spatial {
namespace {

/// The best popcount tier (`needs_vpopcntdq`) or lane sampler tier (not)
/// the CPU and build can run.
PopcountKernel BestSupportedKernel(bool needs_vpopcntdq = true) {
#if defined(SFA_X86_SIMD)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") &&
      (!needs_vpopcntdq || __builtin_cpu_supports("avx512vpopcntdq"))) {
    return PopcountKernel::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return PopcountKernel::kAvx2;
#endif
  (void)needs_vpopcntdq;
  return PopcountKernel::kScalar;
}

// Unsupported requests clamp DOWN to the best tier the CPU (and build) can
// actually run, never up — forcing "avx512" on an AVX2-only host yields avx2.
PopcountKernel ClampToSupported(PopcountKernel requested,
                                bool needs_vpopcntdq = true) {
  const PopcountKernel best = BestSupportedKernel(needs_vpopcntdq);
  return static_cast<uint8_t>(requested) <= static_cast<uint8_t>(best)
             ? requested
             : best;
}

/// The requested tier: `auto` (or an unset, empty or unknown value, so a
/// typo never aborts a production run) requests the top tier, which each
/// kernel family then clamps to its own support.
PopcountKernel KernelFromEnv() {
  const char* env = std::getenv("SFA_SIMD_POPCOUNT");
  if (env != nullptr && std::strcmp(env, "scalar") == 0) {
    return PopcountKernel::kScalar;
  }
  if (env != nullptr && std::strcmp(env, "avx2") == 0) {
    return PopcountKernel::kAvx2;
  }
  return PopcountKernel::kAvx512;
}

/// No tier resolved yet: the first reader resolves the env request.
constexpr uint8_t kUnresolved = 0xFF;

std::atomic<uint8_t> g_popcount{kUnresolved};
std::atomic<PopcountKernel> g_sampler{PopcountKernel::kScalar};

void Apply(PopcountKernel requested) {
  g_sampler.store(ClampToSupported(requested, /*needs_vpopcntdq=*/false),
                  std::memory_order_relaxed);
  g_popcount.store(static_cast<uint8_t>(ClampToSupported(requested)),
                   std::memory_order_release);
}

}  // namespace

PopcountKernel ActivePopcountKernel() {
  uint8_t tier = g_popcount.load(std::memory_order_acquire);
  if (tier == kUnresolved) {
    // Benign first-use race: every thread resolves the same env+CPUID answer.
    Apply(KernelFromEnv());
    tier = g_popcount.load(std::memory_order_acquire);
  }
  return static_cast<PopcountKernel>(tier);
}

PopcountKernel ActiveSamplerKernel() {
  ActivePopcountKernel();
  return g_sampler.load(std::memory_order_relaxed);
}

PopcountKernel ForcePopcountKernel(PopcountKernel kernel) {
  const PopcountKernel previous = ActivePopcountKernel();
  Apply(kernel);
  return previous;
}

const char* PopcountKernelName(PopcountKernel kernel) {
  switch (kernel) {
    case PopcountKernel::kAvx512:
      return "avx512";
    case PopcountKernel::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

}  // namespace sfa::spatial
