#include "spatial/simd_popcount.h"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#if defined(SFA_X86_SIMD)
#include <immintrin.h>
#endif

namespace sfa::spatial {
namespace {

// ------------------------------------------------------------------ scalar ---

uint64_t ScalarAndPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<uint64_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

#if defined(SFA_X86_SIMD)

// -------------------------------------------------------------------- AVX2 ---
// AVX2 has no vector popcount; the classic vpshufb nibble-LUT computes a
// per-byte popcount, and _mm256_sad_epu8 against zero horizontally sums each
// 8-byte lane into a 64-bit counter — one add per 32 bytes, no overflow for
// any realistic word count.

__attribute__((target("avx2"))) inline __m256i Popcount256(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
                                       3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                                       2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i cnt =
      _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline uint64_t HorizontalSum256(__m256i v) {
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

__attribute__((target("avx2"))) uint64_t Avx2AndPopcount(const uint64_t* a,
                                                         const uint64_t* b,
                                                         size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i av =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i bv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, Popcount256(_mm256_and_si256(av, bv)));
  }
  uint64_t total = HorizontalSum256(acc);
  for (; i < n; ++i) {
    total += static_cast<uint64_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

// ------------------------------------------------------------------ AVX-512 ---
// VPOPCNTDQ gives a native 64-bit-lane popcount, so the kernel is a pure
// load/AND/popcount/add chain over 8-word chunks.

// GCC's avx512fintrin.h trips -Wuninitialized on its own internal
// _mm512_undefined temporaries when these intrinsics are expanded; the
// warning is in the system header, not this code.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"

__attribute__((target("avx512f,avx512vpopcntdq"))) uint64_t Avx512AndPopcount(
    const uint64_t* a, const uint64_t* b, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i av = _mm512_loadu_si512(a + i);
    const __m512i bv = _mm512_loadu_si512(b + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(av, bv)));
  }
  uint64_t total = static_cast<uint64_t>(_mm512_reduce_add_epi64(acc));
  for (; i < n; ++i) {
    total += static_cast<uint64_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

#pragma GCC diagnostic pop

#endif  // SFA_X86_SIMD

// ---------------------------------------------------------------- dispatch ---

struct KernelTable {
  PopcountKernel kind;
  uint64_t (*and_popcount)(const uint64_t*, const uint64_t*, size_t);
};

constexpr KernelTable kScalarTable = {PopcountKernel::kScalar,
                                      ScalarAndPopcount};
#if defined(SFA_X86_SIMD)
constexpr KernelTable kAvx2Table = {PopcountKernel::kAvx2, Avx2AndPopcount};
constexpr KernelTable kAvx512Table = {PopcountKernel::kAvx512,
                                      Avx512AndPopcount};
#endif

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

const KernelTable* TableFor(PopcountKernel kernel) {
  switch (ClampToSupported(kernel)) {
#if defined(SFA_X86_SIMD)
    case PopcountKernel::kAvx512:
      return &kAvx512Table;
    case PopcountKernel::kAvx2:
      return &kAvx2Table;
#endif
    default:
      return &kScalarTable;
  }
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

std::atomic<const KernelTable*> g_active{nullptr};
std::atomic<PopcountKernel> g_sampler{PopcountKernel::kScalar};

void Apply(PopcountKernel requested) {
  g_sampler.store(ClampToSupported(requested, /*needs_vpopcntdq=*/false),
                  std::memory_order_relaxed);
  g_active.store(TableFor(requested), std::memory_order_release);
}

const KernelTable* ActiveTable() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    // Benign first-use race: every thread resolves the same env+CPUID answer.
    Apply(KernelFromEnv());
    table = g_active.load(std::memory_order_acquire);
  }
  return table;
}

}  // namespace

PopcountKernel ActivePopcountKernel() { return ActiveTable()->kind; }

PopcountKernel ActiveSamplerKernel() {
  ActiveTable();
  return g_sampler.load(std::memory_order_relaxed);
}

PopcountKernel ForcePopcountKernel(PopcountKernel kernel) {
  const PopcountKernel previous = ActiveTable()->kind;
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

uint64_t AndPopcountWords(const uint64_t* a, const uint64_t* b, size_t n) {
  return ActiveTable()->and_popcount(a, b, n);
}

}  // namespace sfa::spatial
