// Bit-identity suite for the runtime-dispatched AND+popcount kernels
// (spatial/simd_popcount.h): every vector arm (avx2, avx512) must produce
// EXACTLY the scalar reference's counts — popcounts are integer-exact, so any
// difference is a kernel bug, not noise. Fuzzes BitVector::AndPopcount
// across awkward tail lengths (word boundaries ±1, sub-word, and a
// multi-megabit size) and the raw word kernel across chunk remainders, plus
// the force/env override semantics.
#include "spatial/simd_popcount.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "spatial/bitvector.h"

namespace sfa::spatial {
namespace {

using sfa::Rng;

/// Restores the previously active kernel on scope exit so tests never leak a
/// forced kernel into the rest of the binary.
class ScopedKernel {
 public:
  explicit ScopedKernel(PopcountKernel kernel)
      : previous_(ForcePopcountKernel(kernel)) {}
  ~ScopedKernel() { ForcePopcountKernel(previous_); }

 private:
  PopcountKernel previous_;
};

BitVector RandomBits(size_t n, double density, Rng* rng) {
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) bytes[i] = rng->Bernoulli(density) ? 1 : 0;
  BitVector bv;
  bv.AssignFromBytes(bytes.data(), n);
  return bv;
}

uint64_t NaiveAndPopcount(const BitVector& a, const BitVector& b) {
  uint64_t total = 0;
  for (size_t i = 0; i < a.num_words(); ++i) {
    total += static_cast<uint64_t>(std::popcount(a.words()[i] & b.words()[i]));
  }
  return total;
}

TEST(SimdPopcount, KernelNamesAreStable) {
  EXPECT_STREQ(PopcountKernelName(PopcountKernel::kScalar), "scalar");
  EXPECT_STREQ(PopcountKernelName(PopcountKernel::kAvx2), "avx2");
  EXPECT_STREQ(PopcountKernelName(PopcountKernel::kAvx512), "avx512");
}

TEST(SimdPopcount, ForceReturnsPreviousAndClampsToSupported) {
  const PopcountKernel original = ActivePopcountKernel();
  const PopcountKernel before = ForcePopcountKernel(PopcountKernel::kScalar);
  EXPECT_EQ(before, original);
  EXPECT_EQ(ActivePopcountKernel(), PopcountKernel::kScalar);
  // Requesting a tier the CPU lacks must clamp down, never leave scalar
  // dispatch pointing at an illegal-instruction kernel.
  ForcePopcountKernel(PopcountKernel::kAvx512);
  const PopcountKernel clamped = ActivePopcountKernel();
  EXPECT_LE(static_cast<int>(clamped),
            static_cast<int>(PopcountKernel::kAvx512));
  ForcePopcountKernel(original);
  EXPECT_EQ(ActivePopcountKernel(), original);
}

// The core bit-identity fuzz: for every vector arm the CPU supports,
// AndPopcount must equal the scalar arm exactly across tail lengths
// straddling the 64-bit word and 256/512-bit chunk boundaries.
TEST(SimdPopcount, FuzzBitIdentityAcrossTailLengths) {
  const size_t kLengths[] = {0, 1, 63, 64, 65, 127, 128, 1000003};
  Rng rng(20230707);
  for (const size_t n : kLengths) {
    const BitVector membership = RandomBits(n, 0.4, &rng);
    std::vector<BitVector> worlds;
    for (size_t b = 0; b < 9; ++b) {
      worlds.push_back(RandomBits(n, 0.1 + 0.1 * static_cast<double>(b), &rng));
    }
    std::vector<uint64_t> expected(worlds.size());
    {
      ScopedKernel scalar(PopcountKernel::kScalar);
      for (size_t b = 0; b < worlds.size(); ++b) {
        expected[b] = BitVector::AndPopcount(membership, worlds[b]);
        ASSERT_EQ(expected[b], NaiveAndPopcount(membership, worlds[b]))
            << "scalar kernel vs naive loop, n=" << n << " world=" << b;
      }
    }
    for (const PopcountKernel kernel :
         {PopcountKernel::kAvx2, PopcountKernel::kAvx512}) {
      ScopedKernel forced(kernel);
      if (ActivePopcountKernel() == PopcountKernel::kScalar) {
        continue;  // arm unavailable on this CPU/build; clamped to scalar
      }
      for (size_t b = 0; b < worlds.size(); ++b) {
        ASSERT_EQ(BitVector::AndPopcount(membership, worlds[b]), expected[b])
            << PopcountKernelName(kernel) << " n=" << n << " world=" << b;
      }
    }
  }
}

TEST(SimdPopcount, WordKernelsAgreeOnRawArrays) {
  Rng rng(99);
  for (const size_t words : {0u, 1u, 3u, 4u, 5u, 17u, 64u, 1021u}) {
    std::vector<uint64_t> a(words), b(words);
    for (size_t i = 0; i < words; ++i) {
      a[i] = rng.Next();
      b[i] = rng.Next();
    }
    uint64_t expected;
    {
      ScopedKernel scalar(PopcountKernel::kScalar);
      expected = AndPopcountWords(a.data(), b.data(), words);
    }
    for (const PopcountKernel kernel :
         {PopcountKernel::kAvx2, PopcountKernel::kAvx512}) {
      ScopedKernel forced(kernel);
      if (ActivePopcountKernel() == PopcountKernel::kScalar) continue;
      EXPECT_EQ(AndPopcountWords(a.data(), b.data(), words), expected)
          << PopcountKernelName(kernel) << " words=" << words;
    }
  }
}

}  // namespace
}  // namespace sfa::spatial
