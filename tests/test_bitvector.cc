// Tests for BitVector, the packed view behind Labels::bits(), including the
// cross-word boundaries of its byte packing.
#include "spatial/bitvector.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace sfa::spatial {
namespace {

TEST(BitVector, StartsAllZero) {
  BitVector bv(130);
  EXPECT_EQ(bv.size(), 130u);
  EXPECT_EQ(bv.Popcount(), 0u);
  for (size_t i = 0; i < 130; ++i) ASSERT_FALSE(bv.Get(i));
}

TEST(BitVector, SetGetClear) {
  BitVector bv(100);
  bv.Set(0);
  bv.Set(63);
  bv.Set(64);
  bv.Set(99);
  EXPECT_TRUE(bv.Get(0));
  EXPECT_TRUE(bv.Get(63));
  EXPECT_TRUE(bv.Get(64));
  EXPECT_TRUE(bv.Get(99));
  EXPECT_FALSE(bv.Get(1));
  EXPECT_EQ(bv.Popcount(), 4u);
  bv.Clear(63);
  EXPECT_FALSE(bv.Get(63));
  EXPECT_EQ(bv.Popcount(), 3u);
}

TEST(BitVector, AssignDispatches) {
  BitVector bv(10);
  bv.Assign(3, true);
  EXPECT_TRUE(bv.Get(3));
  bv.Assign(3, false);
  EXPECT_FALSE(bv.Get(3));
}

TEST(BitVector, ResetZeroesWithoutResizing) {
  BitVector bv(70);
  bv.Set(5);
  bv.Set(69);
  bv.Reset();
  EXPECT_EQ(bv.size(), 70u);
  EXPECT_EQ(bv.Popcount(), 0u);
}

TEST(BitVector, FromBools) {
  const BitVector bv = BitVector::FromBools({1, 0, 1, 1, 0});
  EXPECT_EQ(bv.size(), 5u);
  EXPECT_EQ(bv.Popcount(), 3u);
  EXPECT_TRUE(bv.Get(0));
  EXPECT_FALSE(bv.Get(1));
  EXPECT_TRUE(bv.Get(3));
}

TEST(BitVector, EqualityIncludesSize) {
  BitVector a(10), b(10), c(11);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  b.Set(2);
  EXPECT_FALSE(a == b);
}

TEST(BitVector, EmptyVector) {
  BitVector bv(0);
  EXPECT_EQ(bv.size(), 0u);
  EXPECT_EQ(bv.Popcount(), 0u);
}

// Property sweep: Popcount agrees with a naive bit-by-bit count on random
// vectors of assorted sizes (word-aligned and not).
class BitVectorRandomSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(BitVectorRandomSweep, PopcountMatchesNaive) {
  const size_t n = GetParam();
  sfa::Rng rng(n * 13 + 1);
  BitVector a(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.4)) a.Set(i);
  }
  size_t expected_pop = 0;
  for (size_t i = 0; i < n; ++i) expected_pop += a.Get(i);
  EXPECT_EQ(a.Popcount(), expected_pop);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVectorRandomSweep,
                         ::testing::Values(1, 7, 63, 64, 65, 127, 128, 129, 1000,
                                           4096, 10001));

class AssignFromBytesSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(AssignFromBytesSweep, MatchesFromBools) {
  const size_t n = GetParam();
  sfa::Rng rng(n * 13 + 1);
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = rng.Bernoulli(0.4) ? 1 : 0;
  BitVector packed;
  packed.AssignFromBytes(bytes.data(), n);
  EXPECT_EQ(packed, BitVector::FromBools(bytes));
  EXPECT_EQ(packed.size(), n);

  // Refill in place (storage reuse path): old bits must not survive.
  for (auto& b : bytes) b = rng.Bernoulli(0.7) ? 1 : 0;
  packed.AssignFromBytes(bytes.data(), n);
  EXPECT_EQ(packed, BitVector::FromBools(bytes));
}

INSTANTIATE_TEST_SUITE_P(Sizes, AssignFromBytesSweep,
                         ::testing::Values(0, 1, 8, 63, 64, 65, 100, 128, 500,
                                           4096, 10001));

}  // namespace
}  // namespace sfa::spatial
