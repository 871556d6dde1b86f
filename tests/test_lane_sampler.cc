// Stream-identity suite for the null-world lane sampler
// (core/lane_sampler.h): on every sampler tier, forced in turn, the mask
// bits, per-world totals and final generator states of 1..8 worlds per call
// must equal the scalar samplers world by world — Labels::ResampleBernoulli
// for Bernoulli worlds and the floating-point categorical oracle
// (testing::ReferenceCategoricalDraw) for K-class worlds — across point
// counts around the 8- and 64-point boundaries, ρ at its edge values and K
// from 2 to 256 with zero-mass classes. Closed-form cell worlds must equal
// CellSamplerBank::Draw world by world in cell rows, totals and generator
// states, and permutation worlds DrawPermutationPositives world by world in
// mask bits and generator states, including lanes whose draws run the
// rejection loop or carry across the halves of the 64×32-bit product.
#include "core/lane_sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "core/cell_sampler_bank.h"
#include "core/labels.h"
#include "core/multinomial_statistic.h"
#include "spatial/simd_popcount.h"
#include "testing_util.h"

namespace sfa::core {
namespace {

using spatial::PopcountKernel;

using testing::kTiers;
using testing::ScopedTier;

constexpr size_t kPointCounts[] = {0, 1, 7, 8, 9, 63, 64, 65, 8192};

/// World w's generator: substream w of one root, as the simulations split.
Rng WorldRng(uint64_t seed, size_t w) { return Rng(seed).Split(w); }

/// The mask bytes of the first `worlds` worlds out of 8-world mask bytes.
std::vector<uint8_t> LowLanes(std::vector<uint8_t> masks, size_t worlds) {
  for (uint8_t& m : masks) m &= static_cast<uint8_t>((1u << worlds) - 1);
  return masks;
}

/// Runs sample(words) on mask word arrays of n words each, prefilled with
/// 0xAA bytes, that holds mask bytes [byte, byte + planes), and returns those
/// bytes plane-major (plane c's n bytes at c·n, byte b of the words being
/// bits 8b … 8b + 7 of word array b / 8). Every other byte must keep 0xAA.
template <typename Sample>
std::vector<uint8_t> SampledPlaneBytes(size_t n, size_t byte, size_t planes,
                                       Sample sample) {
  const size_t arrays = (byte + planes + kMaskBytes - 1) / kMaskBytes;
  std::vector<uint64_t> words(std::max<size_t>(1, arrays * n),
                              0xAAAAAAAAAAAAAAAAULL);
  sample(words.data());
  std::vector<uint8_t> out(planes * n);
  bool others_untouched = true;
  for (size_t a = 0; a < arrays; ++a) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t k = 0; k < kMaskBytes; ++k) {
        const size_t b = a * kMaskBytes + k;
        const auto value = static_cast<uint8_t>(words[a * n + i] >> (8 * k));
        if (b >= byte && b < byte + planes) {
          out[(b - byte) * n + i] = value;
        } else {
          others_untouched &= value == 0xAA;
        }
      }
    }
  }
  EXPECT_TRUE(others_untouched) << "a byte outside [" << byte << ", "
                                << byte + planes << ") changed";
  return out;
}

/// The top sampler tier this CPU and build run: AVX-512 needs AVX-512F,
/// AVX2 needs AVX2. A build without the SIMD arms runs the popcount's AVX2
/// request as scalar, and then the sampler's too.
PopcountKernel SupportedSamplerTier() {
  bool simd_build = false;
  {
    const ScopedTier avx2(PopcountKernel::kAvx2);
    simd_build = spatial::ActivePopcountKernel() == PopcountKernel::kAvx2;
  }
  if (!simd_build) return PopcountKernel::kScalar;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return PopcountKernel::kAvx512;
#endif
  return PopcountKernel::kAvx2;
}

TEST(LaneSampler, ForcedTiersClampToTheSamplersOwnSupport) {
  const PopcountKernel supported = SupportedSamplerTier();
  for (const PopcountKernel tier : kTiers) {
    const ScopedTier scoped(tier);
    const PopcountKernel expected =
        static_cast<int>(tier) <= static_cast<int>(supported) ? tier
                                                              : supported;
    EXPECT_EQ(spatial::ActiveSamplerKernel(), expected)
        << "forced " << spatial::PopcountKernelName(tier);
    // The sampler needs no more than the popcount arm of the same tier.
    EXPECT_GE(static_cast<int>(spatial::ActiveSamplerKernel()),
              static_cast<int>(spatial::ActivePopcountKernel()));
  }
}

TEST(LaneSampler, BernoulliLanesMatchLabelsResampleOnEveryTier) {
  for (const PopcountKernel tier : kTiers) {
    const ScopedTier scoped(tier);
    SCOPED_TRACE(spatial::PopcountKernelName(spatial::ActiveSamplerKernel()));
    for (const size_t n : kPointCounts) {
      // The last ρ makes world 0's first draw x tie its threshold exactly
      // (⌈x·2⁻⁵³·2⁵³⌉ = x), so x < threshold must fail there.
      const double rhos[] = {
          0.0,
          1e-300,
          std::ldexp(1.0, -53),
          0.5,
          std::nextafter(1.0, 0.0),
          1.0,
          std::numeric_limits<double>::quiet_NaN(),
          std::ldexp(static_cast<double>(WorldRng(n + 17, 0).Next() >> 11),
                     -53)};
      for (const double rho : rhos) {
        // The scalar stream of each of the 8 worlds, drawn once.
        std::vector<Labels> expected(kLaneWorlds);
        std::vector<Rng> expected_rng;
        for (size_t w = 0; w < kLaneWorlds; ++w) {
          expected_rng.push_back(WorldRng(n + 17, w));
          expected[w].ResampleBernoulli(n, rho, &expected_rng[w]);
        }
        // Bit w of all_worlds[i] is world w's label of point i.
        std::vector<uint8_t> all_worlds(n, 0);
        for (size_t w = 0; w < kLaneWorlds; ++w) {
          for (size_t i = 0; i < n; ++i) {
            all_worlds[i] |= static_cast<uint8_t>(expected[w].bytes()[i] << w);
          }
        }
        for (size_t worlds = 1; worlds <= kLaneWorlds; ++worlds) {
          SCOPED_TRACE(::testing::Message() << "n=" << n << " rho=" << rho
                                            << " worlds=" << worlds);
          std::vector<Rng> rngs;
          for (size_t w = 0; w < worlds; ++w) {
            rngs.push_back(WorldRng(n + 17, w));
          }
          // Each world count writes a different byte of the mask words.
          const size_t byte = worlds % kMaskBytes;
          std::vector<uint64_t> positives(worlds, ~0ULL);
          const std::vector<uint8_t> masks =
              SampledPlaneBytes(n, byte, 1, [&](uint64_t* words) {
                SampleBernoulliLanes(rho, n, worlds, rngs.data(), words, byte,
                                     positives.data());
              });
          ASSERT_EQ(masks, LowLanes(all_worlds, worlds));
          for (size_t w = 0; w < worlds; ++w) {
            EXPECT_EQ(positives[w], expected[w].positive_count())
                << "world " << w;
            EXPECT_TRUE(rngs[w] == expected_rng[w]) << "world " << w;
          }
        }
      }
    }
  }
}

/// Class mixes of K classes: no zero mass, then a zero-mass first, middle
/// and last class (for K = 2 the middle one is skipped).
std::vector<std::vector<double>> ClassMixes(uint32_t k) {
  std::vector<double> dense(k);
  for (uint32_t c = 0; c < k; ++c) dense[c] = 1.0 + (c * 7) % 5;
  std::vector<std::vector<double>> mixes = {dense};
  std::vector<uint32_t> zeros = {0, k - 1};
  if (k >= 3) zeros.push_back(k / 2);
  for (const uint32_t zero : zeros) {
    std::vector<double> mix = dense;
    mix[zero] = 0.0;
    mixes.push_back(mix);
  }
  return mixes;
}

TEST(LaneSampler, CategoricalLanesMatchFloatingPointOracleOnEveryTier) {
  for (const uint32_t k : {2u, 3u, 4u, 9u, 256u}) {
    for (const std::vector<double>& mix : ClassMixes(k)) {
      const internal::CategoricalDraw draw(mix);
      const uint32_t counted = k - 1;
      for (const size_t n : kPointCounts) {
        // The oracle stream of each of the 8 worlds, drawn once.
        std::vector<std::vector<uint8_t>> classes(
            kLaneWorlds, std::vector<uint8_t>(n));
        std::vector<std::vector<uint64_t>> totals(
            kLaneWorlds, std::vector<uint64_t>(k, 0));
        std::vector<Rng> expected_rng;
        for (size_t w = 0; w < kLaneWorlds; ++w) {
          expected_rng.push_back(WorldRng(k * 1000 + n, w));
          testing::ReferenceCategoricalDraw(mix, &expected_rng[w],
                                            classes[w].data(), n,
                                            totals[w].data());
        }
        // Plane c's bit w of point i: world w drew class c there.
        std::vector<uint8_t> all_worlds(counted * n, 0);
        for (size_t w = 0; w < kLaneWorlds; ++w) {
          for (size_t i = 0; i < n; ++i) {
            if (classes[w][i] < counted) {
              all_worlds[classes[w][i] * n + i] |=
                  static_cast<uint8_t>(1u << w);
            }
          }
        }
        for (const PopcountKernel tier : kTiers) {
          const ScopedTier scoped(tier);
          for (size_t worlds = 1; worlds <= kLaneWorlds; ++worlds) {
            SCOPED_TRACE(::testing::Message()
                         << spatial::PopcountKernelName(
                                spatial::ActiveSamplerKernel())
                         << " K=" << k << " n=" << n << " worlds=" << worlds
                         << " zero-mass first/last=" << (mix[0] == 0.0) << "/"
                         << (mix[k - 1] == 0.0));
            std::vector<Rng> rngs;
            for (size_t w = 0; w < worlds; ++w) {
              rngs.push_back(WorldRng(k * 1000 + n, w));
            }
            // Class bytes start at a different byte per world count, so
            // K > 8 − byte spills into further word arrays.
            const size_t byte = worlds % kMaskBytes;
            std::vector<uint64_t> got_totals(worlds * k, 0);
            const std::vector<uint8_t> masks =
                SampledPlaneBytes(n, byte, counted, [&](uint64_t* words) {
                  SampleCategoricalLanes(draw.thresholds(), n, worlds,
                                         rngs.data(), words, byte,
                                         got_totals.data());
                });
            ASSERT_EQ(masks, LowLanes(all_worlds, worlds));
            for (size_t w = 0; w < worlds; ++w) {
              EXPECT_EQ(std::vector<uint64_t>(got_totals.begin() + w * k,
                                              got_totals.begin() + (w + 1) * k),
                        totals[w])
                  << "world " << w;
              EXPECT_TRUE(rngs[w] == expected_rng[w]) << "world " << w;
            }
          }
        }
      }
    }
  }
}

TEST(LaneSampler, ThresholdTiesCountAtOrAbove) {
  // Thresholds equal to drawn values: a draw x is at or above m exactly when
  // x >= m, so a tie counts as above. Each world's first draw is one of the
  // thresholds; the expected class of every draw comes from the integer
  // definition on copies of the generators.
  const size_t n = 65;
  std::vector<uint64_t> thresholds;
  for (size_t w = 0; w < 3; ++w) {
    thresholds.push_back(WorldRng(99, w).Next() >> 11);
  }
  std::sort(thresholds.begin(), thresholds.end());
  const auto k = static_cast<uint32_t>(thresholds.size() + 1);
  std::vector<uint8_t> expected(thresholds.size() * n, 0);
  std::vector<uint64_t> expected_totals(kLaneWorlds * k, 0);
  for (size_t w = 0; w < kLaneWorlds; ++w) {
    Rng rng = WorldRng(99, w);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t x = rng.Next() >> 11;
      uint32_t klass = 0;
      for (uint64_t m : thresholds) klass += x >= m ? 1u : 0u;
      if (klass + 1 < k) expected[klass * n + i] |= static_cast<uint8_t>(1u << w);
      ++expected_totals[w * k + klass];
    }
  }
  for (const PopcountKernel tier : kTiers) {
    const ScopedTier scoped(tier);
    SCOPED_TRACE(spatial::PopcountKernelName(spatial::ActiveSamplerKernel()));
    std::vector<Rng> rngs;
    for (size_t w = 0; w < kLaneWorlds; ++w) rngs.push_back(WorldRng(99, w));
    std::vector<uint64_t> totals(kLaneWorlds * k, 0);
    const std::vector<uint8_t> masks = SampledPlaneBytes(
        n, 0, thresholds.size(), [&](uint64_t* words) {
          SampleCategoricalLanes(thresholds, n, kLaneWorlds, rngs.data(),
                                 words, 0, totals.data());
        });
    EXPECT_EQ(masks, expected);
    EXPECT_EQ(totals, expected_totals);
  }
}

TEST(LaneSampler, CellLanesMatchCellSamplerBankOnEveryTier) {
  // Empty cells, single points, tables far wider than one SIMD register
  // (n_c = 3000 at ρ = 0.54 has hundreds of columns) and outside points;
  // then a decomposition whose only draw is the outside table.
  CellDecomposition cells;
  cells.cell_counts = {0, 1, 2, 0, 5, 100, 3000, 0, 1, 2, 64, 17, 0, 9};
  cells.num_outside = 37;
  CellDecomposition outside_only;
  outside_only.num_outside = 500;
  constexpr size_t kRounds = 3;
  for (const CellDecomposition* decomposition : {&cells, &outside_only}) {
    for (const double rho : {0.0, 1.0, 1e-3, 0.54}) {
      const CellSamplerBank bank(*decomposition, rho);
      const size_t num_cells = bank.num_cells();
      // kRounds scalar worlds per lane, drawn once: rows, totals, states.
      std::vector<std::vector<uint32_t>> rows;
      std::vector<uint64_t> want_totals;
      std::vector<Rng> want_rngs;
      for (size_t w = 0; w < kLaneWorlds; ++w) {
        Rng rng = WorldRng(41, w);
        for (size_t round = 0; round < kRounds; ++round) {
          std::vector<uint32_t> row(num_cells, 7);
          want_totals.push_back(bank.Draw(&rng, row.data()));
          rows.push_back(row);
        }
        want_rngs.push_back(rng);
      }
      for (const PopcountKernel tier : kTiers) {
        const ScopedTier scoped(tier);
        for (size_t worlds = 1; worlds <= kLaneWorlds; ++worlds) {
          SCOPED_TRACE(::testing::Message()
                       << spatial::PopcountKernelName(
                              spatial::ActiveSamplerKernel())
                       << " cells=" << num_cells << " rho=" << rho
                       << " worlds=" << worlds);
          std::vector<Rng> rngs;
          for (size_t w = 0; w < worlds; ++w) rngs.push_back(WorldRng(41, w));
          for (size_t round = 0; round < kRounds; ++round) {
            std::vector<uint32_t> got(kLaneWorlds * num_cells + 1, 0xDEAD);
            std::vector<uint64_t> totals(kLaneWorlds, ~0ULL);
            bank.DrawLanes(worlds, rngs.data(), got.data(), totals.data());
            for (size_t w = 0; w < worlds; ++w) {
              const std::vector<uint32_t> row(
                  got.begin() + w * num_cells,
                  got.begin() + (w + 1) * num_cells);
              ASSERT_EQ(row, rows[w * kRounds + round])
                  << "world " << w << " round " << round;
              EXPECT_EQ(totals[w], want_totals[w * kRounds + round])
                  << "world " << w << " round " << round;
            }
            // Nothing past the live rows is written.
            for (size_t i = worlds * num_cells; i < got.size(); ++i) {
              ASSERT_EQ(got[i], 0xDEADu) << "slot " << i;
            }
            for (size_t w = worlds; w < kLaneWorlds; ++w) {
              EXPECT_EQ(totals[w], ~0ULL) << "dead lane " << w;
            }
          }
          for (size_t w = 0; w < worlds; ++w) {
            EXPECT_TRUE(rngs[w] == want_rngs[w]) << "world " << w;
          }
        }
      }
    }
  }
}

/// Per-world DrawPermutationPositives: the mask bits of worlds
/// 0..rngs.size()−1 and, in *rngs, their final generators.
std::vector<uint8_t> ReferencePermutationMasks(size_t n, uint64_t positives,
                                               std::vector<Rng>* rngs) {
  std::vector<uint8_t> masks(n, 0);
  std::vector<uint32_t> order(n);
  for (size_t w = 0; w < rngs->size(); ++w) {
    const auto bit = static_cast<uint8_t>(1u << w);
    DrawPermutationPositives(n, positives, &(*rngs)[w], order.data(),
                             [&masks, bit](uint32_t id) { masks[id] |= bit; });
  }
  return masks;
}

/// SamplePermutationLanes on the active tier against the per-world draw,
/// starting every lane from `start`: masks and final generator states.
void ExpectPermutationLanesMatch(size_t n, uint64_t positives,
                                 const std::vector<Rng>& start) {
  std::vector<Rng> want_rngs = start;
  const std::vector<uint8_t> want =
      ReferencePermutationMasks(n, positives, &want_rngs);
  std::vector<Rng> rngs = start;
  std::vector<uint32_t> ids(kLaneWorlds * n, 0xDEADBEEF);
  // The call clears its byte of the words first; the others keep theirs.
  const size_t byte = (rngs.size() + n) % kMaskBytes;
  const std::vector<uint8_t> masks =
      SampledPlaneBytes(n, byte, 1, [&](uint64_t* words) {
        SamplePermutationLanes(n, positives, rngs.size(), rngs.data(),
                               ids.data(), words, byte);
      });
  ASSERT_EQ(masks, want);
  for (size_t w = 0; w < rngs.size(); ++w) {
    EXPECT_TRUE(rngs[w] == want_rngs[w]) << "world " << w;
  }
}

TEST(LaneSampler, PermutationLanesMatchDrawPermutationPositivesOnEveryTier) {
  for (const size_t n : {size_t{1}, size_t{7}, size_t{1000}, size_t{8192}}) {
    for (const uint64_t positives : {uint64_t{0}, uint64_t{1}, n / 2, n - 1,
                                     uint64_t{n}}) {
      for (size_t worlds = 1; worlds <= kLaneWorlds; ++worlds) {
        std::vector<Rng> start;
        for (size_t w = 0; w < worlds; ++w) start.push_back(WorldRng(43, w));
        for (const PopcountKernel tier : kTiers) {
          const ScopedTier scoped(tier);
          SCOPED_TRACE(::testing::Message()
                       << spatial::PopcountKernelName(
                              spatial::ActiveSamplerKernel())
                       << " n=" << n << " P=" << positives
                       << " worlds=" << worlds);
          ExpectPermutationLanesMatch(n, positives, start);
        }
      }
    }
  }
}

/// A generator whose Next() returns x: the state {0, a, b, rotr(x, 23)}.
Rng GeneratorDrawing(uint64_t x) {
  Rng rng;
  rng.set_state({0, 0x9E3779B97F4A7C15ULL, 0xD1B54A32D192ED03ULL,
                 (x >> 23) | (x << 41)});
  return rng;
}

TEST(LaneSampler, PermutationLanesHandleCraftedDraws) {
  constexpr size_t kN = 1000;  // not a power of two
  // Next() = 0 gives NextUint64(n) a low product of 0, below 2⁶⁴ mod n, so
  // the rejection loop draws again, in that lane only.
  const Rng rejection = GeneratorDrawing(0);
  {
    Rng once = rejection;
    once.NextUint64(kN);
    Rng twice = rejection;
    EXPECT_EQ(twice.Next(), 0u);
    twice.Next();
    ASSERT_TRUE(once == twice) << "the rejection loop did not run";
  }
  // x = 4294967·2³² + 2³² − 1 against n = 1000: the high 32 bits of x give
  // the product 4294967000, 296 below 2³², and the low 32 bits add 999 more
  // above 2³², so ⌊x·n / 2⁶⁴⌋ is 1 only with that carry (0 without it).
  const Rng carry = GeneratorDrawing((uint64_t{4294967} << 32) | 0xFFFFFFFFu);
  {
    Rng copy = carry;
    ASSERT_EQ(copy.NextUint64(kN), 1u);
  }
  for (const Rng& crafted : {rejection, carry}) {
    for (const size_t worlds : {size_t{1}, size_t{3}, kLaneWorlds}) {
      for (const size_t lane : {size_t{0}, worlds - 1}) {
        std::vector<Rng> start;
        for (size_t w = 0; w < worlds; ++w) start.push_back(WorldRng(47, w));
        start[lane] = crafted;
        for (const PopcountKernel tier : kTiers) {
          const ScopedTier scoped(tier);
          SCOPED_TRACE(::testing::Message()
                       << spatial::PopcountKernelName(
                              spatial::ActiveSamplerKernel())
                       << " worlds=" << worlds << " crafted lane=" << lane
                       << (&crafted == &carry ? " (carry)" : " (rejection)"));
          for (const uint64_t positives : {uint64_t{1}, uint64_t{kN / 2}}) {
            ExpectPermutationLanesMatch(kN, positives, start);
          }
        }
      }
    }
  }
}

TEST(LaneSampler, CategoricalTotalsAccumulate) {
  // Totals are added to, as CategoricalDraw::Draw adds to them.
  const internal::CategoricalDraw draw({0.2, 0.5, 0.3});
  Rng rng = WorldRng(5, 0);
  std::vector<uint64_t> masks(100);
  std::vector<uint64_t> totals = {1, 2, 3};
  SampleCategoricalLanes(draw.thresholds(), 100, 1, &rng, masks.data(), 0,
                         totals.data());
  EXPECT_EQ(totals[0] + totals[1] + totals[2], 106u);
}

TEST(WorldTile, MaskWordsAndRowsFitTheBlockBudget) {
  // At N = 8,192 the mask words are 64 KiB of the budget.
  EXPECT_EQ(WorldTile(8192, 700, 1), 64u);   // 100-center kNN
  EXPECT_EQ(WorldTile(8192, 192, 1), 64u);
  EXPECT_EQ(WorldTile(8192, 2000, 1), 32u);  // 2,000 squares
  EXPECT_EQ(WorldTile(8192, 2000, 2), 16u);  // K = 3 squares
  EXPECT_EQ(WorldTile(8192, 5000, 1), 8u);   // 5,000-cell grid
  // Mask words alone over budget: the narrowest tile.
  EXPECT_EQ(WorldTile(size_t{1} << 16, 10, 1), 8u);
  // A K-class tile past 64 planes needs a second word array, which 24,576
  // points' words do not leave room for.
  EXPECT_EQ(WorldTile(24576, 10, 2), 32u);
  EXPECT_EQ(WorldTile(16384, 10, 2), 64u);
  for (const size_t n : {0, 1, 8192, 40000}) {
    for (const size_t regions : {1, 192, 700, 2000, 5000, 100000}) {
      for (const uint32_t counted : {1u, 2u, 3u}) {
        const size_t tile = WorldTile(n, regions, counted);
        EXPECT_EQ(tile % kLaneWorlds, 0u);
        EXPECT_GE(tile, kLaneWorlds);
        EXPECT_LE(tile, kLaneWorlds * kMaskBytes);
        const auto block = [&](size_t worlds) {
          return (worlds * counted + 63) / 64 * n * sizeof(uint64_t) +
                 worlds * counted * regions * sizeof(uint32_t);
        };
        if (tile > kLaneWorlds) {
          EXPECT_LE(block(tile), kTileBlockBytes);
        }
        if (tile < kLaneWorlds * kMaskBytes) {
          EXPECT_GT(block(tile + kLaneWorlds), kTileBlockBytes)
              << n << " points, " << regions << " regions, " << counted;
        }
      }
    }
  }
}

TEST(BatchBlock, NestedHoldsNeverShareStorage) {
  std::byte* pooled = nullptr;
  {
    const BatchBlock outer(64);
    pooled = outer.data();
    std::fill(outer.data(), outer.data() + 64, std::byte{0x5A});
    {
      const BatchBlock inner(4096);
      EXPECT_NE(inner.data(), outer.data());
      std::fill(inner.data(), inner.data() + 4096, std::byte{0xC3});
    }
    EXPECT_TRUE(std::all_of(outer.data(), outer.data() + 64,
                            [](std::byte b) { return b == std::byte{0x5A}; }));
  }
  // Released, the pooled block is handed out again while it is big enough.
  const BatchBlock again(64);
  EXPECT_EQ(again.data(), pooled);
}

}  // namespace
}  // namespace sfa::core
