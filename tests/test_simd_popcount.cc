// The SIMD tier selection (spatial/simd_popcount.h): stable tier names, and
// ForcePopcountKernel's return-previous and clamp-down semantics. The vector
// arms themselves are checked against their scalar arms where they run:
// test_lane_sampler, test_annulus_index, test_mc_engine and
// test_scan_statistic force each tier.
#include "spatial/simd_popcount.h"

#include <gtest/gtest.h>

namespace sfa::spatial {
namespace {

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

}  // namespace
}  // namespace sfa::spatial
