// Ablation — Monte Carlo budget (§3: W-1 simulated worlds).
//
// How many worlds are enough? This ablation tracks the critical value and
// the p-value of a fixed observed statistic as the world budget grows, and
// compares the empirical far tail against the Gumbel approximation
// (stats/gumbel.h) fitted to the same worlds.
#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "core/bernoulli_statistic.h"
#include "core/grid_family.h"
#include "core/scan.h"

namespace sfa {

int Main() {
  bench::PrintHeader("Ablation", "Monte Carlo world budget & Gumbel tail");
  Stopwatch timer;

  // Fixed fair location cloud + one observed (slightly unfair) world.
  Rng rng(515);
  std::vector<geo::Point> pts(20000);
  for (auto& p : pts) p = {rng.Uniform(0, 2), rng.Uniform(0, 1)};
  auto family = core::GridPartitionFamily::Create(pts, 10, 5);
  SFA_CHECK_OK(family.status());

  std::vector<uint8_t> bytes(pts.size());
  const geo::Rect zone(0.0, 0.0, 0.5, 1.0);
  for (size_t i = 0; i < pts.size(); ++i) {
    bytes[i] = rng.Bernoulli(zone.Contains(pts[i]) ? 0.56 : 0.5) ? 1 : 0;
  }
  const core::Labels observed = core::Labels::FromBytes(bytes);
  const double tau =
      core::ScanAllRegions(**family, observed, stats::ScanDirection::kTwoSided)
          .max_llr;
  std::printf("observed tau = %.3f\n\n", tau);
  std::printf("  %8s | %12s | %12s | %12s\n", "worlds", "critical", "MC p-value",
              "Gumbel p");
  const core::BernoulliScanStatistic statistic(
      stats::ScanDirection::kTwoSided, observed.size(),
      observed.positive_count());
  for (uint32_t worlds : {99u, 199u, 499u, 999u, 1999u}) {
    core::MonteCarloOptions mc;
    mc.num_worlds = worlds;
    mc.seed = 2024;
    auto dist = core::SimulateNull(statistic, **family, mc);
    SFA_CHECK_OK(dist.status());
    auto gumbel_p = dist->GumbelPValue(tau);
    std::printf("  %8u | %12.3f | %12.4f | %12.4f\n", worlds,
                dist->CriticalValue(bench::kAlpha), dist->PValue(tau),
                gumbel_p.ok() ? *gumbel_p : -1.0);
  }
  std::printf(
      "\n  Takeaway: the critical value stabilizes by ~500 worlds; the Gumbel\n"
      "  fit tracks the Monte Carlo p-value in-range and extends it smoothly\n"
      "  below the 1/W resolution floor.\n");
  std::printf("\n[done in %s]\n", timer.ElapsedString().c_str());
  return 0;
}

}  // namespace sfa

int main() { return sfa::Main(); }
