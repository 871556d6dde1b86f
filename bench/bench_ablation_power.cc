// Ablation — detection power of the audit.
//
// Power matrix over (effect size delta, region mass fraction): repeat
// plant-and-audit trials and report the rejection rate at alpha = 0.05.
// Power should increase along both axes and collapse to ~alpha at delta = 0
// (type-I control).
#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "core/bernoulli_statistic.h"
#include "core/rectangle_sweep_family.h"
#include "core/scan.h"

namespace sfa {

int Main() {
  bench::PrintHeader("Ablation", "Detection power vs effect size and region mass");
  Stopwatch timer;

  const double alpha = 0.05;
  const size_t n = bench::QuickMode() ? 4000 : 10000;
  const int trials = bench::QuickMode() ? 30 : 60;

  // Fixed locations; the null distribution is calibrated once per run and
  // shared across trials (locations do not change).
  Rng rng(1212);
  std::vector<geo::Point> pts(n);
  for (auto& p : pts) p = {rng.Uniform(0, 1), rng.Uniform(0, 1)};
  auto family = core::RectangleSweepFamily::Create(pts, 8, 8);
  SFA_CHECK_OK(family.status());
  core::MonteCarloOptions mc;
  mc.num_worlds = 199;
  mc.seed = 77;
  const core::BernoulliScanStatistic statistic(stats::ScanDirection::kTwoSided,
                                               n, n / 2);
  auto null_dist = core::SimulateNull(statistic, **family, mc);
  SFA_CHECK_OK(null_dist.status());

  const std::vector<double> deltas = {0.0, 0.03, 0.06, 0.1, 0.15};
  const std::vector<double> fractions = {0.05, 0.1, 0.25};

  std::printf("\n  power (rejection rate at alpha=%.2f, %d trials each)\n", alpha,
              trials);
  std::printf("  %8s |", "delta");
  for (double f : fractions) std::printf(" mass %4.0f%% |", 100 * f);
  std::printf("\n  ---------+");
  for (size_t i = 0; i < fractions.size(); ++i) std::printf("-----------+");
  std::printf("\n");

  const stats::LogLikelihoodTable table(n);
  for (double delta : deltas) {
    std::printf("  %8.2f |", delta);
    for (double fraction : fractions) {
      // Square plant of the requested area fraction in the unit square.
      const double side = std::sqrt(fraction);
      const geo::Rect plant(0.1, 0.1, 0.1 + side, 0.1 + side);
      int rejections = 0;
      for (int t = 0; t < trials; ++t) {
        std::vector<uint8_t> bytes(n);
        for (size_t i = 0; i < n; ++i) {
          const double rate = plant.Contains(pts[i]) ? 0.5 + delta : 0.5;
          bytes[i] = rng.Bernoulli(rate) ? 1 : 0;
        }
        const core::Labels labels = core::Labels::FromBytes(std::move(bytes));
        const double tau =
            core::ScanAllRegions(**family, labels,
                                 stats::ScanDirection::kTwoSided, table)
                .max_llr;
        if (null_dist->PValue(tau) <= alpha) ++rejections;
      }
      std::printf("   %6.2f   |", static_cast<double>(rejections) / trials);
    }
    std::printf("\n");
  }
  std::printf(
      "\n  Expected shape: ~%.2f in the delta=0 row (type-I control), rising\n"
      "  toward 1.0 with either larger effects or more affected mass.\n",
      alpha);
  std::printf("\n[done in %s]\n", timer.ElapsedString().c_str());
  return 0;
}

}  // namespace sfa

int main() { return sfa::Main(); }
