// Performance microbenchmarks for the audit substrate (google-benchmark).
// Backs the paper's O(M * N_R * Q) complexity discussion (§3): measures the
// per-world cost Q of each family's counting path and the end-to-end Monte
// Carlo throughput.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/random.h"
#include "core/bernoulli_statistic.h"
#include "core/cell_sampler_bank.h"
#include "core/grid_family.h"
#include "core/knn_circle_family.h"
#include "core/labels.h"
#include "core/scan.h"
#include "core/significance.h"
#include "core/square_family.h"
#include "spatial/bitvector.h"
#include "spatial/kdtree.h"
#include "stats/bernoulli_scan.h"
#include "stats/distributions.h"

namespace sfa {
namespace {

std::vector<geo::Point> Cloud(size_t n, uint64_t seed = 11) {
  Rng rng(seed);
  std::vector<geo::Point> pts(n);
  for (auto& p : pts) {
    if (rng.Bernoulli(0.7)) {
      p = {rng.Normal(3, 0.4), rng.Normal(7, 0.4)};
    } else {
      p = {rng.Uniform(0, 10), rng.Uniform(0, 10)};
    }
  }
  return pts;
}

void BM_LlrEvaluation(benchmark::State& state) {
  stats::ScanCounts counts{.n = 5000, .p = 3500, .total_n = 200000,
                           .total_p = 124000};
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::BernoulliLogLikelihoodRatio(counts));
    counts.p = (counts.p + 1) % counts.n;
  }
}
BENCHMARK(BM_LlrEvaluation);

void BM_KdTreeRangeCount(benchmark::State& state) {
  const auto pts = Cloud(static_cast<size_t>(state.range(0)));
  const spatial::KdTree tree(pts);
  Rng rng(5);
  for (auto _ : state) {
    const double x = rng.Uniform(0, 9);
    const double y = rng.Uniform(0, 9);
    benchmark::DoNotOptimize(tree.CountInRect(geo::Rect(x, y, x + 1, y + 1)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_KdTreeRangeCount)->Range(1000, 1 << 18);

void BM_NaiveRangeCount(benchmark::State& state) {
  const auto pts = Cloud(static_cast<size_t>(state.range(0)));
  Rng rng(5);
  for (auto _ : state) {
    const double x = rng.Uniform(0, 9);
    const double y = rng.Uniform(0, 9);
    const geo::Rect query(x, y, x + 1, y + 1);
    size_t count = 0;
    for (const auto& p : pts) count += query.Contains(p);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_NaiveRangeCount)->Range(1000, 1 << 18);

void BM_BitVectorAndPopcount(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  spatial::BitVector a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) a.Set(i);
    if (rng.Bernoulli(0.6)) b.Set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(spatial::BitVector::AndPopcount(a, b));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n / 8));
}
BENCHMARK(BM_BitVectorAndPopcount)->Range(1 << 10, 1 << 20);

void BM_GridFamilyWorld(benchmark::State& state) {
  // One Monte Carlo world against a 100x50 grid family: label generation +
  // counting + max-LLR.
  const auto n = static_cast<size_t>(state.range(0));
  const auto pts = Cloud(n);
  auto family = core::GridPartitionFamily::Create(pts, 100, 50);
  if (!family.ok()) {
    state.SkipWithError("family creation failed");
    return;
  }
  Rng rng(9);
  const stats::LogLikelihoodTable table(n);
  for (auto _ : state) {
    const core::Labels labels = core::Labels::SampleBernoulli(n, 0.62, &rng);
    benchmark::DoNotOptimize(
        core::ScanAllRegions(**family, labels, stats::ScanDirection::kTwoSided,
                             table)
            .max_llr);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_GridFamilyWorld)->Range(1 << 12, 1 << 18);

void BM_SquareFamilyWorld(benchmark::State& state) {
  // One Monte Carlo world against 2,000 memoized square regions (popcount
  // path), as in the paper's Fig. 5 setting.
  const auto n = static_cast<size_t>(state.range(0));
  const auto pts = Cloud(n);
  core::SquareScanOptions opts;
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    opts.centers.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  opts.side_lengths = core::SquareScanOptions::DefaultSideLengths(0.2, 4.0, 20);
  auto family = core::SquareScanFamily::Create(pts, opts);
  if (!family.ok()) {
    state.SkipWithError("family creation failed");
    return;
  }
  const stats::LogLikelihoodTable table(n);
  for (auto _ : state) {
    const core::Labels labels = core::Labels::SampleBernoulli(n, 0.62, &rng);
    benchmark::DoNotOptimize(
        core::ScanAllRegions(**family, labels, stats::ScanDirection::kTwoSided,
                             table)
            .max_llr);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SquareFamilyWorld)->Range(1 << 12, 1 << 17);

void RunMonteCarloBench(benchmark::State& state, const core::MonteCarloOptions& base) {
  // Full null calibration at the given world count against a 50x25 grid
  // family at N=20k — the ISSUE 1 headline configuration.
  const size_t n = 20000;
  const auto pts = Cloud(n);
  auto family = core::GridPartitionFamily::Create(pts, 50, 25);
  if (!family.ok()) {
    state.SkipWithError("family creation failed");
    return;
  }
  core::MonteCarloOptions mc = base;
  mc.num_worlds = static_cast<uint32_t>(state.range(0));
  const core::BernoulliScanStatistic statistic(stats::ScanDirection::kTwoSided,
                                               n, n * 62 / 100);
  for (auto _ : state) {
    auto dist = core::SimulateNull(statistic, **family, mc);
    if (!dist.ok()) {
      state.SkipWithError("simulation failed");
      return;
    }
    benchmark::DoNotOptimize(dist->sorted_max());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_MonteCarloEndToEnd(benchmark::State& state) {
  // Production defaults: batched engine, closed-form cell sampling.
  RunMonteCarloBench(state, core::MonteCarloOptions{});
}
BENCHMARK(BM_MonteCarloEndToEnd)->Arg(99)->Arg(199)->Unit(benchmark::kMillisecond);

void BM_MonteCarloEndToEndPointLevel(benchmark::State& state) {
  // Batched engine without the closed-form sampler: isolates what batching,
  // pooled arenas, and the log-table LLR buy on their own.
  core::MonteCarloOptions mc;
  mc.closed_form_cells = false;
  RunMonteCarloBench(state, mc);
}
BENCHMARK(BM_MonteCarloEndToEndPointLevel)
    ->Arg(99)
    ->Arg(199)
    ->Unit(benchmark::kMillisecond);

void BM_MonteCarloEndToEndReference(benchmark::State& state) {
  // Per-world reference strategy with point-level sampling: the pre-engine
  // baseline (fresh buffers every world, scalar counting).
  core::MonteCarloOptions mc;
  mc.engine = core::McEngine::kReference;
  mc.closed_form_cells = false;
  RunMonteCarloBench(state, mc);
}
BENCHMARK(BM_MonteCarloEndToEndReference)
    ->Arg(99)
    ->Arg(199)
    ->Unit(benchmark::kMillisecond);

void RunOverlappingFamilyBench(benchmark::State& state,
                               const core::RegionFamily& family, size_t n) {
  // Overlapping-family calibration: batched (range 1) vs reference (range 0)
  // engines.
  core::MonteCarloOptions mc;
  mc.num_worlds = 49;
  mc.engine = state.range(0) == 0 ? core::McEngine::kReference
                                  : core::McEngine::kBatched;
  const core::BernoulliScanStatistic statistic(stats::ScanDirection::kTwoSided,
                                               n, n * 62 / 100);
  for (auto _ : state) {
    auto dist = core::SimulateNull(statistic, family, mc);
    if (!dist.ok()) {
      state.SkipWithError("simulation failed");
      return;
    }
    benchmark::DoNotOptimize(dist->sorted_max());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          mc.num_worlds);
}

std::unique_ptr<core::SquareScanFamily> BenchSquareFamily(size_t n) {
  const auto pts = Cloud(n);
  core::SquareScanOptions opts;
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    opts.centers.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  opts.side_lengths = core::SquareScanOptions::DefaultSideLengths(0.2, 4.0, 20);
  auto family = core::SquareScanFamily::Create(pts, opts);
  return family.ok() ? std::move(*family) : nullptr;
}

std::unique_ptr<core::KnnCircleFamily> BenchKnnFamily(size_t n) {
  const auto pts = Cloud(n);
  core::KnnCircleOptions opts;
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    opts.centers.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  auto family = core::KnnCircleFamily::Create(pts, opts);
  return family.ok() ? std::move(*family) : nullptr;
}

void BM_MonteCarloSquareFamily(benchmark::State& state) {
  // 2,000 square regions at N = 2^15, counted by the annulus gather.
  const size_t n = 1 << 15;
  const auto family = BenchSquareFamily(n);
  if (!family) {
    state.SkipWithError("family creation failed");
    return;
  }
  RunOverlappingFamilyBench(state, *family, n);
}
BENCHMARK(BM_MonteCarloSquareFamily)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_MonteCarloKnnFamily(benchmark::State& state) {
  // 700 kNN circles (100 centers x 7-rung SaTScan ladder) at N = 2^15,
  // counted by the annulus gather.
  const size_t n = 1 << 15;
  const auto family = BenchKnnFamily(n);
  if (!family) {
    state.SkipWithError("family creation failed");
    return;
  }
  RunOverlappingFamilyBench(state, *family, n);
}
BENCHMARK(BM_MonteCarloKnnFamily)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Annulus gather counting kernel on the sfabench
// family shapes: N = 8,192 uniform points and 100 uniform centers on a
// 10 x 10 domain, with either 20 square sides 0.1-2.0 or the default 7-rung
// kNN ladder. Each iteration counts one batch of `state.range(0)` pre-drawn
// worlds (8 = one packed walk, 1 = the one-world path); squares_k3 counts
// 3-class worlds through CountClassesBatch. items_per_second is worlds/s.
enum class AnnulusShape { kSquares, kKnn, kSquaresK3 };

void BM_AnnulusCountBatch(benchmark::State& state, AnnulusShape shape) {
  const size_t n = 8192;
  const size_t batch = static_cast<size_t>(state.range(0));
  Rng rng(29);
  std::vector<geo::Point> pts(n);
  for (auto& p : pts) p = {rng.Uniform(0, 10), rng.Uniform(0, 10)};
  std::vector<geo::Point> centers(100);
  for (auto& c : centers) c = {rng.Uniform(0, 10), rng.Uniform(0, 10)};
  std::unique_ptr<core::RegionFamily> family;
  if (shape == AnnulusShape::kKnn) {
    core::KnnCircleOptions opts;
    opts.centers = centers;
    auto knn = core::KnnCircleFamily::Create(pts, opts);
    if (knn.ok()) family = std::move(*knn);
  } else {
    core::SquareScanOptions opts;
    opts.centers = centers;
    opts.side_lengths = core::SquareScanOptions::DefaultSideLengths();
    auto squares = core::SquareScanFamily::Create(pts, opts);
    if (squares.ok()) family = std::move(*squares);
  }
  if (!family) {
    state.SkipWithError("family creation failed");
    return;
  }
  std::vector<core::Labels> worlds;
  std::vector<std::vector<uint8_t>> class_worlds;
  for (size_t w = 0; w < batch; ++w) {
    worlds.push_back(core::Labels::SampleBernoulli(n, 0.54, &rng));
    class_worlds.emplace_back(n);
    for (uint8_t& c : class_worlds.back()) {
      c = static_cast<uint8_t>(rng.Categorical({0.5, 0.3, 0.2}));
    }
  }
  std::vector<const core::Labels*> world_ptrs;
  for (const core::Labels& w : worlds) world_ptrs.push_back(&w);
  std::vector<const uint8_t*> class_ptrs;
  for (const auto& w : class_worlds) class_ptrs.push_back(w.data());
  std::vector<uint64_t> out(2 * batch * family->num_regions());
  for (auto _ : state) {
    if (shape == AnnulusShape::kSquaresK3) {
      family->CountClassesBatch(class_ptrs.data(), batch, 3, out.data());
    } else {
      family->CountPositivesBatch(world_ptrs.data(), batch, out.data());
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * batch));
}
BENCHMARK_CAPTURE(BM_AnnulusCountBatch, squares, AnnulusShape::kSquares)
    ->Arg(1)
    ->Arg(8);
BENCHMARK_CAPTURE(BM_AnnulusCountBatch, knn, AnnulusShape::kKnn)->Arg(1)->Arg(8);
BENCHMARK_CAPTURE(BM_AnnulusCountBatch, squares_k3, AnnulusShape::kSquaresK3)
    ->Arg(1)
    ->Arg(8);

void BM_RngBinomial(benchmark::State& state) {
  // One-off Binomial draws across regimes: small n·p (CDF inversion) and
  // large n·p (BTRS rejection).
  const auto n = static_cast<uint64_t>(state.range(0));
  Rng rng(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Binomial(n, 0.62));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RngBinomial)->Arg(8)->Arg(64)->Arg(1024)->Arg(20000);

void BM_FixedBinomialSampler(benchmark::State& state) {
  // The engine's per-cell alias sampler: O(1) per draw for fixed (n, p).
  const auto n = static_cast<uint64_t>(state.range(0));
  const stats::FixedBinomialSampler sampler(n, 0.62);
  Rng rng(24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Draw(&rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FixedBinomialSampler)->Arg(8)->Arg(64)->Arg(1024)->Arg(20000);

void BM_LabelsSampling(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Labels::SampleBernoulli(n, 0.62, &rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_LabelsSampling)->Range(1 << 12, 1 << 18);

void BM_LabelsSamplingSparseView(benchmark::State& state) {
  // One Bernoulli null world plus its ascending positive ids, built lazily
  // from the label bytes, on a pooled instance.
  const size_t n = 8192;
  Rng rng(17);
  core::Labels labels;
  for (auto _ : state) {
    labels.ResampleBernoulli(n, 0.54, &rng);
    benchmark::DoNotOptimize(labels.positive_indices().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_LabelsSamplingSparseView);

void BM_CellSamplerBank(benchmark::State& state) {
  // One closed-form Bernoulli world over a 100x50 grid on 8,192 points:
  // a Binomial(n_c, 0.54) draw for every non-empty cell.
  const auto pts = Cloud(8192);
  auto family = core::GridPartitionFamily::Create(pts, 100, 50);
  if (!family.ok()) {
    state.SkipWithError(family.status().ToString().c_str());
    return;
  }
  const core::CellSamplerBank bank(*(*family)->cell_decomposition(), 0.54);
  std::vector<uint32_t> cell_positives(bank.num_cells());
  Rng rng(25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bank.Draw(&rng, cell_positives.data()));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bank.num_cells()));
}
BENCHMARK(BM_CellSamplerBank);

}  // namespace
}  // namespace sfa

BENCHMARK_MAIN();
