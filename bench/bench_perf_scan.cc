// Performance microbenchmarks for the audit substrate (google-benchmark).
// Backs the paper's O(M * N_R * Q) complexity discussion (§3): measures the
// per-world cost Q of each family's counting path and the end-to-end Monte
// Carlo throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/random.h"
#include "core/bernoulli_statistic.h"
#include "core/cell_sampler_bank.h"
#include "core/grid_family.h"
#include "core/knn_circle_family.h"
#include "core/labels.h"
#include "core/lane_sampler.h"
#include "core/multinomial_statistic.h"
#include "core/partitioning_family.h"
#include "core/scan.h"
#include "core/significance.h"
#include "core/square_family.h"
#include "geo/partitioning.h"
#include "spatial/bitvector.h"
#include "spatial/kdtree.h"
#include "spatial/simd_popcount.h"
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

void RunOverlappingFamilyBench(benchmark::State& state,
                               const core::RegionFamily& family, size_t n) {
  // Overlapping-family calibration of 49 worlds.
  core::MonteCarloOptions mc;
  mc.num_worlds = 49;
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
BENCHMARK(BM_MonteCarloSquareFamily)->Unit(benchmark::kMillisecond);

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
BENCHMARK(BM_MonteCarloKnnFamily)->Unit(benchmark::kMillisecond);

// The null-world layers the Bernoulli LLR max and the K-class draw dominate,
// at N = 8,192 uniform points on a 10 x 10 domain.
std::vector<geo::Point> UniformCloud(size_t n, Rng* rng) {
  std::vector<geo::Point> pts(n);
  for (auto& p : pts) p = {rng->Uniform(0, 10), rng->Uniform(0, 10)};
  return pts;
}

void BM_MonteCarloGridDirection(benchmark::State& state) {
  // 99 closed-form worlds on a 100 x 50 grid (5,000 regions): per-cell
  // binomial draws are cheap, so the size-grouped LLR max is most of each
  // world. Arg: 0 two-sided, 1 high, 2 low.
  const size_t n = 8192;
  Rng rng(31);
  auto family =
      core::GridPartitionFamily::Create(UniformCloud(n, &rng), 100, 50);
  if (!family.ok()) {
    state.SkipWithError("family creation failed");
    return;
  }
  const stats::ScanDirection direction =
      state.range(0) == 1   ? stats::ScanDirection::kHigh
      : state.range(0) == 2 ? stats::ScanDirection::kLow
                            : stats::ScanDirection::kTwoSided;
  const core::BernoulliScanStatistic statistic(direction, n, n * 54 / 100);
  core::MonteCarloOptions mc;
  mc.num_worlds = 99;
  mc.parallel = false;  // one thread: time per world is the layer's cost
  for (auto _ : state) {
    auto dist = core::SimulateNull(statistic, **family, mc);
    if (!dist.ok()) {
      state.SkipWithError("simulation failed");
      return;
    }
    benchmark::DoNotOptimize(dist->sorted_max());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          mc.num_worlds);
}
BENCHMARK(BM_MonteCarloGridDirection)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_MonteCarloSquaresK3(benchmark::State& state) {
  // 49 point-level K = 3 worlds on the annulus squares shape (100 centers,
  // 20 sides): 8 worlds per lane-sampler call, then one CountPlanes walk per
  // tile of 16 worlds × 2 counted classes.
  const size_t n = 8192;
  Rng rng(29);
  const auto pts = UniformCloud(n, &rng);
  core::SquareScanOptions opts;
  opts.centers = UniformCloud(100, &rng);
  opts.side_lengths = core::SquareScanOptions::DefaultSideLengths();
  auto family = core::SquareScanFamily::Create(pts, opts);
  const core::MultinomialScanStatistic statistic(
      {n * 50 / 100, n * 30 / 100, n - n * 50 / 100 - n * 30 / 100});
  if (!family.ok()) {
    state.SkipWithError("family creation failed");
    return;
  }
  core::MonteCarloOptions mc;
  mc.num_worlds = 49;
  mc.parallel = false;
  for (auto _ : state) {
    auto dist = core::SimulateNull(statistic, **family, mc);
    if (!dist.ok()) {
      state.SkipWithError("simulation failed");
      return;
    }
    benchmark::DoNotOptimize(dist->sorted_max());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          mc.num_worlds);
}
BENCHMARK(BM_MonteCarloSquaresK3)->Unit(benchmark::kMillisecond);

// The size-grouped LLR max alone, on one SIMD tier: LlrMaxPlan::Max
// (two-sided) over 8 pre-counted Bernoulli(0.54) worlds of N = 8,192 uniform
// points, on the 100 x 50 grid (5,000 regions) or the squares shape of
// BM_MonteCarloSquaresK3 (100 centers x 20 sides). items_per_second is
// worlds/s. A tier the CPU lacks is skipped.
enum class PlanShape { kGrid, kSquares };

void BM_LlrMaxPlan(benchmark::State& state, spatial::PopcountKernel tier,
                   PlanShape shape) {
  const size_t n = 8192;
  Rng rng(31);
  const auto pts = UniformCloud(n, &rng);
  std::unique_ptr<core::RegionFamily> family;
  if (shape == PlanShape::kGrid) {
    auto grid = core::GridPartitionFamily::Create(pts, 100, 50);
    if (grid.ok()) family = std::move(*grid);
  } else {
    core::SquareScanOptions opts;
    opts.centers = UniformCloud(100, &rng);
    opts.side_lengths = core::SquareScanOptions::DefaultSideLengths();
    auto squares = core::SquareScanFamily::Create(pts, opts);
    if (squares.ok()) family = std::move(*squares);
  }
  if (!family) {
    state.SkipWithError("family creation failed");
    return;
  }
  std::vector<uint64_t> sizes(family->num_regions());
  for (size_t r = 0; r < sizes.size(); ++r) sizes[r] = family->PointCount(r);
  const core::internal::LlrMaxPlan plan(sizes, n);
  const stats::LogLikelihoodTable table(n);
  std::vector<uint32_t> counts[core::kLaneWorlds];
  uint64_t total_p[core::kLaneWorlds];
  for (size_t j = 0; j < core::kLaneWorlds; ++j) {
    const core::Labels labels = core::Labels::SampleBernoulli(n, 0.54, &rng);
    std::vector<uint64_t> wide;
    family->CountPositives(labels, &wide);
    counts[j].assign(wide.begin(), wide.end());
    total_p[j] = labels.positive_count();
  }
  const spatial::PopcountKernel previous = spatial::ForcePopcountKernel(tier);
  if (spatial::ActiveSamplerKernel() != tier) {
    spatial::ForcePopcountKernel(previous);
    state.SkipWithError("sampler tier not supported on this CPU");
    return;
  }
  size_t j = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.Max(counts[j].data(), total_p[j],
                                      stats::ScanDirection::kTwoSided,
                                      table));
    j = (j + 1) % core::kLaneWorlds;
  }
  spatial::ForcePopcountKernel(previous);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_LlrMaxPlan, scalar/grid, spatial::PopcountKernel::kScalar,
                  PlanShape::kGrid);
BENCHMARK_CAPTURE(BM_LlrMaxPlan, scalar/squares,
                  spatial::PopcountKernel::kScalar, PlanShape::kSquares);
BENCHMARK_CAPTURE(BM_LlrMaxPlan, avx2/grid, spatial::PopcountKernel::kAvx2,
                  PlanShape::kGrid);
BENCHMARK_CAPTURE(BM_LlrMaxPlan, avx2/squares, spatial::PopcountKernel::kAvx2,
                  PlanShape::kSquares);
BENCHMARK_CAPTURE(BM_LlrMaxPlan, avx512/grid, spatial::PopcountKernel::kAvx512,
                  PlanShape::kGrid);
BENCHMARK_CAPTURE(BM_LlrMaxPlan, avx512/squares,
                  spatial::PopcountKernel::kAvx512, PlanShape::kSquares);

// The annulus walk alone, on one sampler tier, on the sfabench family
// shapes: N = 8,192 uniform points and 100 uniform centers on a 10 x 10
// domain, with either 20 square sides 0.1-2.0 or the default 7-rung kNN
// ladder. Each iteration is one CountPlanes call on lane-sampled mask words
// at the family's tile width (core::WorldTile): Bernoulli(0.54) worlds on
// squares and kNN, and on squares_k3 the K = 3 tile's (world, class) planes,
// 2 per world, with class mix {0.5, 0.3, 0.2}. items_per_second is
// worlds/s. A tier the CPU lacks is skipped. The walk has no AVX-512 arm:
// the AVX-512 tier runs the AVX2 walk.
enum class AnnulusShape { kSquares, kKnn, kSquaresK3 };

void BM_AnnulusCountPlanes(benchmark::State& state,
                           spatial::PopcountKernel tier, AnnulusShape shape) {
  const size_t n = 8192;
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
  const spatial::PopcountKernel previous = spatial::ForcePopcountKernel(tier);
  if (spatial::ActiveSamplerKernel() != tier) {
    spatial::ForcePopcountKernel(previous);
    state.SkipWithError("sampler tier not supported on this CPU");
    return;
  }
  const uint32_t counted = shape == AnnulusShape::kSquaresK3 ? 2 : 1;
  const size_t regions = family->num_regions();
  const size_t worlds = core::WorldTile(n, regions, counted);
  const size_t planes = worlds * counted;
  const core::internal::CategoricalDraw categorical({0.5, 0.3, 0.2});
  std::vector<uint64_t> masks(n);
  std::vector<uint64_t> totals(3 * worlds);
  Rng root(31);
  for (size_t g = 0; g * core::kLaneWorlds < worlds; ++g) {
    std::vector<Rng> rngs;
    for (size_t j = 0; j < core::kLaneWorlds; ++j) {
      rngs.push_back(root.Split(g * core::kLaneWorlds + j));
    }
    if (counted == 1) {
      core::SampleBernoulliLanes(0.54, n, core::kLaneWorlds, rngs.data(),
                                 masks.data(), g, totals.data());
    } else {
      core::SampleCategoricalLanes(categorical.thresholds(), n,
                                   core::kLaneWorlds, rngs.data(),
                                   masks.data(), g * counted, totals.data());
    }
  }
  std::vector<uint32_t> out(planes * regions);
  for (auto _ : state) {
    family->CountPlanes(masks.data(), planes, out.data(), regions);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  spatial::ForcePopcountKernel(previous);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * worlds));
}
BENCHMARK_CAPTURE(BM_AnnulusCountPlanes, scalar/squares,
                  spatial::PopcountKernel::kScalar, AnnulusShape::kSquares);
BENCHMARK_CAPTURE(BM_AnnulusCountPlanes, scalar/knn,
                  spatial::PopcountKernel::kScalar, AnnulusShape::kKnn);
BENCHMARK_CAPTURE(BM_AnnulusCountPlanes, scalar/squares_k3,
                  spatial::PopcountKernel::kScalar, AnnulusShape::kSquaresK3);
BENCHMARK_CAPTURE(BM_AnnulusCountPlanes, avx2/squares,
                  spatial::PopcountKernel::kAvx2, AnnulusShape::kSquares);
BENCHMARK_CAPTURE(BM_AnnulusCountPlanes, avx2/knn,
                  spatial::PopcountKernel::kAvx2, AnnulusShape::kKnn);
BENCHMARK_CAPTURE(BM_AnnulusCountPlanes, avx2/squares_k3,
                  spatial::PopcountKernel::kAvx2, AnnulusShape::kSquaresK3);

// Cell-scatter counting of the grid and partitioning families: 8 Bernoulli
// label worlds (the grid's tile, and the permutation null's path) on
// N = 8,192 points of the sfabench cloud shape, packed into mask words
// outside the timed loop and counted by one CountPlanes scatter; the grid
// is 100 x 50 cells, the partitioning family 20 random partitionings of
// 4-12 splits per axis. items_per_second is worlds/s.
enum class CellShape { kGrid, kPartitionings };

void BM_CellCountBatch(benchmark::State& state, CellShape shape) {
  const size_t n = 8192;
  const size_t batch = 8;
  Rng rng(37);
  std::vector<geo::Point> pts(n);
  for (auto& p : pts) p = {rng.Uniform(0, 10), rng.Uniform(0, 10)};
  std::unique_ptr<core::RegionFamily> family;
  if (shape == CellShape::kGrid) {
    auto grid = core::GridPartitionFamily::Create(pts, 100, 50);
    if (grid.ok()) family = std::move(*grid);
  } else {
    auto parts = geo::MakeRandomResolutionPartitionings(
        geo::Rect::BoundingBox(pts).Expanded(1e-6), 20, 4, 12, &rng);
    if (parts.ok()) {
      auto collection =
          core::PartitioningCollectionFamily::Create(pts, std::move(*parts));
      if (collection.ok()) family = std::move(*collection);
    }
  }
  if (!family) {
    state.SkipWithError("family creation failed");
    return;
  }
  std::vector<uint64_t> masks(n, 0);
  for (size_t w = 0; w < batch; ++w) {
    const core::Labels labels = core::Labels::SampleBernoulli(n, 0.54, &rng);
    for (size_t i = 0; i < n; ++i) {
      masks[i] |= static_cast<uint64_t>(labels.bytes()[i]) << w;
    }
  }
  std::vector<uint32_t> out(batch * family->num_regions());
  for (auto _ : state) {
    family->CountPlanes(masks.data(), batch, out.data(),
                        family->num_regions());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * batch));
}
BENCHMARK_CAPTURE(BM_CellCountBatch, grid, CellShape::kGrid);
BENCHMARK_CAPTURE(BM_CellCountBatch, partitionings, CellShape::kPartitionings);

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

// The null-world lane sampler on one SIMD tier: 8 worlds of N = 8,192
// points per call, Bernoulli(0.54) labels or K = 3 classes with mix
// {0.5, 0.3, 0.2}, written into bytes of the mask words. items_per_second is
// worlds/s.
// A tier the CPU lacks is skipped (forcing it would clamp down).
enum class LaneDraw { kBernoulli, kK3 };

void BM_LaneSampler(benchmark::State& state, LaneDraw draw,
                    spatial::PopcountKernel tier) {
  const spatial::PopcountKernel previous = spatial::ForcePopcountKernel(tier);
  if (spatial::ActiveSamplerKernel() != tier) {
    spatial::ForcePopcountKernel(previous);
    state.SkipWithError("sampler tier not supported on this CPU");
    return;
  }
  const size_t n = 8192;
  const core::internal::CategoricalDraw categorical({0.5, 0.3, 0.2});
  std::vector<uint64_t> masks(n);
  std::vector<uint64_t> totals(3 * core::kLaneWorlds);
  Rng root(31);
  std::vector<Rng> rngs;
  for (size_t w = 0; w < core::kLaneWorlds; ++w) rngs.push_back(root.Split(w));
  for (auto _ : state) {
    if (draw == LaneDraw::kBernoulli) {
      core::SampleBernoulliLanes(0.54, n, core::kLaneWorlds, rngs.data(),
                                 masks.data(), 0, totals.data());
    } else {
      core::SampleCategoricalLanes(categorical.thresholds(), n,
                                   core::kLaneWorlds, rngs.data(),
                                   masks.data(), 0, totals.data());
    }
    benchmark::DoNotOptimize(masks.data());
    benchmark::ClobberMemory();
  }
  spatial::ForcePopcountKernel(previous);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(core::kLaneWorlds));
}
BENCHMARK_CAPTURE(BM_LaneSampler, bernoulli/scalar, LaneDraw::kBernoulli,
                  spatial::PopcountKernel::kScalar);
BENCHMARK_CAPTURE(BM_LaneSampler, bernoulli/avx2, LaneDraw::kBernoulli,
                  spatial::PopcountKernel::kAvx2);
BENCHMARK_CAPTURE(BM_LaneSampler, bernoulli/avx512, LaneDraw::kBernoulli,
                  spatial::PopcountKernel::kAvx512);
BENCHMARK_CAPTURE(BM_LaneSampler, k3/scalar, LaneDraw::kK3,
                  spatial::PopcountKernel::kScalar);
BENCHMARK_CAPTURE(BM_LaneSampler, k3/avx2, LaneDraw::kK3,
                  spatial::PopcountKernel::kAvx2);
BENCHMARK_CAPTURE(BM_LaneSampler, k3/avx512, LaneDraw::kK3,
                  spatial::PopcountKernel::kAvx512);

// Permutation null worlds as the engine draws them, on one sampler tier:
// SamplePermutationLanes shuffles 8 worlds of N = 8,192 points (partial
// Fisher–Yates, ρ ≈ 0.54) into a byte of the mask words, then one
// CountPlanes pass over the 100x50 grid counts them (the grid's tile is 8
// worlds). items_per_second is worlds/s. A tier the CPU lacks is skipped.
void BM_PermutationPlanes(benchmark::State& state,
                          spatial::PopcountKernel tier) {
  const size_t n = 8192;
  const uint64_t positives = 4424;  // ρ ≈ 0.54
  const auto pts = Cloud(n);
  auto family = core::GridPartitionFamily::Create(pts, 100, 50);
  if (!family.ok()) {
    state.SkipWithError(family.status().ToString().c_str());
    return;
  }
  const spatial::PopcountKernel previous = spatial::ForcePopcountKernel(tier);
  if (spatial::ActiveSamplerKernel() != tier) {
    spatial::ForcePopcountKernel(previous);
    state.SkipWithError("sampler tier not supported on this CPU");
    return;
  }
  const size_t regions = (*family)->num_regions();
  std::vector<uint64_t> masks(n);
  std::vector<uint32_t> ids(core::kLaneWorlds * n);
  std::vector<uint32_t> counts(core::kLaneWorlds * regions);
  Rng root(29);
  uint64_t world = 0;
  for (auto _ : state) {
    Rng rngs[core::kLaneWorlds];
    for (Rng& rng : rngs) rng = root.Split(world++);
    core::SamplePermutationLanes(n, positives, core::kLaneWorlds, rngs,
                                 ids.data(), masks.data(), 0);
    (*family)->CountPlanes(masks.data(), core::kLaneWorlds, counts.data(),
                           regions);
    benchmark::DoNotOptimize(counts.data());
    benchmark::ClobberMemory();
  }
  spatial::ForcePopcountKernel(previous);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(core::kLaneWorlds));
}
BENCHMARK_CAPTURE(BM_PermutationPlanes, scalar,
                  spatial::PopcountKernel::kScalar);
BENCHMARK_CAPTURE(BM_PermutationPlanes, avx2, spatial::PopcountKernel::kAvx2);
BENCHMARK_CAPTURE(BM_PermutationPlanes, avx512,
                  spatial::PopcountKernel::kAvx512);

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

// The same closed-form worlds 8 at a time on one sampler tier:
// CellSamplerBank::DrawLanes over the 100x50 grid of BM_CellSamplerBank.
// items_per_second is worlds/s. A tier the CPU lacks is skipped.
void BM_CellSamplerLanes(benchmark::State& state,
                         spatial::PopcountKernel tier) {
  const auto pts = Cloud(8192);
  auto family = core::GridPartitionFamily::Create(pts, 100, 50);
  if (!family.ok()) {
    state.SkipWithError(family.status().ToString().c_str());
    return;
  }
  const spatial::PopcountKernel previous = spatial::ForcePopcountKernel(tier);
  if (spatial::ActiveSamplerKernel() != tier) {
    spatial::ForcePopcountKernel(previous);
    state.SkipWithError("sampler tier not supported on this CPU");
    return;
  }
  const core::CellSamplerBank bank(*(*family)->cell_decomposition(), 0.54);
  std::vector<uint32_t> rows(core::kLaneWorlds * bank.num_cells());
  uint64_t totals[core::kLaneWorlds];
  Rng root(25);
  std::vector<Rng> rngs;
  for (size_t w = 0; w < core::kLaneWorlds; ++w) rngs.push_back(root.Split(w));
  for (auto _ : state) {
    bank.DrawLanes(core::kLaneWorlds, rngs.data(), rows.data(), totals);
    benchmark::DoNotOptimize(rows.data());
    benchmark::ClobberMemory();
  }
  spatial::ForcePopcountKernel(previous);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(core::kLaneWorlds));
}
BENCHMARK_CAPTURE(BM_CellSamplerLanes, scalar,
                  spatial::PopcountKernel::kScalar);
BENCHMARK_CAPTURE(BM_CellSamplerLanes, avx2, spatial::PopcountKernel::kAvx2);
BENCHMARK_CAPTURE(BM_CellSamplerLanes, avx512,
                  spatial::PopcountKernel::kAvx512);

}  // namespace
}  // namespace sfa

BENCHMARK_MAIN();
