// Throughput of the concurrent AuditPipeline vs the naive request loop.
//
// The workload is the acceptance scenario of the pipeline PR: a mixed
// 32-request batch — two cities, three family types (partition grid,
// overlapping square scan, equal-opportunity slice), both null models, two
// scan directions — where every (family, totals, null, direction)
// combination is audited at eight α levels. That α-sweep is the production
// shape the calibration cache exists for: 32 requests collapse onto 4
// Monte Carlo calibrations (87.5% hit rate, ≥ the 50% the acceptance bar
// asks for).
//
//   BM_LoopAuditor             one Auditor::Audit per request, no sharing —
//                              the pre-pipeline baseline;
//   BM_PipelineColdCache       the same batch through AuditPipeline::Run
//                              with the cache cleared every iteration
//                              (intra-batch sharing only);
//   BM_PipelineWarmCache       steady-state replay: calibrations stay cached
//                              across iterations (assembly cost only);
//   BM_PipelinePersistedWarm   restart simulation: every iteration builds a
//                              FRESH pipeline (empty memory cache) that
//                              warm-starts from an on-disk CalibrationStore
//                              written once up front — the cold-start
//                              calibration cost across a process restart,
//                              reduced to disk loads.
//
// Counters report requests/s and the manifest's calibration hit rate (plus
// store loads for the persisted tier); the JSON artifact (bench_json target)
// tracks all four across PRs. The acceptance criterion — pipeline ≥ 3× loop
// on this batch — is the cold-cache ratio.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "core/audit_pipeline.h"
#include "core/calibration_store.h"
#include "core/grid_family.h"
#include "core/measure.h"
#include "core/square_family.h"
#include "data/dataset.h"
#include "stats/kmeans.h"

namespace {

using namespace sfa;
using namespace sfa::core;

constexpr uint32_t kNumWorlds = 199;
constexpr size_t kCityPoints = 8000;

struct Workload {
  data::OutcomeDataset city_a;
  data::OutcomeDataset city_b;
  data::OutcomeDataset city_a_eo;
  std::vector<std::unique_ptr<RegionFamily>> families;
  std::vector<AuditRequest> requests;
};

data::OutcomeDataset MakeCity(uint64_t seed, double planted_rate) {
  Rng rng(seed);
  data::OutcomeDataset ds("bench-city");
  const geo::Rect zone(6.0, 6.0, 9.0, 9.0);
  for (size_t i = 0; i < kCityPoints; ++i) {
    const geo::Point loc(rng.Uniform(0, 10), rng.Uniform(0, 10));
    const double rate = zone.Contains(loc) ? planted_rate : 0.55;
    ds.Add(loc, rng.Bernoulli(rate) ? 1 : 0, rng.Bernoulli(0.5) ? 1 : 0);
  }
  return ds;
}

std::unique_ptr<RegionFamily> MakeSquares(const std::vector<geo::Point>& pts,
                                          uint64_t seed) {
  stats::KMeansOptions kmeans;
  kmeans.k = 24;
  kmeans.seed = seed;
  auto centers = stats::KMeans(pts, kmeans);
  SFA_CHECK_OK(centers.status());
  SquareScanOptions opts;
  opts.centers = centers->centers;
  opts.side_lengths = {0.5, 1.0, 1.5, 2.0};
  auto family = SquareScanFamily::Create(pts, opts);
  SFA_CHECK_OK(family.status());
  return std::move(family).value();
}

/// The mixed batch: 4 unique calibrations × 8 α levels = 32 requests.
const Workload& SharedWorkload() {
  static Workload* w = [] {
    auto* wl = new Workload;
    wl->city_a = MakeCity(11, 0.40);
    wl->city_b = MakeCity(22, 0.55);
    auto eo = BuildMeasureView(wl->city_a, FairnessMeasure::kEqualOpportunity);
    SFA_CHECK_OK(eo.status());
    wl->city_a_eo = std::move(eo).value();

    auto grid_a = GridPartitionFamily::Create(wl->city_a.locations(), 12, 12);
    auto grid_b = GridPartitionFamily::Create(wl->city_b.locations(), 10, 10);
    auto grid_eo = GridPartitionFamily::Create(wl->city_a_eo.locations(), 8, 8);
    SFA_CHECK_OK(grid_a.status());
    SFA_CHECK_OK(grid_b.status());
    SFA_CHECK_OK(grid_eo.status());
    wl->families.push_back(std::move(grid_a).value());   // [0]
    wl->families.push_back(std::move(grid_b).value());   // [1]
    wl->families.push_back(std::move(grid_eo).value());  // [2]
    wl->families.push_back(MakeSquares(wl->city_a.locations(), 31));  // [3]
    wl->families.push_back(MakeSquares(wl->city_b.locations(), 32));  // [4]

    struct Combo {
      const data::OutcomeDataset* ds;
      size_t family;
      NullModel null_model;
      stats::ScanDirection direction;
      const char* tag;
    };
    const Combo combos[4] = {
        {&wl->city_a, 0, NullModel::kBernoulli, stats::ScanDirection::kTwoSided,
         "a-grid"},
        {&wl->city_a, 3, NullModel::kBernoulli, stats::ScanDirection::kTwoSided,
         "a-squares"},
        {&wl->city_a_eo, 2, NullModel::kBernoulli, stats::ScanDirection::kLow,
         "a-eo-low"},
        {&wl->city_b, 1, NullModel::kPermutation,
         stats::ScanDirection::kTwoSided, "b-grid-perm"},
    };
    const double alphas[8] = {0.1, 0.05, 0.02, 0.01,
                              0.005, 0.002, 0.001, 0.0005};
    for (const Combo& combo : combos) {
      for (double alpha : alphas) {
        AuditRequest req;
        req.id = std::string(combo.tag) + "@" + std::to_string(alpha);
        req.dataset = combo.ds;
        req.dataset_is_view = true;  // city_a_eo is already a view
        req.family = wl->families[combo.family].get();
        req.options.alpha = alpha;
        req.options.direction = combo.direction;
        req.options.monte_carlo.num_worlds = kNumWorlds;
        req.options.monte_carlo.null_model = combo.null_model;
        wl->requests.push_back(std::move(req));
      }
    }
    return wl;
  }();
  return *w;
}

void BM_LoopAuditor(benchmark::State& state) {
  const Workload& wl = SharedWorkload();
  size_t served = 0;
  for (auto _ : state) {
    for (const AuditRequest& req : wl.requests) {
      auto result = Auditor(req.options).AuditView(*req.dataset, *req.family);
      SFA_CHECK_OK(result.status());
      benchmark::DoNotOptimize(result->p_value);
      ++served;
    }
  }
  state.counters["req/s"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LoopAuditor)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PipelineColdCache(benchmark::State& state) {
  const Workload& wl = SharedWorkload();
  AuditPipeline pipeline;
  PipelineManifest manifest;
  size_t served = 0;
  for (auto _ : state) {
    pipeline.cache().Clear();
    auto responses = pipeline.Run(wl.requests, &manifest);
    SFA_CHECK_OK(responses.status());
    SFA_CHECK(manifest.num_failed == 0);
    served += responses->size();
  }
  state.counters["req/s"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kIsRate);
  state.counters["hit_rate"] = manifest.HitRate();
}
BENCHMARK(BM_PipelineColdCache)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PipelineWarmCache(benchmark::State& state) {
  const Workload& wl = SharedWorkload();
  AuditPipeline pipeline;
  // Prime the cache once outside timing.
  SFA_CHECK_OK(pipeline.Run(wl.requests).status());
  PipelineManifest manifest;
  size_t served = 0;
  for (auto _ : state) {
    auto responses = pipeline.Run(wl.requests, &manifest);
    SFA_CHECK_OK(responses.status());
    served += responses->size();
  }
  state.counters["req/s"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kIsRate);
  state.counters["hit_rate"] = manifest.HitRate();
}
BENCHMARK(BM_PipelineWarmCache)->Unit(benchmark::kMillisecond)->UseRealTime();

// Multinomial audits through the same pipeline (the statistic layer): a
// 3-class city audited over a grid at the full α sweep — one multinomial
// calibration shared by 8 requests, closed-form per-cell Multinomial(n_c, q)
// null worlds. Tracks what the statistic abstraction costs relative to the
// binary path (same serving stack, K−1 counting passes per labeled world).
void BM_PipelineMultinomial(benchmark::State& state) {
  static const auto* mc_workload = [] {
    struct MulticlassWorkload {
      data::OutcomeDataset view{"bench-multiclass"};
      std::unique_ptr<RegionFamily> family;
      std::vector<AuditRequest> requests;
    };
    auto* wl = new MulticlassWorkload;
    Rng rng(77);
    const geo::Rect zone(6.0, 6.0, 9.0, 9.0);
    const std::vector<double> base = {0.5, 0.3, 0.2};
    const std::vector<double> shifted = {0.25, 0.3, 0.45};
    std::vector<geo::Point> pts;
    for (size_t i = 0; i < kCityPoints; ++i) {
      const geo::Point loc(rng.Uniform(0, 10), rng.Uniform(0, 10));
      const auto& mix = zone.Contains(loc) ? shifted : base;
      pts.push_back(loc);
      wl->view.Add(loc, static_cast<uint8_t>(rng.Categorical(mix)));
    }
    auto family = GridPartitionFamily::Create(pts, 12, 12);
    SFA_CHECK_OK(family.status());
    wl->family = std::move(family).value();
    const double alphas[8] = {0.1, 0.05, 0.02, 0.01,
                              0.005, 0.002, 0.001, 0.0005};
    for (double alpha : alphas) {
      AuditRequest req;
      req.id = "multinomial@" + std::to_string(alpha);
      req.dataset = &wl->view;
      req.dataset_is_view = true;
      req.family = wl->family.get();
      req.options.alpha = alpha;
      req.options.statistic = StatisticKind::kMultinomial;
      req.options.num_classes = 3;
      req.options.monte_carlo.num_worlds = kNumWorlds;
      wl->requests.push_back(std::move(req));
    }
    return wl;
  }();

  AuditPipeline pipeline;
  PipelineManifest manifest;
  size_t served = 0;
  for (auto _ : state) {
    pipeline.cache().Clear();
    auto responses = pipeline.Run(mc_workload->requests, &manifest);
    SFA_CHECK_OK(responses.status());
    SFA_CHECK(manifest.num_failed == 0);
    served += responses->size();
  }
  state.counters["req/s"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kIsRate);
  state.counters["hit_rate"] = manifest.HitRate();
}
BENCHMARK(BM_PipelineMultinomial)->Unit(benchmark::kMillisecond)->UseRealTime();

// Binary-vs-multinomial over the SAME overlapping square family: unlike the
// grid bench above there is no closed-form cell shortcut here, so every
// multinomial null world is drawn point by point into class mask planes
// and counted through RegionFamily::CountPlanes (the annulus gather). The
// tracked ratio BM_PipelineMultinomialSquares /
// BM_PipelineBinarySquares is the ISSUE 9 acceptance metric: the native
// K-class kernel must keep K=3 calibration within ~1.5x of the binary path
// instead of the ~(K-1)x the per-class indicator re-labeling used to cost.
struct SquaresAbWorkload {
  data::OutcomeDataset binary_view{"bench-squares-binary"};
  data::OutcomeDataset multiclass_view{"bench-squares-multiclass"};
  std::unique_ptr<RegionFamily> family;
  std::vector<AuditRequest> binary_requests;
  std::vector<AuditRequest> multiclass_requests;
};

const SquaresAbWorkload& SharedSquaresAb() {
  static SquaresAbWorkload* w = [] {
    auto* wl = new SquaresAbWorkload;
    Rng rng(88);
    const geo::Rect zone(6.0, 6.0, 9.0, 9.0);
    const std::vector<double> base = {0.5, 0.3, 0.2};
    const std::vector<double> shifted = {0.25, 0.3, 0.45};
    std::vector<geo::Point> pts;
    for (size_t i = 0; i < kCityPoints; ++i) {
      const geo::Point loc(rng.Uniform(0, 10), rng.Uniform(0, 10));
      pts.push_back(loc);
      const bool in_zone = zone.Contains(loc);
      wl->binary_view.Add(loc, rng.Bernoulli(in_zone ? 0.40 : 0.55) ? 1 : 0);
      wl->multiclass_view.Add(
          loc, static_cast<uint8_t>(rng.Categorical(in_zone ? shifted : base)));
    }
    wl->family = MakeSquares(pts, 33);
    const double alphas[8] = {0.1, 0.05, 0.02, 0.01,
                              0.005, 0.002, 0.001, 0.0005};
    for (double alpha : alphas) {
      AuditRequest req;
      req.dataset_is_view = true;
      req.family = wl->family.get();
      req.options.alpha = alpha;
      req.options.monte_carlo.num_worlds = kNumWorlds;

      req.id = "squares-binary@" + std::to_string(alpha);
      req.dataset = &wl->binary_view;
      wl->binary_requests.push_back(req);

      req.id = "squares-multinomial@" + std::to_string(alpha);
      req.dataset = &wl->multiclass_view;
      req.options.statistic = StatisticKind::kMultinomial;
      req.options.num_classes = 3;
      wl->multiclass_requests.push_back(std::move(req));
    }
    return wl;
  }();
  return *w;
}

void RunSquaresAbBatch(benchmark::State& state,
                       const std::vector<AuditRequest>& requests) {
  AuditPipeline pipeline;
  PipelineManifest manifest;
  size_t served = 0;
  for (auto _ : state) {
    pipeline.cache().Clear();
    auto responses = pipeline.Run(requests, &manifest);
    SFA_CHECK_OK(responses.status());
    SFA_CHECK(manifest.num_failed == 0);
    served += responses->size();
  }
  state.counters["req/s"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kIsRate);
  state.counters["hit_rate"] = manifest.HitRate();
}

void BM_PipelineBinarySquares(benchmark::State& state) {
  RunSquaresAbBatch(state, SharedSquaresAb().binary_requests);
}
BENCHMARK(BM_PipelineBinarySquares)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PipelineMultinomialSquares(benchmark::State& state) {
  RunSquaresAbBatch(state, SharedSquaresAb().multiclass_requests);
}
BENCHMARK(BM_PipelineMultinomialSquares)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PipelinePersistedWarm(benchmark::State& state) {
  const Workload& wl = SharedWorkload();
  // One-time persist outside timing: a "previous process" computes all four
  // calibrations and write-behinds them into the store directory.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("sfa_bench_pipeline_store_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    auto store = CalibrationStore::Open({.directory = dir.string()});
    SFA_CHECK_OK(store.status());
    AuditPipeline seeder;
    seeder.cache().AttachStore(
        std::shared_ptr<CalibrationStore>(std::move(*store)));
    SFA_CHECK_OK(seeder.Run(wl.requests).status());
    seeder.cache().FlushStore();
  }

  PipelineManifest manifest;
  size_t served = 0;
  uint64_t loaded = 0;
  for (auto _ : state) {
    // A fresh pipeline and store handle per iteration: nothing survives in
    // memory, only the directory — the restart scenario.
    auto store = CalibrationStore::Open({.directory = dir.string()});
    SFA_CHECK_OK(store.status());
    AuditPipeline restarted;
    restarted.cache().AttachStore(
        std::shared_ptr<CalibrationStore>(std::move(*store)));
    auto responses = restarted.Run(wl.requests, &manifest);
    SFA_CHECK_OK(responses.status());
    SFA_CHECK(manifest.num_failed == 0);
    SFA_CHECK(manifest.calibrations_computed == 0);  // the persisted contract
    served += responses->size();
    loaded += manifest.calibrations_loaded;
  }
  state.counters["req/s"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kIsRate);
  state.counters["hit_rate"] = manifest.HitRate();
  state.counters["store_loads"] = static_cast<double>(loaded);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_PipelinePersistedWarm)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Adaptive sequential MC on a cold-cache mixed batch: 32 DISTINCT cities
// (half fair, half planted) each needing its own calibration at W = 999.
// Distinct datasets are the honest workload here: the adaptive stopping rule
// is keyed on (observed Λ, α), so unlike the α-sweep batches above these
// calibrations cannot be shared — the win must come from simulating fewer
// worlds, not from cache hits. A full-precision reference run outside timing
// pins the expected verdicts; every timed iteration re-checks that adaptive
// decisions match it exactly (the acceptance bar: ≥ 3× fewer worlds at
// unchanged decisions). Counters report the worlds ratio alongside req/s.
void BM_PipelineAdaptiveMC(benchmark::State& state) {
  constexpr uint32_t kAdaptiveWorlds = 999;
  constexpr size_t kAdaptiveCities = 32;
  constexpr size_t kAdaptivePoints = 4000;
  static const auto* workload = [] {
    struct AdaptiveWorkload {
      std::vector<data::OutcomeDataset> cities;
      std::vector<std::unique_ptr<RegionFamily>> families;
      std::vector<AuditRequest> requests;
      std::vector<bool> reference_fair;  // full-precision verdicts
    };
    auto* wl = new AdaptiveWorkload;
    wl->cities.reserve(kAdaptiveCities);
    for (size_t i = 0; i < kAdaptiveCities; ++i) {
      // Even cities fair, odd cities planted (alternating strength): both
      // stop sides of the CI rule engage.
      const double rate = i % 2 == 0 ? 0.55 : (i % 4 == 1 ? 0.90 : 0.70);
      Rng rng(100 + i);
      data::OutcomeDataset ds("adaptive-city-" + std::to_string(i));
      const geo::Rect zone(6.0, 6.0, 9.0, 9.0);
      for (size_t p = 0; p < kAdaptivePoints; ++p) {
        const geo::Point loc(rng.Uniform(0, 10), rng.Uniform(0, 10));
        ds.Add(loc, rng.Bernoulli(zone.Contains(loc) ? rate : 0.55) ? 1 : 0);
      }
      wl->cities.push_back(std::move(ds));
    }
    for (size_t i = 0; i < kAdaptiveCities; ++i) {
      auto family =
          GridPartitionFamily::Create(wl->cities[i].locations(), 8, 8);
      SFA_CHECK_OK(family.status());
      wl->families.push_back(std::move(family).value());
      AuditRequest req;
      req.id = "adaptive-" + std::to_string(i);
      req.dataset = &wl->cities[i];
      req.dataset_is_view = true;
      req.family = wl->families[i].get();
      req.options.alpha = 0.05;
      req.options.significance = SignificanceMethod::kAuto;
      req.options.monte_carlo.num_worlds = kAdaptiveWorlds;
      req.options.monte_carlo.seed = 900 + i;
      req.options.monte_carlo.adaptive.enabled = true;
      wl->requests.push_back(std::move(req));
    }
    // Full-precision reference: the same batch, adaptive off.
    std::vector<AuditRequest> full = wl->requests;
    for (AuditRequest& req : full) {
      req.options.monte_carlo.adaptive.enabled = false;
    }
    AuditPipeline reference;
    auto responses = reference.Run(full);
    SFA_CHECK_OK(responses.status());
    for (const AuditResponse& response : *responses) {
      SFA_CHECK_OK(response.status);
      wl->reference_fair.push_back(response.result.spatially_fair);
    }
    return wl;
  }();

  AuditPipeline pipeline;
  PipelineManifest manifest;
  size_t served = 0;
  for (auto _ : state) {
    pipeline.cache().Clear();
    auto responses = pipeline.Run(workload->requests, &manifest);
    SFA_CHECK_OK(responses.status());
    SFA_CHECK(manifest.num_failed == 0);
    for (size_t i = 0; i < responses->size(); ++i) {
      // The acceptance bar's "unchanged decisions" half, re-checked every
      // iteration.
      SFA_CHECK((*responses)[i].result.spatially_fair ==
                workload->reference_fair[i]);
    }
    served += responses->size();
  }
  const auto requested =
      static_cast<double>(kAdaptiveCities) * kAdaptiveWorlds;
  const auto simulated =
      requested - static_cast<double>(manifest.worlds_saved);
  state.counters["req/s"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kIsRate);
  state.counters["early_stops"] = static_cast<double>(manifest.early_stops);
  state.counters["worlds_saved"] = static_cast<double>(manifest.worlds_saved);
  state.counters["worlds_ratio"] = requested / simulated;
}
BENCHMARK(BM_PipelineAdaptiveMC)->Unit(benchmark::kMillisecond)->UseRealTime();

// Zero-copy warm path A/B: the SAME persisted frame population served
// through CalibrationStore::Load (heap copy + per-load allocation) versus
// CalibrationStore::LoadView (one-time-validated mmap'd view; warm hits
// cost one stat and a shared_ptr bump). Both paths ride the in-memory
// store index, so the delta isolates copy-vs-map — the ISSUE 10 acceptance
// ratio BM_StoreLoadMmap / BM_StoreLoadCopy must be ≥ 5×. Frames hold
// 32768 maxima (256 KiB of doubles) × 16 keys: the production shape where
// copy cost dominates once checksums are amortised away.
struct StoreLoadWorkload {
  std::filesystem::path dir;
  std::shared_ptr<CalibrationStore> store;
  std::vector<CalibrationKey> keys;
};

const StoreLoadWorkload& SharedStoreLoad() {
  static StoreLoadWorkload* w = [] {
    constexpr size_t kFrames = 16;
    constexpr size_t kWorldsPerFrame = 32768;
    auto* wl = new StoreLoadWorkload;
    wl->dir = std::filesystem::temp_directory_path() /
              ("sfa_bench_store_load_" + std::to_string(::getpid()));
    std::filesystem::remove_all(wl->dir);
    auto store = CalibrationStore::Open({.directory = wl->dir.string()});
    SFA_CHECK_OK(store.status());
    wl->store = std::shared_ptr<CalibrationStore>(std::move(*store));
    Rng rng(4242);
    for (size_t k = 0; k < kFrames; ++k) {
      CalibrationKey key;
      key.hash = 0x9e3779b97f4a7c15ULL * (k + 1);
      key.debug = "bench-store-load-" + std::to_string(k);
      std::vector<double> maxima(kWorldsPerFrame);
      for (double& m : maxima) m = rng.Uniform(0.0, 12.0);
      SFA_CHECK_OK(
          wl->store->Store(key, NullDistribution(std::move(maxima))));
      wl->keys.push_back(std::move(key));
    }
    // First touch outside timing: earn the one-time checksums so both
    // benches measure the steady warm path, not validation.
    for (const CalibrationKey& key : wl->keys) {
      SFA_CHECK_OK(wl->store->Load(key).status());
    }
    return wl;
  }();
  return *w;
}

void BM_StoreLoadCopy(benchmark::State& state) {
  const StoreLoadWorkload& wl = SharedStoreLoad();
  size_t loads = 0;
  for (auto _ : state) {
    for (const CalibrationKey& key : wl.keys) {
      auto dist = wl.store->Load(key);
      SFA_CHECK_OK(dist.status());
      benchmark::DoNotOptimize(dist->sorted_max().data());
      ++loads;
    }
  }
  state.counters["loads/s"] = benchmark::Counter(
      static_cast<double>(loads), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StoreLoadCopy)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_StoreLoadMmap(benchmark::State& state) {
  const StoreLoadWorkload& wl = SharedStoreLoad();
  size_t loads = 0;
  for (auto _ : state) {
    for (const CalibrationKey& key : wl.keys) {
      auto view = wl.store->LoadView(key);
      SFA_CHECK_OK(view.status());
      benchmark::DoNotOptimize(view->sorted_max().data());
      ++loads;
    }
  }
  const CalibrationStore::Stats stats = wl.store->stats();
  state.counters["loads/s"] = benchmark::Counter(
      static_cast<double>(loads), benchmark::Counter::kIsRate);
  state.counters["mmap_frames"] = static_cast<double>(stats.mmap_frames);
  state.counters["mmap_bytes"] = static_cast<double>(stats.mmap_bytes);
}
BENCHMARK(BM_StoreLoadMmap)->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
