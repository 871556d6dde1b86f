// restart_store: setup persists 64 W=999 calibration frames (grid, squares
// and kNN keys that differ by Monte Carlo seed). Each op is a restart round:
// CalibrationStore::Open on the same directory, a fresh AuditPipeline with
// the store attached, Run() over the 64 persisted keys plus 4 keys with
// round-unique seeds (cheap closed-form grid calibrations), then FlushStore.
// The store's byte budget keeps the directory at a steady size through LRU
// eviction on Open, so mmap'd reads, writes, index builds and eviction all
// run side by side — a read-path gain that slows writes or Open shows here.
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "common/macros.h"
#include "core/calibration_cache.h"

namespace sfabench {

using namespace sfa;
using namespace sfa::core;

namespace {

constexpr size_t kPersisted = 64;
constexpr size_t kFreshPerRound = 4;
constexpr size_t kAuditsPerRound = kPersisted + kFreshPerRound;
// Seed bases with equal digit counts, so every grid key (persisted or
// fresh) renders to the same frame size and the byte budget holds exactly
// 64 + 4 frames.
constexpr uint64_t kPersistedSeedBase = 1'000'000'000;
constexpr uint64_t kRoundSeedBase = 2'000'000'000;
constexpr uint64_t kReplaySeedBase = 3'000'000'000;

struct RestartState {
  City city;
  std::unique_ptr<RegionFamily> grid, squares, knn;
  std::vector<AuditRequest> persisted;
  /// The payloads computed while persisting: every later store-served
  /// result must equal them.
  std::vector<AuditResult> reference;
  std::vector<CalibrationKey> persisted_keys;
  std::string dir;
  uint64_t budget_bytes = 0;
};

CalibrationKey KeyOf(const AuditRequest& req) {
  auto statistic = MakeScanStatistic(req.options, *req.dataset);
  SFA_CHECK_OK(statistic.status());
  return MakeCalibrationKey(*req.family, **statistic, req.options.monte_carlo);
}

AuditRequest FreshRequest(const RestartState& s, uint64_t seed) {
  return MakeRequest("fresh-" + std::to_string(seed), &s.city.binary,
                     s.grid.get(), 0.05, seed);
}

std::unique_ptr<RestartState> Setup(uint64_t seed, const std::string& dir) {
  auto s = std::make_unique<RestartState>();
  s->dir = dir;
  std::filesystem::remove_all(dir);
  s->city = MakeCity(seed, kCityPoints);
  const auto& points = s->city.binary.locations();
  const auto centers = KMeansCenters(points, 24, seed);
  s->grid = MakeGrid(points, 8, 8);
  s->squares = MakeSquares(points, centers, 8);
  s->knn = MakeKnn(points, centers);
  const RegionFamily* families[] = {s->grid.get(), s->squares.get(),
                                    s->knn.get()};
  for (size_t i = 0; i < kPersisted; ++i) {
    s->persisted.push_back(MakeRequest(
        "persisted-" + std::to_string(i), &s->city.binary, families[i % 3],
        0.05, kPersistedSeedBase + i));
    s->persisted_keys.push_back(KeyOf(s->persisted.back()));
  }

  CalibrationStore::Options options;
  options.directory = dir;
  auto store = CalibrationStore::Open(options);
  SFA_CHECK_OK(store.status());
  AuditPipeline pipeline;
  pipeline.cache().AttachStore(std::move(store).value());
  PipelineManifest manifest;
  auto responses = pipeline.Run(s->persisted, &manifest);
  SFA_CHECK_OK(responses.status());
  SFA_CHECK(manifest.calibrations_computed == kPersisted);
  pipeline.cache().FlushStore();
  for (AuditResponse& r : *responses) {
    SFA_CHECK_OK(r.status);
    s->reference.push_back(std::move(r.result));
  }
  const uint64_t grid_frame =
      std::filesystem::file_size(pipeline.cache().store()->FilePathFor(
          s->persisted_keys[0]));
  s->budget_bytes = FrameBytes(dir) + kFreshPerRound * grid_frame;
  return s;
}

/// Replays round `round` serially on a fresh store handle, with its own
/// fresh seeds so it simulates and writes as the round did, then times the
/// copy path (Load) directly. The replay's frames are removed afterwards so
/// the directory stays as the untraced rounds leave it.
void ReplayRound(const RestartState& s, uint64_t round, Tracer* tracer,
                 std::vector<double>* load_us, Outcome* out) {
  std::vector<AuditRequest> replay = s.persisted;
  for (size_t j = 0; j < kFreshPerRound; ++j) {
    replay.push_back(
        FreshRequest(s, kReplaySeedBase + round * kFreshPerRound + j));
  }
  const uint64_t op = kReplayOpBase + round;
  std::unique_ptr<CalibrationStore> store;
  {
    // No sweep: eviction stays with the rounds' own Open.
    SpanScope open(tracer, "core/calibration_store", "CalibrationStore::Open",
                   op);
    auto opened = CalibrationStore::Open({.directory = s.dir});
    SFA_CHECK_OK(opened.status());
    store = std::move(opened).value();
  }
  const auto replayed =
      ReplayRun(replay, nullptr, store.get(), nullptr, tracer, op);
  for (size_t i = 0; i < kPersisted; ++i) {
    if (!ResultsBitIdentical(replayed[i], s.reference[i])) ++out->failed;
  }
  for (size_t i = 0; i < 8; ++i) {
    SpanScope load(tracer, "core/calibration_store", "CalibrationStore::Load",
                   kProbeOpBase);
    const auto t0 = Clock::now();
    SFA_CHECK_OK(store->Load(s.persisted_keys[i]).status());
    load_us->push_back(UsBetween(t0, Clock::now()));
  }
  for (size_t j = kPersisted; j < replay.size(); ++j) {
    std::filesystem::remove(store->FilePathFor(KeyOf(replay[j])));
  }
}

struct StoreTotals {
  uint64_t loads = 0, load_hits = 0, mmap_loads = 0, index_hits = 0;
  uint64_t evicted = 0;
  uint64_t cache_hits = 0, cache_lookups = 0;
};

}  // namespace

Outcome RunRestartStore(const Args& args, Tracer* tracer, Report* report) {
  const std::string dir = args.work_dir + "/restart-store";
  const auto s = RepeatSetup([&] { return Setup(args.seed, dir); }, report);
  for (const auto* f : {s->grid.get(), s->squares.get(), s->knn.get()}) {
    report->Note("family " + FamilyShape(*f) + ": " + f->Name());
  }

  Outcome out;
  std::vector<double> round_ms[2];
  std::vector<double> round_cpu_ms;
  std::vector<double> open_ms, flush_ms, load_us;
  std::vector<uint64_t> dir_bytes;
  StoreTotals totals;
  CalibrationStore::Options options;
  options.directory = dir;
  options.max_bytes = s->budget_bytes;
  options.sweep_on_open = true;
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  uint64_t round = 0;
  for (int traced = 0; traced <= (args.trace ? 1 : 0); ++traced) {
    Tracer* t = traced ? tracer : nullptr;
    const auto phase_start = Clock::now();
    while (MsBetween(phase_start, Clock::now()) < phase_s * 1e3) {
      std::vector<AuditRequest> batch = s->persisted;
      for (size_t j = 0; j < kFreshPerRound; ++j) {
        batch.push_back(
            FreshRequest(*s, kRoundSeedBase + round * kFreshPerRound + j));
      }
      PipelineManifest manifest;
      std::shared_ptr<CalibrationStore> store;
      Result<std::vector<AuditResponse>> responses =
          Status::Internal("round not run");
      CalibrationCache::Stats cache_stats;
      const double cpu0 = ProcessCpuMs();
      const auto t0 = Clock::now();
      {
        SpanScope span(t, "core/audit_pipeline", "restart_round", round);
        {
          SpanScope open(t, "core/calibration_store", "CalibrationStore::Open",
                         round);
          auto opened = CalibrationStore::Open(options);
          SFA_CHECK_OK(opened.status());
          store = std::move(opened).value();
        }
        const auto t_open = Clock::now();
        AuditPipeline pipeline;
        pipeline.cache().AttachStore(store);
        {
          SpanScope run(t, "core/audit_pipeline", "AuditPipeline::Run", round);
          responses = pipeline.Run(batch, &manifest);
        }
        const auto t_flush = Clock::now();
        {
          SpanScope flush(t, "core/calibration_store", "FlushStore", round);
          pipeline.cache().FlushStore();
        }
        if (traced) {
          open_ms.push_back(MsBetween(t0, t_open));
          flush_ms.push_back(MsBetween(t_flush, Clock::now()));
        }
        cache_stats = pipeline.cache().stats();
      }
      const double ms = MsBetween(t0, Clock::now());
      const double cpu_ms = ProcessCpuMs() - cpu0;

      SFA_CHECK_OK(responses.status());
      out.attempted += kAuditsPerRound;
      bool round_ok = manifest.calibrations_computed == kFreshPerRound &&
                      manifest.calibrations_loaded == kPersisted;
      for (size_t i = 0; i < kAuditsPerRound; ++i) {
        const AuditResponse& r = (*responses)[i];
        bool ok = r.status.ok();
        if (ok && i < kPersisted) {
          ok = ResultsBitIdentical(r.result, s->reference[i]);
        } else if (ok) {
          auto fresh = Auditor(batch[i].options)
                           .AuditView(*batch[i].dataset, *batch[i].family);
          ok = fresh.ok() && ResultsBitIdentical(r.result, *fresh);
        }
        if (!ok) ++out.failed;
        round_ok &= ok;
      }
      const CalibrationStore::Stats stats = store->stats();
      if (stats.temps_reaped != 0 || stats.quarantined != 0 ||
          stats.load_rejected != 0) {
        std::fprintf(stderr, "error: store hygiene: reaped=%llu "
                     "quarantined=%llu rejected=%llu\n",
                     static_cast<unsigned long long>(stats.temps_reaped),
                     static_cast<unsigned long long>(stats.quarantined),
                     static_cast<unsigned long long>(stats.load_rejected));
        out.failed += kAuditsPerRound;
        round_ok = false;
      }
      totals.loads += stats.load_hits + stats.load_misses + stats.load_rejected;
      totals.load_hits += stats.load_hits;
      totals.mmap_loads += stats.mmap_loads;
      totals.index_hits += stats.index_hits;
      if (round >= 2) totals.evicted += stats.evicted_files;
      totals.cache_hits += cache_stats.hits;
      totals.cache_lookups += cache_stats.hits + cache_stats.misses;
      // The budget must hold the directory at one size once eviction runs.
      dir_bytes.push_back(FrameBytes(dir));
      if (round >= 1 && dir_bytes.back() != dir_bytes[1]) {
        std::fprintf(stderr, "error: store directory grew: %llu -> %llu\n",
                     static_cast<unsigned long long>(dir_bytes[1]),
                     static_cast<unsigned long long>(dir_bytes.back()));
        out.failed += kAuditsPerRound;
        round_ok = false;
      }
      if (round_ok) {
        round_ms[traced].push_back(ms);
        if (!traced) round_cpu_ms.push_back(cpu_ms);
      }

      if (traced) ReplayRound(*s, round, tracer, &load_us, &out);
      ++round;
    }
    if (!traced) {
      ReportClosedLoop(round_ms[0], round_cpu_ms, kAuditsPerRound, "restart",
                       report);
      report->Set("store_dir_bytes", static_cast<double>(dir_bytes.back()),
                  "bytes", dir_bytes.size());
    }
  }

  if (args.trace) {
    report->Set("trace.overhead_ms_p50",
                Median(round_ms[1]) - Median(round_ms[0]), "ms",
                round_ms[1].size());
    report->Set("cache.hit_ratio",
                Ratio(totals.cache_hits, totals.cache_lookups), "share",
                totals.cache_lookups);
    LayerInputs inputs{&s->city.binary, &s->city.classes, s->grid.get(),
                       s->squares.get(), s->knn.get(),
                       std::vector<AuditRequest>(s->persisted.begin(),
                                                 s->persisted.begin() + 12)};
    RunLayerProbes(inputs, args, args.seed, /*skip_store=*/true, tracer,
                   report);
    if (!ProbeStreaming(inputs.requests, 200, tracer, report)) ++out.failed;

    const std::vector<Span> spans = tracer->Snapshot();
    const auto views = SpanDurations(spans, "CalibrationStore::LoadView");
    const auto stores = SpanDurations(spans, "CalibrationStore::Store");
    report->Set("store.open_ms", Median(open_ms), "ms", open_ms.size());
    report->Set("store.flush_ms", Median(flush_ms), "ms", flush_ms.size());
    report->Set("store.loadview_us_p50", Median(views), "us", views.size());
    report->Set("store.loadview_us_p99", Quantile(views, 0.99), "us",
                views.size());
    report->Set("store.load_us_p50", Median(load_us), "us", load_us.size());
    report->Set("store.store_us_p50", Median(stores), "us", stores.size());
    report->Set("store.hit_ratio", Ratio(totals.load_hits, totals.loads),
                "share", totals.loads);
    report->Set("store.mmap_ratio", Ratio(totals.mmap_loads, totals.load_hits),
                "share", totals.load_hits);
    report->Set("store.index_hit_ratio",
                Ratio(totals.index_hits, totals.load_hits), "share",
                totals.load_hits);
    report->Set("store.evicted_files",
                round > 2 ? static_cast<double>(totals.evicted) / (round - 2)
                          : 0.0,
                "count", round);
    ReportOpBreakdown(spans, kReplayOpBase, kReplayOpBase + round, report);
  }
  std::filesystem::remove_all(dir);
  out.correct = out.failed == 0;
  return out;
}

}  // namespace sfabench
