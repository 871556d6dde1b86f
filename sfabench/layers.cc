// Per-layer measurement: probes that time each layer on a workload's own
// inputs, the serial replay that decomposes a Run into the public calls the
// pipeline makes, and the streaming recorder shared by warm_serve and the
// admission probe.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <set>
#include <unordered_map>

#include "bench.h"
#include "common/macros.h"
#include "common/random.h"
#include "core/calibration_cache.h"
#include "core/labels.h"
#include "core/measure.h"

namespace sfabench {

using namespace sfa;
using namespace sfa::core;

namespace {

constexpr size_t kProbeWorlds = 64;
constexpr size_t kProbeBatch = 8;
constexpr int kMinPasses = 5;
constexpr double kMinProbeMs = 30.0;

struct Timing {
  double median_us = 0.0;
  size_t samples = 0;
};

/// Runs `pass` under a span at least kMinPasses times and `min_ms` long;
/// returns the median pass time.
Timing TimePasses(Tracer* tracer, const char* layer, const std::string& name,
                  const std::function<void()>& pass,
                  double min_ms = kMinProbeMs) {
  std::vector<double> us;
  const auto start = Clock::now();
  while (us.size() < static_cast<size_t>(kMinPasses) ||
         MsBetween(start, Clock::now()) < min_ms) {
    SpanScope span(tracer, layer, name, kProbeOpBase);
    const auto t0 = Clock::now();
    pass();
    us.push_back(UsBetween(t0, Clock::now()));
  }
  return {Median(us), us.size()};
}

/// One calibration kind the probes simulate.
struct ProbeCalibration {
  std::string tag;
  const RegionFamily* family = nullptr;
  const data::OutcomeDataset* view = nullptr;
  AuditOptions options;
  std::string count_tag;  ///< counting probe behind RunWorldBatch; "" = none
  std::shared_ptr<const ScanStatistic> statistic;
  NullDistribution distribution;
};

/// The probe kind a request's calibration runs as: the family shape, with
/// "_perm" for a permutation null and "_k3" for the multinomial statistic.
std::string CalibrationKind(const AuditRequest& request) {
  std::string kind = FamilyShape(*request.family);
  if (request.options.statistic == StatisticKind::kMultinomial) {
    return kind + "_k3";
  }
  if (request.options.monte_carlo.null_model == NullModel::kPermutation) {
    return kind + "_perm";
  }
  return kind;
}

std::vector<uint8_t> DrawClassWorld(const data::OutcomeDataset& view,
                                    Rng* rng) {
  std::vector<double> mix(kNumClasses, 0.0);
  for (uint8_t c : view.predicted()) mix[c] += 1.0;
  std::vector<uint8_t> world(view.size());
  for (uint8_t& c : world) c = static_cast<uint8_t>(rng->Categorical(mix));
  return world;
}

/// count.ns_per_world.<shape> through CountPositivesBatch (and squares_k3
/// through CountClassesBatch) on worlds drawn here, not by the engine.
std::map<std::string, double> ProbeCounting(const LayerInputs& in, Rng* rng,
                                            Tracer* tracer, Report* report) {
  const size_t n = in.binary_view->size();
  std::vector<Labels> worlds;
  worlds.reserve(kProbeWorlds);
  for (size_t w = 0; w < kProbeWorlds; ++w) {
    worlds.push_back(
        Labels::SampleBernoulli(n, in.binary_view->PositiveRate(), rng));
    // Materialize both lazy views outside the timed passes.
    worlds.back().bits();
    worlds.back().positive_indices();
  }
  std::vector<const Labels*> world_ptrs;
  for (const Labels& w : worlds) world_ptrs.push_back(&w);

  std::map<std::string, double> ns_per_world;
  const std::pair<const char*, const RegionFamily*> shapes[] = {
      {"grid", in.grid}, {"squares", in.squares}, {"knn", in.knn}};
  for (const auto& [tag, family] : shapes) {
    std::vector<uint64_t> out(kProbeBatch * family->num_regions());
    const Timing t = TimePasses(
        tracer, "spatial", "CountPositivesBatch:" + family->Name(), [&] {
          for (size_t b = 0; b < kProbeWorlds; b += kProbeBatch) {
            family->CountPositivesBatch(world_ptrs.data() + b, kProbeBatch,
                                        out.data());
          }
        });
    ns_per_world[tag] = t.median_us * 1e3 / kProbeWorlds;
    report->Set(std::string("count.ns_per_world.") + tag, ns_per_world[tag],
                "ns", t.samples * kProbeWorlds);
  }

  std::vector<std::vector<uint8_t>> class_worlds;
  for (size_t w = 0; w < kProbeWorlds; ++w) {
    class_worlds.push_back(DrawClassWorld(*in.class_view, rng));
  }
  std::vector<const uint8_t*> class_ptrs;
  for (const auto& w : class_worlds) class_ptrs.push_back(w.data());
  std::vector<uint64_t> out(ClassCountBufferSize(
      kProbeBatch, kNumClasses - 1, in.squares->num_regions()));
  const Timing t = TimePasses(
      tracer, "spatial", "CountClassesBatch:" + in.squares->Name(), [&] {
        for (size_t b = 0; b < kProbeWorlds; b += kProbeBatch) {
          in.squares->CountClassesBatch(class_ptrs.data() + b, kProbeBatch,
                                        kNumClasses, out.data());
        }
      });
  ns_per_world["squares_k3"] = t.median_us * 1e3 / kProbeWorlds;
  report->Set("count.ns_per_world.squares_k3", ns_per_world["squares_k3"],
              "ns", t.samples * kProbeWorlds);
  return ns_per_world;
}

/// mc.* and count.share.* per calibration kind: MakeSimulation, then every
/// world through RunWorldBatch serially. Keeps each distribution.
std::vector<ProbeCalibration> ProbeWorldEngine(
    const LayerInputs& in, uint64_t seed,
    const std::map<std::string, double>& count_ns, Tracer* tracer,
    Report* report) {
  const auto kind_of = [](const char* tag, const RegionFamily* family,
                          const data::OutcomeDataset* view,
                          const char* count_tag) {
    ProbeCalibration kind;
    kind.tag = tag;
    kind.family = family;
    kind.view = view;
    kind.count_tag = count_tag;
    return kind;
  };
  std::vector<ProbeCalibration> kinds = {
      kind_of("grid", in.grid, in.binary_view, ""),
      kind_of("grid_perm", in.grid, in.binary_view, "grid"),
      kind_of("squares", in.squares, in.binary_view, "squares"),
      kind_of("knn", in.knn, in.binary_view, "knn"),
      kind_of("squares_k3", in.squares, in.class_view, "squares_k3")};
  kinds[1].options.monte_carlo.null_model = NullModel::kPermutation;
  kinds[4].options.statistic = StatisticKind::kMultinomial;
  kinds[4].options.num_classes = kNumClasses;
  for (size_t k = 0; k < kinds.size(); ++k) {
    ProbeCalibration& kind = kinds[k];
    MonteCarloOptions& mc = kind.options.monte_carlo;
    mc.num_worlds = kNumWorlds;
    mc.seed = seed + k;
    auto statistic = MakeScanStatistic(kind.options, *kind.view);
    SFA_CHECK_OK(statistic.status());
    kind.statistic = std::move(statistic).value();

    auto t0 = Clock::now();
    std::unique_ptr<StatisticSimulation> simulation;
    {
      SpanScope span(tracer, "core/mc_engine", "MakeSimulation:" + kind.tag,
                     kProbeOpBase);
      simulation = kind.statistic->MakeSimulation(*kind.family, mc);
    }
    const double setup_ms = MsBetween(t0, Clock::now());
    std::vector<double> maxima(mc.num_worlds);
    t0 = Clock::now();
    {
      SpanScope span(tracer, "core/mc_engine", "RunWorldBatch:" + kind.tag,
                     kProbeOpBase);
      for (size_t w = 0; w < maxima.size(); w += mc.batch_size) {
        const size_t hi = std::min<size_t>(w + mc.batch_size, maxima.size());
        simulation->RunWorldBatch(w, hi, maxima.data());
      }
    }
    const double run_s = MsBetween(t0, Clock::now()) / 1e3;
    const double ns_per_world = run_s * 1e9 / mc.num_worlds;
    const double count =
        kind.count_tag.empty() ? 0.0 : count_ns.at(kind.count_tag);
    report->Set("mc.setup_ms." + kind.tag, setup_ms, "ms", 1);
    report->Set("mc.worlds_per_s." + kind.tag, mc.num_worlds / run_s, "1/s",
                mc.num_worlds);
    report->Set("mc.sample_llr_ns_per_world." + kind.tag,
                ns_per_world - count, "ns", mc.num_worlds);
    if (!kind.count_tag.empty()) {
      report->Set("count.share." + kind.tag, count / ns_per_world, "share",
                  mc.num_worlds);
    }
    kind.distribution = NullDistribution(std::move(maxima));
  }
  return kinds;
}

/// key.*, view.build_us and cache.lookup_us.
void ProbeKeying(const LayerInputs& in,
                 const std::vector<ProbeCalibration>& kinds, Tracer* tracer,
                 Report* report) {
  std::map<const RegionFamily*, uint64_t> fingerprints;
  for (const RegionFamily* family : {in.grid, in.squares, in.knn}) {
    const Timing t = TimePasses(
        tracer, "core/calibration_cache",
        "FamilyFingerprint:" + FamilyShape(*family),
        [&] { fingerprints[family] = FamilyFingerprint(*family); });
    report->Set("key.fingerprint_us." + FamilyShape(*family), t.median_us,
                "us", t.samples);
  }

  std::vector<double> key_us;
  for (const AuditRequest& req : in.requests) {
    data::OutcomeDataset view_storage;
    const data::OutcomeDataset* view = req.dataset;
    if (!req.dataset_is_view) {
      view_storage = *BuildMeasureView(*req.dataset, req.options.measure);
      view = &view_storage;
    }
    if (!fingerprints.count(req.family)) {
      fingerprints[req.family] = FamilyFingerprint(*req.family);
    }
    const Timing t =
        TimePasses(tracer, "core/calibration_cache", "KeyBuild", [&] {
          auto statistic = MakeScanStatistic(req.options, *view);
          SFA_CHECK_OK(statistic.status());
          SFA_CHECK_OK((*statistic)->ValidateOutcomes(view->predicted().data(),
                                                      view->size()));
          MakeCalibrationKey(*req.family, fingerprints[req.family],
                             **statistic, req.options.monte_carlo);
        },
        /*min_ms=*/0.0);
    key_us.push_back(t.median_us);
  }
  report->Set("key.build_us", Median(key_us), "us", key_us.size());

  const Timing view =
      TimePasses(tracer, "core/measure", "BuildMeasureView", [&] {
        SFA_CHECK_OK(
            BuildMeasureView(*in.binary_view,
                             FairnessMeasure::kEqualOpportunity)
                .status());
      });
  report->Set("view.build_us", view.median_us, "us", view.samples);

  CalibrationCache cache;
  std::vector<CalibrationKey> keys;
  for (const ProbeCalibration& kind : kinds) {
    keys.push_back(MakeCalibrationKey(*kind.family, *kind.statistic,
                                      kind.options.monte_carlo));
    const NullDistribution value = kind.distribution;
    SFA_CHECK_OK(
        cache.GetOrCompute(keys.back(), [&]() -> Result<NullDistribution> {
          return value;
        }).status());
  }
  constexpr size_t kLookupsPerPass = 256;
  const Timing lookup =
      TimePasses(tracer, "core/calibration_cache", "CalibrationCache::Lookup",
                 [&] {
                   for (size_t i = 0; i < kLookupsPerPass; ++i) {
                     SFA_CHECK(cache.Lookup(keys[i % keys.size()]) != nullptr);
                   }
                 });
  report->Set("cache.lookup_us", lookup.median_us / kLookupsPerPass, "us",
              lookup.samples * kLookupsPerPass);
}

/// scan.observed_us, assemble.us and evidence.us per shape (Bernoulli).
void ProbeAssembly(const std::vector<ProbeCalibration>& kinds, Tracer* tracer,
                   Report* report) {
  AuditScratch scratch;
  for (const ProbeCalibration& kind : kinds) {
    if (kind.tag != "grid" && kind.tag != "squares" && kind.tag != "knn") {
      continue;
    }
    const Timing scan = TimePasses(
        tracer, "core/scan_statistic", "ScanObserved:" + kind.tag, [&] {
          kind.statistic->ScanObserved(*kind.family,
                                       kind.view->predicted().data(),
                                       kind.view->size(), &scratch);
        });
    const Auditor auditor(kind.options);
    const Timing assemble =
        TimePasses(tracer, "core/audit", "AuditView:" + kind.tag, [&] {
          SFA_CHECK_OK(auditor
                           .AuditView(*kind.view, *kind.family,
                                      kind.statistic.get(), &kind.distribution,
                                      &scratch)
                           .status());
        });
    report->Set("scan.observed_us." + kind.tag, scan.median_us, "us",
                scan.samples);
    report->Set("assemble.us." + kind.tag, assemble.median_us, "us",
                assemble.samples);
    report->Set("evidence.us." + kind.tag, assemble.median_us - scan.median_us,
                "us", assemble.samples);
  }
}

/// store.* on the probe's own calibrations: write them, flush a second set
/// through a cache's write-behind, reopen (index build), load each through
/// LoadView twice (first touch validates) and through the copy path, then
/// evict half.
void ProbeStore(const std::vector<ProbeCalibration>& kinds,
                const std::string& dir, Tracer* tracer, Report* report) {
  std::filesystem::remove_all(dir);
  CalibrationStore::Options options;
  options.directory = dir;
  std::vector<CalibrationKey> keys;
  std::vector<double> store_us;
  {
    auto store = CalibrationStore::Open(options);
    SFA_CHECK_OK(store.status());
    std::shared_ptr<CalibrationStore> shared(std::move(store).value());
    for (const ProbeCalibration& kind : kinds) {
      keys.push_back(MakeCalibrationKey(*kind.family, *kind.statistic,
                                        kind.options.monte_carlo));
      SpanScope span(tracer, "core/calibration_store",
                     "CalibrationStore::Store", kProbeOpBase);
      const auto t0 = Clock::now();
      SFA_CHECK_OK(shared->Store(keys.back(), kind.distribution));
      store_us.push_back(UsBetween(t0, Clock::now()));
    }
    CalibrationCache cache;
    cache.AttachStore(shared);
    for (const ProbeCalibration& kind : kinds) {
      MonteCarloOptions mc = kind.options.monte_carlo;
      mc.seed += 1000;
      keys.push_back(MakeCalibrationKey(*kind.family, *kind.statistic, mc));
      const NullDistribution value = kind.distribution;
      SFA_CHECK_OK(
          cache.GetOrCompute(keys.back(), [&]() -> Result<NullDistribution> {
                 return value;
               }).status());
    }
    SpanScope span(tracer, "core/calibration_store", "FlushStore",
                   kProbeOpBase);
    const auto t0 = Clock::now();
    cache.FlushStore();
    report->Set("store.flush_ms", MsBetween(t0, Clock::now()), "ms", 1);
  }

  const auto t0 = Clock::now();
  std::unique_ptr<CalibrationStore> store;
  {
    SpanScope span(tracer, "core/calibration_store", "CalibrationStore::Open",
                   kProbeOpBase);
    auto opened = CalibrationStore::Open(options);
    SFA_CHECK_OK(opened.status());
    store = std::move(opened).value();
  }
  report->Set("store.open_ms", MsBetween(t0, Clock::now()), "ms", 1);
  std::vector<double> view_us;
  std::vector<double> load_us;
  for (int pass = 0; pass < 2; ++pass) {
    for (const CalibrationKey& key : keys) {
      SpanScope span(tracer, "core/calibration_store",
                     "CalibrationStore::LoadView", kProbeOpBase);
      const auto start = Clock::now();
      SFA_CHECK_OK(store->LoadView(key).status());
      view_us.push_back(UsBetween(start, Clock::now()));
    }
  }
  for (const CalibrationKey& key : keys) {
    SpanScope span(tracer, "core/calibration_store", "CalibrationStore::Load",
                   kProbeOpBase);
    const auto start = Clock::now();
    SFA_CHECK_OK(store->Load(key).status());
    load_us.push_back(UsBetween(start, Clock::now()));
  }
  auto evicted = store->EvictToBudget(FrameBytes(dir) / 2);
  SFA_CHECK_OK(evicted.status());

  const CalibrationStore::Stats stats = store->stats();
  report->Set("store.store_us_p50", Median(store_us), "us", store_us.size());
  report->Set("store.loadview_us_p50", Median(view_us), "us", view_us.size());
  report->Set("store.loadview_us_p99", Quantile(view_us, 0.99), "us",
              view_us.size());
  report->Set("store.load_us_p50", Median(load_us), "us", load_us.size());
  const uint64_t loads =
      stats.load_hits + stats.load_misses + stats.load_rejected;
  report->Set("store.hit_ratio", Ratio(stats.load_hits, loads), "share", loads);
  report->Set("store.mmap_ratio", Ratio(stats.mmap_loads, stats.load_hits),
              "share", stats.load_hits);
  report->Set("store.index_hit_ratio", Ratio(stats.index_hits, stats.load_hits),
              "share", stats.load_hits);
  report->Set("store.evicted_files", static_cast<double>(*evicted), "count", 1);
  store.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace

void RunLayerProbes(const LayerInputs& inputs, const Args& args, uint64_t seed,
                    bool skip_store, Tracer* tracer, Report* report) {
  Rng rng(seed);
  const auto count_ns = ProbeCounting(inputs, &rng, tracer, report);
  const auto kinds = ProbeWorldEngine(inputs, seed, count_ns, tracer, report);
  ProbeKeying(inputs, kinds, tracer, report);
  ProbeAssembly(kinds, tracer, report);
  if (!skip_store) {
    ProbeStore(kinds, args.work_dir + "/probe-store", tracer, report);
  }
}

// ---------------------------------------------------------------- stream --

bool StreamRecorder::Submit(const AuditRequest& request, size_t template_index,
                            Clock::time_point due, bool keep, uint64_t op) {
  Record* record;
  {
    std::lock_guard<std::mutex> lock(mu_);
    record = &records_.emplace_back();
  }
  const auto submitted = Clock::now();
  record->template_index = static_cast<uint16_t>(template_index);
  record->due_us = Offset(due);
  record->submitted_us = Offset(submitted);
  auto ticket = [&] {
    SpanScope span(tracer_, "core/audit_pipeline", "AuditPipeline::Submit", op);
    return pipeline_->Submit(
        request, RequestPriority::kNormal,
        [this, record](const AuditResponse& r) {
          record->done_us = Offset(Clock::now());
          record->ok = r.status.ok();
          record->queue_wait_ms = static_cast<float>(r.queue_wait_ms);
          record->assemble_ms = static_cast<float>(r.assemble_ms);
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++completed_;
          }
          done_cv_.notify_all();
        });
  }();
  record->submit_us = static_cast<float>(UsBetween(submitted, Clock::now()));
  if (!ticket.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++completed_;  // never dispatched; `ok` stays false
    return false;
  }
  if (keep) kept_.emplace_back(template_index, std::move(ticket).value());
  return true;
}

uint32_t StreamRecorder::Offset(Clock::time_point t) const {
  return t <= origin_ ? 0 : static_cast<uint32_t>(UsBetween(origin_, t));
}

void StreamRecorder::WaitOutstandingBelow(size_t limit) {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return records_.size() - completed_ < limit; });
}

size_t StreamRecorder::outstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size() - completed_;
}

double PrepareMs(const AuditRequest& request, uint64_t fingerprint,
                 const CalibrationCache& cache) {
  const auto t0 = Clock::now();
  data::OutcomeDataset view_storage;
  const data::OutcomeDataset* view = request.dataset;
  if (!request.dataset_is_view) {
    view_storage = *BuildMeasureView(*request.dataset, request.options.measure);
    view = &view_storage;
  }
  auto statistic = MakeScanStatistic(request.options, *view);
  SFA_CHECK_OK(statistic.status());
  SFA_CHECK_OK((*statistic)->ValidateOutcomes(view->predicted().data(),
                                              view->size()));
  cache.Lookup(MakeCalibrationKey(*request.family, fingerprint, **statistic,
                                  request.options.monte_carlo));
  return MsBetween(t0, Clock::now());
}

void ReportStream(const std::deque<StreamRecorder::Record>& records,
                  const std::vector<double>& prepare_ms, size_t max_queue_depth,
                  Report* report) {
  std::vector<double> submit_us, wait_ms, assemble_ms, unattributed_us;
  for (const StreamRecorder::Record& r : records) {
    if (!r.ok) continue;
    submit_us.push_back(r.submit_us);
    wait_ms.push_back(r.queue_wait_ms);
    assemble_ms.push_back(r.assemble_ms);
    unattributed_us.push_back(
        (r.LatencyMs() - r.queue_wait_ms - r.assemble_ms -
         prepare_ms[r.template_index]) *
        1e3);
  }
  const size_t n = submit_us.size();
  report->Set("admit.submit_us_p50", Median(submit_us), "us", n);
  report->Set("admit.submit_us_p99", Quantile(submit_us, 0.99), "us", n);
  report->Set("queue.wait_ms_p50", Median(wait_ms), "ms", n);
  report->Set("queue.wait_ms_p99", Quantile(wait_ms, 0.99), "ms", n);
  report->Set("assemble.ms_p50", Median(assemble_ms), "ms", n);
  report->Set("assemble.ms_p99", Quantile(assemble_ms, 0.99), "ms", n);
  report->Set("stream.max_queue_depth", static_cast<double>(max_queue_depth),
              "count", n);
  report->Set("dispatch.unattributed_us", Median(unattributed_us), "us", n);
}

bool ProbeStreaming(const std::vector<AuditRequest>& requests,
                    size_t submissions, Tracer* tracer, Report* report) {
  constexpr size_t kWindow = 8;
  AuditPipeline pipeline;
  auto warm = pipeline.Run(requests);
  SFA_CHECK_OK(warm.status());
  std::vector<double> prepare_ms;
  for (const AuditRequest& req : requests) {
    prepare_ms.push_back(
        PrepareMs(req, FamilyFingerprint(*req.family), pipeline.cache()));
  }
  StreamOptions options;
  options.queue_capacity = 64;
  options.num_workers = 4;
  options.block_when_full = true;
  SFA_CHECK_OK(pipeline.StartStream(options));
  bool ok = true;
  {
    StreamRecorder recorder(&pipeline, tracer);
    for (size_t i = 0; i < submissions; ++i) {
      recorder.WaitOutstandingBelow(kWindow);
      ok &= recorder.Submit(requests[i % requests.size()], i % requests.size(),
                            Clock::now(), false, kProbeOpBase);
    }
    SFA_CHECK_OK(pipeline.FinishStream());
    for (const auto& r : recorder.records()) ok &= r.ok;
    ReportStream(recorder.records(), prepare_ms,
                 pipeline.stream_stats().max_queue_depth, report);
  }
  return ok;
}

// ---------------------------------------------------------------- replay --

std::vector<AuditResult> ReplayRun(
    const std::vector<AuditRequest>& batch, const CalibrationCache* cache,
    const CalibrationStore* store,
    const std::map<const RegionFamily*, uint64_t>* fingerprints,
    Tracer* tracer, uint64_t op) {
  SpanScope root(tracer, "core/audit_pipeline", "replay", op);
  std::map<const RegionFamily*, uint64_t> fp;
  for (const AuditRequest& req : batch) {
    if (fp.count(req.family)) continue;
    if (fingerprints != nullptr) {
      fp[req.family] = fingerprints->at(req.family);
      continue;
    }
    SpanScope span(tracer, "core/calibration_cache",
                   "FamilyFingerprint:" + FamilyShape(*req.family), op);
    fp[req.family] = FamilyFingerprint(*req.family);
  }

  struct Prepared {
    data::OutcomeDataset view_storage;
    const data::OutcomeDataset* view = nullptr;
    std::shared_ptr<const ScanStatistic> statistic;
    CalibrationKey key;
  };
  std::vector<Prepared> preps(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const AuditRequest& req = batch[i];
    Prepared& prep = preps[i];
    prep.view = req.dataset;
    if (!req.dataset_is_view) {
      SpanScope span(tracer, "core/measure", "BuildMeasureView", op);
      prep.view_storage = *BuildMeasureView(*req.dataset, req.options.measure);
      prep.view = &prep.view_storage;
    }
    SpanScope span(tracer, "core/calibration_cache", "KeyBuild", op);
    auto statistic = MakeScanStatistic(req.options, *prep.view);
    SFA_CHECK_OK(statistic.status());
    prep.statistic = std::move(statistic).value();
    SFA_CHECK_OK(prep.statistic->ValidateOutcomes(prep.view->predicted().data(),
                                                  prep.view->size()));
    prep.key = MakeCalibrationKey(*req.family, fp[req.family], *prep.statistic,
                                  req.options.monte_carlo);
  }

  const CalibrationCache empty;
  std::unordered_map<std::string, std::shared_ptr<const NullDistribution>>
      values;
  for (size_t i = 0; i < batch.size(); ++i) {
    const AuditRequest& req = batch[i];
    const Prepared& prep = preps[i];
    if (values.count(prep.key.debug)) continue;
    std::shared_ptr<const NullDistribution> value;
    {
      SpanScope span(tracer, "core/calibration_cache",
                     "CalibrationCache::Lookup", op);
      value = (cache != nullptr ? *cache : empty).Lookup(prep.key);
    }
    if (value == nullptr && store != nullptr) {
      SpanScope span(tracer, "core/calibration_store",
                     "CalibrationStore::LoadView", op);
      auto loaded = store->LoadView(prep.key);
      if (loaded.ok()) {
        value = std::make_shared<const NullDistribution>(std::move(*loaded));
      }
    }
    if (value == nullptr) {
      const std::string kind = CalibrationKind(req);
      const MonteCarloOptions& mc = req.options.monte_carlo;
      std::unique_ptr<StatisticSimulation> simulation;
      {
        SpanScope span(tracer, "core/mc_engine", "MakeSimulation:" + kind, op);
        SFA_CHECK_OK(ValidateMonteCarloOptions(mc));
        SFA_CHECK_OK(prep.statistic->ValidateForFamily(*req.family));
        simulation = prep.statistic->MakeSimulation(*req.family, mc);
      }
      std::vector<double> maxima(mc.num_worlds);
      {
        SpanScope span(tracer, "core/mc_engine", "RunWorldBatch:" + kind, op);
        for (size_t w = 0; w < maxima.size(); w += mc.batch_size) {
          const size_t hi = std::min<size_t>(w + mc.batch_size, maxima.size());
          simulation->RunWorldBatch(w, hi, maxima.data());
        }
      }
      value = std::make_shared<const NullDistribution>(std::move(maxima));
      if (store != nullptr) {
        SpanScope span(tracer, "core/calibration_store",
                       "CalibrationStore::Store", op);
        SFA_CHECK_OK(store->Store(prep.key, *value));
      }
    }
    values[prep.key.debug] = std::move(value);
  }

  std::vector<AuditResult> results;
  AuditScratch scratch;
  for (size_t i = 0; i < batch.size(); ++i) {
    const AuditRequest& req = batch[i];
    const Prepared& prep = preps[i];
    SpanScope span(tracer, "core/audit",
                   "AuditView:" + FamilyShape(*req.family), op);
    auto result = Auditor(req.options)
                      .AuditView(*prep.view, *req.family, prep.statistic.get(),
                                 values.at(prep.key.debug).get(), &scratch);
    SFA_CHECK_OK(result.status());
    results.push_back(std::move(result).value());
  }
  return results;
}

void ReportOpBreakdown(const std::vector<Span>& spans, uint64_t first_op,
                       uint64_t last_op, Report* report) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, double> self_us = {
      {"spatial", 0.0},  {"mc_engine", 0.0},         {"calibration_cache", 0.0},
      {"measure", 0.0},  {"calibration_store", 0.0}, {"audit", 0.0},
      {"unattributed", 0.0}};
  double total_us = 0.0;
  std::set<uint64_t> ops;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.op < first_op || s.op > last_op) continue;
    ops.insert(s.op);
    const double self = s.end_us - s.start_us - child_us[i];
    if (s.parent < 0) total_us += s.end_us - s.start_us;
    if (s.name == "replay") {
      self_us["unattributed"] += self;
      continue;
    }
    const std::string layer = s.layer.substr(s.layer.find('/') + 1);
    const std::string prefix = "RunWorldBatch:";
    if (s.name.rfind(prefix, 0) == 0) {
      const double share =
          report->Get("count.share." + s.name.substr(prefix.size()));
      self_us["spatial"] += self * share;
      self_us["mc_engine"] += self * (1.0 - share);
      continue;
    }
    self_us[layer] += self;
  }
  for (const auto& [layer, us] : self_us) {
    report->Set("op.share." + layer, total_us > 0 ? us / total_us : 0.0,
                "share", ops.size());
  }
  report->Set("op.unattributed_ms",
              ops.empty() ? 0.0 : self_us["unattributed"] / 1e3 / ops.size(),
              "ms", ops.size());
}

}  // namespace sfabench
