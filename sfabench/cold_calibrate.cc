// cold_calibrate: a closed loop of one client. Each op is a round — Run() on
// one batch of five distinct cold audits with the calibration cache cleared
// first and no store — so null sampling, counting and the LLR max do almost
// all the work, across every counting path: sparse annulus (squares, kNN),
// grid cell scatter (permutation null), closed-form cells (Bernoulli grid)
// and K-class counting (multinomial squares). Admission and the store do
// none.
#include "bench.h"
#include "common/macros.h"

namespace sfabench {

using namespace sfa;
using namespace sfa::core;

namespace {

constexpr size_t kAuditsPerRound = 5;

struct ColdState {
  City city;
  std::unique_ptr<RegionFamily> grid, squares, knn;
  std::vector<AuditRequest> batch;
  /// Each audit computed directly through Auditor, outside the pipeline.
  std::vector<AuditResult> reference;
};

std::unique_ptr<ColdState> Setup(uint64_t seed) {
  auto s = std::make_unique<ColdState>();
  s->city = MakeCity(seed, kCityPoints);
  const auto& points = s->city.binary.locations();
  const auto centers = KMeansCenters(points, 100, seed);
  s->squares = MakeSquares(points, centers, 20);
  s->knn = MakeKnn(points, centers);
  s->grid = MakeGrid(points, 100, 50);
  const uint64_t mc = seed * 16;
  s->batch = {
      MakeRequest("squares", &s->city.binary, s->squares.get(), 0.005, mc),
      MakeRequest("knn", &s->city.binary, s->knn.get(), 0.005, mc + 1),
      MakeRequest("grid", &s->city.binary, s->grid.get(), 0.005, mc + 2),
      MakeRequest("grid_perm", &s->city.binary, s->grid.get(), 0.005, mc + 3,
                  StatisticKind::kBernoulli, NullModel::kPermutation),
      MakeRequest("squares_k3", &s->city.classes, s->squares.get(), 0.005,
                  mc + 4, StatisticKind::kMultinomial)};
  for (const AuditRequest& req : s->batch) {
    auto result = Auditor(req.options).AuditView(*req.dataset, *req.family);
    SFA_CHECK_OK(result.status());
    s->reference.push_back(std::move(result).value());
  }
  return s;
}

}  // namespace

Outcome RunColdCalibrate(const Args& args, Tracer* tracer, Report* report) {
  const auto s = RepeatSetup([&] { return Setup(args.seed); }, report);
  for (const auto* f : {s->grid.get(), s->squares.get(), s->knn.get()}) {
    report->Note("family " + FamilyShape(*f) + ": " + f->Name());
  }

  Outcome out;
  AuditPipeline pipeline;
  PipelineManifest manifest;
  // Untraced rounds first; a traced run then spends the second half on
  // traced rounds, each followed by its serial replay.
  std::vector<double> round_ms[2];
  std::vector<double> round_cpu_ms;
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  uint64_t round = 0;
  for (int traced = 0; traced <= (args.trace ? 1 : 0); ++traced) {
    const auto phase_start = Clock::now();
    while (MsBetween(phase_start, Clock::now()) < phase_s * 1e3) {
      const double cpu0 = ProcessCpuMs();
      const auto t0 = Clock::now();
      Result<std::vector<AuditResponse>> responses = [&] {
        SpanScope span(traced ? tracer : nullptr, "core/audit_pipeline",
                       "AuditPipeline::Run", round);
        pipeline.cache().Clear();
        return pipeline.Run(s->batch, &manifest);
      }();
      const double ms = MsBetween(t0, Clock::now());
      const double cpu_ms = ProcessCpuMs() - cpu0;
      SFA_CHECK_OK(responses.status());
      out.attempted += kAuditsPerRound;
      bool round_ok = manifest.calibrations_computed == kAuditsPerRound;
      for (size_t i = 0; i < kAuditsPerRound; ++i) {
        const AuditResponse& r = (*responses)[i];
        const bool ok =
            r.status.ok() && ResultsBitIdentical(r.result, s->reference[i]);
        if (!ok) ++out.failed;
        round_ok &= ok;
      }
      if (round_ok) {
        round_ms[traced].push_back(ms);
        if (!traced) round_cpu_ms.push_back(cpu_ms);
      }
      if (traced) {
        const auto replayed = ReplayRun(s->batch, nullptr, nullptr, nullptr,
                                        tracer, kReplayOpBase + round);
        for (size_t i = 0; i < kAuditsPerRound; ++i) {
          if (!ResultsBitIdentical(replayed[i], s->reference[i])) ++out.failed;
        }
      }
      ++round;
    }
    if (!traced) {
      ReportClosedLoop(round_ms[0], round_cpu_ms, kAuditsPerRound, "cold",
                       report);
    }
  }

  if (args.trace) {
    const CalibrationCache::Stats stats = pipeline.cache().stats();
    report->Set("cache.hit_ratio", Ratio(stats.hits, stats.hits + stats.misses),
                "share", stats.hits + stats.misses);
    report->Set("trace.overhead_ms_p50",
                Median(round_ms[1]) - Median(round_ms[0]), "ms",
                round_ms[1].size());
    LayerInputs inputs{&s->city.binary, &s->city.classes, s->grid.get(),
                       s->squares.get(), s->knn.get(),    s->batch};
    RunLayerProbes(inputs, args, args.seed, /*skip_store=*/false, tracer,
                   report);
    if (!ProbeStreaming(s->batch, 200, tracer, report)) ++out.failed;
    ReportOpBreakdown(tracer->Snapshot(), kReplayOpBase,
                      kReplayOpBase + round, report);
  }
  out.correct = out.failed == 0;
  return out;
}

}  // namespace sfabench
