// warm_serve: streaming Submit() with every calibration pre-warmed in memory
// during setup. A Zipf-skewed (s = 1.07) stream over 64 templates — two
// cities, statistical parity and equal opportunity (whose view the pipeline
// builds per request), grid / squares / kNN families, Bernoulli and
// multinomial, an 8-level alpha sweep — maps onto 8 calibrations, so
// preparing keys, the observed scan, evidence and admission/dispatch do all
// the work and the world engine does none. Two phases: an open loop at one
// fixed offered rate (latency from each request's due time), then a
// saturated phase in which one generator thread keeps a bounded window of
// outstanding tickets.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/macros.h"
#include "common/random.h"
#include "core/calibration_cache.h"
#include "core/measure.h"

namespace sfabench {

using namespace sfa;
using namespace sfa::core;

namespace {

/// Offered rate of the open-loop phase: about half the saturated throughput
/// (~17k requests/s) measured with kStreamWorkers on a 4-vCPU Xeon VM with
/// AVX-512 popcount, so the phase measures latency below saturation.
/// Three workers leave one vCPU to the spinning generator.
constexpr double kOfferedRate = 8000.0;
constexpr double kZipfExponent = 1.07;
constexpr size_t kNumCalibrations = 8;
constexpr double kAlphas[] = {0.1,   0.05,  0.02,  0.01,
                              0.005, 0.002, 0.001, 0.0005};
constexpr size_t kNumTemplates = kNumCalibrations * std::size(kAlphas);
constexpr size_t kStreamWorkers = 3;
constexpr size_t kSaturatedWindow = 64;
/// Every kCheckEvery-th request's payload, up to kMaxChecked per phase, is
/// compared with the reference (a fixed sample: kept tickets hold their
/// results, so an unbounded sample would make memory track throughput).
constexpr size_t kCheckEvery = 16;
constexpr size_t kMaxChecked = 256;

struct WarmState {
  City a, b;
  data::OutcomeDataset a_eo, b_eo;  // views the EO families are bound to
  std::vector<std::unique_ptr<RegionFamily>> families;
  std::vector<AuditRequest> templates;
  /// The pre-warming batch Run's payloads.
  std::vector<AuditResult> reference;
  std::unique_ptr<AuditPipeline> pipeline;
  std::vector<double> zipf_cdf;  // by rank; rank r serves template r
};

const RegionFamily* Own(WarmState* s, std::unique_ptr<RegionFamily> family) {
  s->families.push_back(std::move(family));
  return s->families.back().get();
}

std::unique_ptr<WarmState> Setup(uint64_t seed) {
  auto s = std::make_unique<WarmState>();
  s->a = MakeCity(seed, kCityPoints);
  s->b = MakeCity(seed + 1, kCityPoints);
  s->a_eo = *BuildMeasureView(s->a.binary, FairnessMeasure::kEqualOpportunity);
  s->b_eo = *BuildMeasureView(s->b.binary, FairnessMeasure::kEqualOpportunity);
  const auto& pa = s->a.binary.locations();
  const auto& pb = s->b.binary.locations();
  const auto centers_a = KMeansCenters(pa, 100, seed);
  const auto centers_b = KMeansCenters(pb, 100, seed + 1);
  const RegionFamily* grid_a = Own(s.get(), MakeGrid(pa, 50, 25));
  const RegionFamily* squares_a = Own(s.get(), MakeSquares(pa, centers_a, 20));
  const RegionFamily* knn_a = Own(s.get(), MakeKnn(pa, centers_a));
  const RegionFamily* grid_a_eo =
      Own(s.get(), MakeGrid(s->a_eo.locations(), 32, 16));
  const RegionFamily* grid_b = Own(s.get(), MakeGrid(pb, 50, 25));
  const RegionFamily* squares_b = Own(s.get(), MakeSquares(pb, centers_b, 20));
  const RegionFamily* grid_b_eo =
      Own(s.get(), MakeGrid(s->b_eo.locations(), 32, 16));

  const auto eo = FairnessMeasure::kEqualOpportunity;
  const auto bern = StatisticKind::kBernoulli;
  const auto bnull = NullModel::kBernoulli;
  const uint64_t mc = seed * 16;
  for (size_t i = 0; i < std::size(kAlphas); ++i) {
    const double alpha = kAlphas[i];
    std::string at = "@";
    at += std::to_string(alpha);
    // Template t = i * 8 + c: the hottest ranks cover every calibration.
    s->templates.push_back(
        MakeRequest("a-grid" + at, &s->a.binary, grid_a, alpha, mc));
    s->templates.push_back(
        MakeRequest("a-squares" + at, &s->a.binary, squares_a, alpha, mc + 1));
    s->templates.push_back(
        MakeRequest("a-knn" + at, &s->a.binary, knn_a, alpha, mc + 2));
    s->templates.push_back(MakeRequest("a-eo-grid" + at, &s->a.binary,
                                       grid_a_eo, alpha, mc + 3, bern, bnull,
                                       eo));
    s->templates.push_back(
        MakeRequest("b-grid" + at, &s->b.binary, grid_b, alpha, mc + 4));
    s->templates.push_back(
        MakeRequest("b-squares" + at, &s->b.binary, squares_b, alpha, mc + 5));
    s->templates.push_back(MakeRequest("b-eo-grid" + at, &s->b.binary,
                                       grid_b_eo, alpha, mc + 6, bern, bnull,
                                       eo));
    s->templates.push_back(MakeRequest("a-k3-grid" + at, &s->a.classes,
                                       grid_a, alpha, mc + 7,
                                       StatisticKind::kMultinomial));
  }
  SFA_CHECK(s->templates.size() == kNumTemplates);

  s->pipeline = std::make_unique<AuditPipeline>();
  PipelineManifest manifest;
  auto responses = s->pipeline->Run(s->templates, &manifest);
  SFA_CHECK_OK(responses.status());
  SFA_CHECK(manifest.calibrations_computed == kNumCalibrations);
  for (AuditResponse& r : *responses) {
    SFA_CHECK_OK(r.status);
    s->reference.push_back(std::move(r.result));
  }

  double total = 0.0;
  for (size_t r = 0; r < kNumTemplates; ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    s->zipf_cdf.push_back(total);
  }
  for (double& c : s->zipf_cdf) c /= total;
  return s;
}

bool IsChecked(uint64_t request) {
  return request % kCheckEvery == 0 && request / kCheckEvery < kMaxChecked;
}

size_t SampleTemplate(const std::vector<double>& cdf, Rng* rng) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), rng->NextDouble());
  return std::min<size_t>(it - cdf.begin(), cdf.size() - 1);
}

/// Counts failed responses and payload mismatches of the kept tickets.
void CheckPhase(const StreamRecorder& recorder, const WarmState& s,
                Outcome* out) {
  for (const auto& r : recorder.records()) {
    ++out->attempted;
    if (!r.ok) ++out->failed;
  }
  for (const auto& [t, ticket] : recorder.kept()) {
    const AuditResponse& response = ticket->Get();
    if (response.status.ok() &&
        !ResultsBitIdentical(response.result, s.reference[t])) {
      ++out->failed;
    }
  }
}

struct OpenLoopResult {
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;
  size_t backlog_end = 0;
  bool valid = true;
};

OpenLoopResult RunOpenLoop(WarmState* s, double seconds, uint64_t seed,
                           Tracer* tracer, Outcome* out) {
  StreamOptions options;
  options.queue_capacity = 4096;
  options.num_workers = kStreamWorkers;
  options.block_when_full = true;
  SFA_CHECK_OK(s->pipeline->StartStream(options));
  OpenLoopResult result;
  std::vector<double> outstanding;  // sampled every 64 submissions
  {
    StreamRecorder recorder(s->pipeline.get(), tracer);
    Rng rng(seed);
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    auto due = start;
    for (uint64_t i = 0;; ++i) {
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(rng.Exponential(kOfferedRate)));
      if (due >= end) break;
      // Spin: a sleeping generator wakes late by milliseconds on a
      // virtualized host, which would be charged to the system.
      while (Clock::now() < due) std::this_thread::yield();
      const size_t t = SampleTemplate(s->zipf_cdf, &rng);
      recorder.Submit(s->templates[t], t, due, IsChecked(i), i);
      if (i % 64 == 0) {
        outstanding.push_back(static_cast<double>(recorder.outstanding()));
      }
    }
    std::this_thread::sleep_until(end);
    result.backlog_end = recorder.outstanding();
    SFA_CHECK_OK(s->pipeline->FinishStream());
    CheckPhase(recorder, *s, out);
    for (const auto& r : recorder.records()) {
      result.lateness_ms.push_back((r.submitted_us - r.due_us) / 1e3);
      if (r.ok) result.latency_ms.push_back((r.done_us - r.due_us) / 1e3);
    }
  }
  // Invalid when the generator fell behind its schedule or the backlog
  // grew over the phase (the rate was above what the system sustains).
  const size_t q = outstanding.size() / 4;
  double first = 0.0, last = 0.0;
  for (size_t i = 0; i < q; ++i) {
    first += outstanding[i];
    last += outstanding[outstanding.size() - 1 - i];
  }
  const bool growing = q > 0 && last / q > 2.0 * first / q + 8.0;
  result.valid = !growing && Quantile(result.lateness_ms, 0.99) < 5.0 &&
                 result.backlog_end <= kSaturatedWindow;
  return result;
}

/// Stream metrics of the traced saturated phase, and a serial replay of
/// each payload-checked request (its calibration served from the warm
/// cache, its fingerprint from a memo as the stream session keeps one).
void TraceSaturatedPhase(const WarmState& s, const StreamRecorder& recorder,
                         Tracer* tracer, Report* report, Outcome* out) {
  const CalibrationCache& cache = s.pipeline->cache();
  const CalibrationCache::Stats stats = cache.stats();
  report->Set("cache.hit_ratio", Ratio(stats.hits, stats.hits + stats.misses),
              "share", stats.hits + stats.misses);
  std::map<const RegionFamily*, uint64_t> fingerprints;
  for (const auto& family : s.families) {
    fingerprints[family.get()] = FamilyFingerprint(*family);
  }
  std::vector<double> prepare_ms;
  for (const AuditRequest& req : s.templates) {
    std::vector<double> reps;
    for (int i = 0; i < 3; ++i) {
      reps.push_back(PrepareMs(req, fingerprints.at(req.family), cache));
    }
    prepare_ms.push_back(Median(reps));
  }
  ReportStream(recorder.records(), prepare_ms,
               s.pipeline->stream_stats().max_queue_depth, report);
  uint64_t op = kReplayOpBase;
  for (const auto& [tmpl, ticket] : recorder.kept()) {
    const auto replayed = ReplayRun({s.templates[tmpl]}, &cache, nullptr,
                                    &fingerprints, tracer, op++);
    if (!ResultsBitIdentical(replayed[0], s.reference[tmpl])) ++out->failed;
  }
}

struct SaturatedResult {
  double requests_per_s = 0.0;
  std::vector<double> latency_ms;   ///< submit to completion
  double cpu_ms_per_request = 0.0;  ///< process CPU time over the phase
};

/// Runs the saturated phase. With a tracer, also reports the traced
/// phase's stream metrics and replays its checked requests.
SaturatedResult RunSaturated(WarmState* s, double seconds, uint64_t seed,
                             Tracer* tracer, Report* report, Outcome* out) {
  StreamOptions options;
  options.queue_capacity = 2 * kSaturatedWindow;
  options.num_workers = kStreamWorkers;
  options.block_when_full = true;
  SFA_CHECK_OK(s->pipeline->StartStream(options));
  StreamRecorder recorder(s->pipeline.get(), tracer);
  Rng rng(seed);
  const double cpu0 = ProcessCpuMs();
  const auto start = Clock::now();
  for (uint64_t i = 0; MsBetween(start, Clock::now()) < seconds * 1e3; ++i) {
    // Refill the window in bursts: waking the generator on every completion
    // would charge a context switch per request to the measured CPU time.
    if (recorder.outstanding() >= kSaturatedWindow) {
      recorder.WaitOutstandingBelow(kSaturatedWindow / 2);
    }
    const size_t t = SampleTemplate(s->zipf_cdf, &rng);
    recorder.Submit(s->templates[t], t, Clock::now(), IsChecked(i), i);
  }
  SFA_CHECK_OK(s->pipeline->FinishStream());
  const double cpu_ms = ProcessCpuMs() - cpu0;
  CheckPhase(recorder, *s, out);
  SaturatedResult result;
  uint32_t last_done_us = 0;
  for (const auto& r : recorder.records()) {
    if (!r.ok) continue;
    result.latency_ms.push_back(r.LatencyMs());
    last_done_us = std::max(last_done_us, r.done_us);
  }
  const double n = static_cast<double>(result.latency_ms.size());
  result.requests_per_s = last_done_us > 0 ? n / (last_done_us / 1e6) : 0.0;
  result.cpu_ms_per_request = n > 0 ? cpu_ms / n : 0.0;
  if (tracer != nullptr) {
    TraceSaturatedPhase(*s, recorder, tracer, report, out);
  }
  return result;
}

}  // namespace

Outcome RunWarmServe(const Args& args, Tracer* tracer, Report* report) {
  const auto s = RepeatSetup([&] { return Setup(args.seed); }, report);
  for (size_t f = 0; f < 3; ++f) {
    report->Note("family " + FamilyShape(*s->families[f]) + ": " +
                 s->families[f]->Name());
  }
  report->Note("open_loop offered_rate=" + std::to_string(kOfferedRate) +
               "/s workers=" + std::to_string(kStreamWorkers) +
               " saturated_window=" + std::to_string(kSaturatedWindow));

  Outcome out;
  // Each phase gets half the time; a traced run halves both again and runs
  // the traced pair after the untraced one.
  const double phase_s = args.seconds / (args.trace ? 4 : 2);
  OpenLoopResult open[2];
  for (int traced = 0; traced <= (args.trace ? 1 : 0); ++traced) {
    Tracer* t = traced ? tracer : nullptr;
    open[traced] = RunOpenLoop(s.get(), phase_s, args.seed * 2 + traced, t,
                               &out);
    const SaturatedResult saturated =
        RunSaturated(s.get(), phase_s, args.seed * 2 + traced + 100, t,
                     report, &out);
    const OpenLoopResult& o = open[traced];
    const std::string phase = traced ? "traced " : "";
    report->Note(phase + "open_loop valid=" + (o.valid ? "true" : "false") +
                 " backlog_end=" + std::to_string(o.backlog_end) +
                 " requests=" + std::to_string(o.lateness_ms.size()));
    if (!o.valid) {
      std::fprintf(stderr, "warning: %sopen-loop phase invalid: backlog grew "
                   "or the generator fell behind\n", phase.c_str());
    }
    if (!traced) {
      const auto& sat = saturated.latency_ms;
      report->Set("serve_rps", saturated.requests_per_s, "1/s", sat.size());
      report->Set("serve_saturated_lat_ms_p50", Median(sat), "ms", sat.size());
      report->Set("serve_saturated_lat_ms_p90", Quantile(sat, 0.9), "ms",
                  sat.size());
      report->Set("cpu_ms_per_audit", saturated.cpu_ms_per_request, "ms",
                  sat.size());
      const auto& lat = o.latency_ms;
      report->Set("serve_lat_ms_p50", Median(lat), "ms", lat.size());
      report->Set("serve_lat_ms_p99", Quantile(lat, 0.99), "ms", lat.size());
      report->Set("generator_lateness_ms_p50", Median(o.lateness_ms), "ms",
                  o.lateness_ms.size());
      report->Set("generator_lateness_ms_p99", Quantile(o.lateness_ms, 0.99),
                  "ms", o.lateness_ms.size());
      report->Set("open_loop_backlog_end", static_cast<double>(o.backlog_end),
                  "count", 1);
    }
  }

  if (args.trace) {
    report->Set("trace.overhead_ms_p50",
                Median(open[1].latency_ms) - Median(open[0].latency_ms), "ms",
                open[1].latency_ms.size());
    LayerInputs inputs{&s->a.binary,         &s->a.classes,
                       s->families[0].get(), s->families[1].get(),
                       s->families[2].get(), s->templates};
    RunLayerProbes(inputs, args, args.seed, /*skip_store=*/false, tracer,
                   report);
    ReportOpBreakdown(tracer->Snapshot(), kReplayOpBase,
                      kReplayOpBase + (1ULL << 31), report);
  }
  out.correct = out.failed == 0;
  return out;
}

}  // namespace sfabench
