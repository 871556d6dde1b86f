// The sfa end-to-end benchmark: shared inputs, timing, tracing and
// reporting for the three workloads (cold_calibrate, warm_serve,
// restart_store). Every workload drives the library only through its public
// API; the span tracer and the per-layer probes live here, in the
// benchmark's own files, around the calls into each layer.
#ifndef SFABENCH_BENCH_H_
#define SFABENCH_BENCH_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/audit.h"
#include "core/audit_pipeline.h"
#include "core/calibration_store.h"
#include "core/region_family.h"
#include "data/dataset.h"

namespace sfabench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Sizes shared by every workload: the paper-scale audit of N individuals
/// calibrated with W null worlds (the library default).
inline constexpr size_t kCityPoints = 8192;
inline constexpr uint32_t kNumWorlds = 999;
/// Classes of the multinomial audits.
inline constexpr uint32_t kNumClasses = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout; the run works in a per-process
  /// subdirectory of it (store directories) and removes that at exit.
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string trace_path;
};

// ------------------------------------------------------------ statistics --

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// num / den, 0 when den is 0.
inline double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// CPU time this process has used, all threads, in milliseconds. The host
/// kernel accounts stolen time apart, so unlike wall time it does not grow
/// when the hypervisor runs other guests.
double ProcessCpuMs();

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

// ---------------------------------------------------------------- report --

/// Every number a run measures, by name, with its unit and sample count.
/// Print() writes one human-readable line per metric and then, as the last
/// line of stdout, the JSON result restricted to the metrics BENCHMARK.json
/// declares for this mode (end-to-end untraced, per-layer traced).
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples);
  void Note(const std::string& line) { notes_.push_back(line); }
  /// The value of `name`, 0 when unset.
  double Get(const std::string& name) const;

  /// Prints and returns false when a declared metric was never set.
  bool Print(bool trace, bool correct, uint64_t attempted,
             uint64_t failed) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    size_t samples = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
};

/// Sets the metrics of a closed loop from its ops' wall and process CPU
/// times: `<prefix>_audits_per_s`, `<prefix>_round_ms_p50/p90` and the
/// gated cpu_ms_per_audit (median op).
void ReportClosedLoop(const std::vector<double>& op_ms,
                      const std::vector<double>& op_cpu_ms,
                      size_t audits_per_op, const std::string& prefix,
                      Report* report);

/// The metric names BENCHMARK.json declares.
const std::vector<std::string>& EndToEndMetricNames();
const std::vector<std::string>& PerLayerMetricNames();

// ----------------------------------------------------------------- trace --

/// One timed call: the module that owns it, the call, its interval in
/// microseconds since the tracer started, the enclosing span on the same
/// thread (-1 for roots) and the op it belongs to.
struct Span {
  std::string layer;
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int64_t parent = -1;
  uint64_t op = 0;
};

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per scope. Thread-safe; parents are tracked per thread.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  bool enabled() const { return enabled_; }

  int64_t Open(const char* layer, std::string name, uint64_t op);
  void Close(int64_t id);

  /// Copy of every span recorded so far (ids are indices).
  std::vector<Span> Snapshot() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class SpanScope {
 public:
  /// `tracer` may be null (nothing recorded).
  SpanScope(Tracer* tracer, const char* layer, std::string name, uint64_t op)
      : tracer_(tracer),
        id_(tracer != nullptr && tracer->enabled()
                ? tracer->Open(layer, std::move(name), op)
                : -1) {}
  ~SpanScope() {
    if (id_ >= 0) tracer_->Close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Durations (us) of every span called `name`.
std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  const std::string& name);

// ---------------------------------------------------------------- inputs --

/// One synthetic city: N individuals with a planted unfair zone. `binary`
/// carries a 0/1 prediction and a 0/1 ground truth (so equal-opportunity
/// views exist); `classes` has the same locations with a K=3 class outcome.
struct City {
  sfa::data::OutcomeDataset binary;
  sfa::data::OutcomeDataset classes;
};
City MakeCity(uint64_t seed, size_t n);

/// The three bundled family shapes of the mix. Squares and kNN circles share
/// k-means centers.
std::unique_ptr<sfa::core::RegionFamily> MakeGrid(
    const std::vector<sfa::geo::Point>& points, uint32_t gx, uint32_t gy);
std::vector<sfa::geo::Point> KMeansCenters(
    const std::vector<sfa::geo::Point>& points, uint32_t k, uint64_t seed);
std::unique_ptr<sfa::core::RegionFamily> MakeSquares(
    const std::vector<sfa::geo::Point>& points,
    const std::vector<sfa::geo::Point>& centers, uint32_t num_sides);
std::unique_ptr<sfa::core::RegionFamily> MakeKnn(
    const std::vector<sfa::geo::Point>& points,
    const std::vector<sfa::geo::Point>& centers);

/// An audit request over `dataset` (a measure view unless `measure` asks
/// the pipeline to build one), at W = kNumWorlds.
sfa::core::AuditRequest MakeRequest(
    std::string id, const sfa::data::OutcomeDataset* dataset,
    const sfa::core::RegionFamily* family, double alpha, uint64_t seed,
    sfa::core::StatisticKind statistic = sfa::core::StatisticKind::kBernoulli,
    sfa::core::NullModel null_model = sfa::core::NullModel::kBernoulli,
    sfa::core::FairnessMeasure measure =
        sfa::core::FairnessMeasure::kStatisticalParity);

/// Directory bytes of calibration frames (`*.nulldist`) under `dir`.
uint64_t FrameBytes(const std::string& dir);

/// "grid", "squares" or "knn", from the family's public type.
std::string FamilyShape(const sfa::core::RegionFamily& family);

// -------------------------------------------------------- layer probes --

/// The inputs a workload hands to the per-layer probes: one family of each
/// bundled shape with the binary view (which also carries ground truth, for
/// the equal-opportunity view build) and the K-class view bound to it, and
/// the workload's own requests.
struct LayerInputs {
  const sfa::data::OutcomeDataset* binary_view = nullptr;
  const sfa::data::OutcomeDataset* class_view = nullptr;
  const sfa::core::RegionFamily* grid = nullptr;
  const sfa::core::RegionFamily* squares = nullptr;
  const sfa::core::RegionFamily* knn = nullptr;
  std::vector<sfa::core::AuditRequest> requests;
};

/// Times each layer on the workload's inputs, outside the pipeline:
/// counting on worlds the probe draws itself, the world engine, keying, the
/// observed scan and evidence, and (unless `skip_store`) the store on the
/// probe's own calibrations. Sets the count.*, mc.*, key.*, view.*,
/// cache.lookup_us, scan.*, assemble.us.*, evidence.* and store.* metrics.
void RunLayerProbes(const LayerInputs& inputs, const Args& args, uint64_t seed,
                    bool skip_store, Tracer* tracer, Report* report);

/// Submits requests to a streaming session and records, per request, when
/// it was due, how long Submit() took and when it completed. Completion
/// times are stamped in the pipeline's callback on the worker thread.
class StreamRecorder {
 public:
  /// Times are microseconds since the recorder was made, kept narrow so
  /// the benchmark's own bookkeeping stays a small part of peak memory.
  struct Record {
    uint32_t due_us = 0;
    uint32_t submitted_us = 0;
    uint32_t done_us = 0;
    float submit_us = 0.0f;  ///< time inside Submit()
    float queue_wait_ms = 0.0f;
    float assemble_ms = 0.0f;
    uint16_t template_index = 0;
    bool ok = false;

    double LatencyMs() const { return (done_us - submitted_us) / 1e3; }
  };

  StreamRecorder(sfa::core::AuditPipeline* pipeline, Tracer* tracer)
      : pipeline_(pipeline), tracer_(tracer), origin_(Clock::now()) {}
  StreamRecorder(const StreamRecorder&) = delete;
  StreamRecorder& operator=(const StreamRecorder&) = delete;

  /// Submits `request` (template `template_index`, due at `due`). Keeps the
  /// ticket for a later payload check when `keep`. Returns false when the
  /// submission itself failed.
  bool Submit(const sfa::core::AuditRequest& request, size_t template_index,
              Clock::time_point due, bool keep, uint64_t op);
  /// Microseconds from the recorder's start to `t` (0 before it).
  uint32_t Offset(Clock::time_point t) const;
  /// Blocks until fewer than `limit` submitted requests are unfinished.
  void WaitOutstandingBelow(size_t limit);
  size_t outstanding() const;

  /// Valid once the session is finished (its workers joined).
  const std::deque<Record>& records() const { return records_; }
  const std::vector<std::pair<size_t, std::shared_ptr<sfa::core::AuditTicket>>>&
  kept() const {
    return kept_;
  }

 private:
  sfa::core::AuditPipeline* pipeline_;
  Tracer* tracer_;
  const Clock::time_point origin_;
  std::deque<Record> records_;  // stable addresses across push_back
  std::vector<std::pair<size_t, std::shared_ptr<sfa::core::AuditTicket>>> kept_;
  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  size_t completed_ = 0;
};

/// Time (ms) of the prepare stage a stream worker runs before assembly:
/// measure view, statistic, outcome check, key and cache lookup.
double PrepareMs(const sfa::core::AuditRequest& request, uint64_t fingerprint,
                 const sfa::core::CalibrationCache& cache);

/// Sets the admit.*, queue.*, assemble.ms_*, stream.max_queue_depth and
/// dispatch.unattributed_us metrics from finished stream records; latency
/// runs from the submit call, and `prepare_ms[template]` is the prepare
/// stage subtracted with the reported stages from it.
void ReportStream(const std::deque<StreamRecorder::Record>& records,
                  const std::vector<double>& prepare_ms,
                  size_t max_queue_depth, Report* report);

/// Streams `requests` (calibrations warmed first) through a fresh pipeline
/// with a bounded window of outstanding tickets and reports the admission
/// and dispatch metrics — the probe for workloads whose ops enter through
/// Run. Returns false when a response failed.
bool ProbeStreaming(const std::vector<sfa::core::AuditRequest>& requests,
                    size_t submissions, Tracer* tracer, Report* report);

/// Sets op.share.<layer> (self time of each layer over the replayed ops'
/// span trees, as a share of the replayed op time) and op.unattributed_ms
/// (mean replayed op time no named layer covers). Counting runs inside
/// RunWorldBatch, so its part of each RunWorldBatch span is derived from
/// the probe's count.share.<kind> (already in `report`).
void ReportOpBreakdown(const std::vector<Span>& spans, uint64_t first_op,
                       uint64_t last_op, Report* report);

/// Replays one batch Run through the public calls the pipeline makes —
/// fingerprint once per family, view + statistic + key per request, cache
/// lookup, store LoadView or simulation (MakeSimulation + RunWorldBatch)
/// per unique key, then AuditView per request — each under a span of op
/// `op`, serially. `cache` (looked up first), `store` and `fingerprints` (a
/// session memo, as streaming keeps) may be null. Returns the results.
std::vector<sfa::core::AuditResult> ReplayRun(
    const std::vector<sfa::core::AuditRequest>& batch,
    const sfa::core::CalibrationCache* cache,
    const sfa::core::CalibrationStore* store,
    const std::map<const sfa::core::RegionFamily*, uint64_t>* fingerprints,
    Tracer* tracer, uint64_t op);

/// Op ids of the replayed ops and of the probes, apart from the real ops'.
inline constexpr uint64_t kReplayOpBase = 1ULL << 32;
inline constexpr uint64_t kProbeOpBase = 1ULL << 40;

// -------------------------------------------------------------- workloads --

/// Outcome of one workload run.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

Outcome RunColdCalibrate(const Args& args, Tracer* tracer, Report* report);
Outcome RunWarmServe(const Args& args, Tracer* tracer, Report* report);
Outcome RunRestartStore(const Args& args, Tracer* tracer, Report* report);

/// Setups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// Runs `setup` kSetupRepeats times and returns the state the last one
/// built (earlier ones are freed first, so peak memory holds one state).
/// setup_s is the median process CPU time of a setup — the work it does,
/// which a change moving work into set-up increases — and setup_wall_s its
/// median wall time, which CPU steal on a shared host inflates by up to 2x.
template <typename Setup>
auto RepeatSetup(const Setup& setup, Report* report) -> decltype(setup()) {
  std::vector<double> cpu_s, wall_s;
  decltype(setup()) state;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state.reset();
    const double cpu0 = ProcessCpuMs();
    const auto t0 = Clock::now();
    state = setup();
    wall_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
    cpu_s.push_back((ProcessCpuMs() - cpu0) / 1e3);
  }
  report->Set("setup_s", Median(cpu_s), "s", cpu_s.size());
  report->Set("setup_wall_s", Median(wall_s), "s", wall_s.size());
  return state;
}

}  // namespace sfabench

#endif  // SFABENCH_BENCH_H_
