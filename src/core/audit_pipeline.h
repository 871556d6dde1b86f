// Concurrent multi-audit pipeline: many (dataset × measure × family ×
// null-model × α) audit requests executed on the shared common::ThreadPool,
// with null calibrations deduplicated through a core::CalibrationCache —
// either as one batch (Run) or as a streaming service (Submit) that yields
// each AuditResponse the moment its request finishes.
//
// Execution model — two-level parallelism on one fixed-width pool:
//
//   across requests    view construction and observed-world scans run as
//                      pool tasks (batch mode) or on dedicated stream
//                      workers (streaming mode), one per request;
//   within a request   each *unique* null calibration runs the batched
//                      Monte Carlo world engine, whose ParallelFor fans
//                      world batches onto the same pool (the pool's helping
//                      WaitGroup makes the nesting deadlock-free and never
//                      oversubscribes — see common/thread_pool.h).
//
// Streaming mode adds an admission layer in front of the workers: a bounded
// queue with priority classes (common::BoundedPriorityQueue). When the queue
// is at capacity the configured backpressure policy applies — reject (Submit
// fails with ResourceExhausted, load shedding) or block (Submit waits for a
// slot). Queue depth at admission and time spent queued are reported on the
// response; rejected submissions never consume simulation work.
//
// The determinism contract, and the headline guarantee of this layer: for a
// fixed set of requests (including their seeds), the statistical payload of
// every AuditResponse — the entire AuditResult — is byte-identical
// regardless of request order, batch vs. streaming submission, priorities
// and queue capacity, PipelineOptions::parallel, thread count, and whether
// calibrations were computed fresh, served from a warm in-memory cache, or
// loaded from a persistent CalibrationStore written by an earlier process.
// This holds because (a) every per-request computation depends only on that
// request's inputs, (b) the world engine is bit-identical across batch
// sizes and thread counts, and (c) cache keys (core/calibration_cache.h)
// hash every draw-relevant simulation input, so a hit — memory or disk —
// substitutes a value the request's own simulation would have produced
// bit-for-bit.
// Timing/caching/admission metadata on the response (cache_hit,
// milliseconds, queue depth/wait) is diagnostic and exempt.
#ifndef SFA_CORE_AUDIT_PIPELINE_H_
#define SFA_CORE_AUDIT_PIPELINE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/audit.h"
#include "core/calibration_cache.h"

namespace sfa::core {

/// One audit request. Dataset and family are borrowed and must outlive the
/// Run() call (batch) or the request's completion (streaming); the family
/// must be bound to the locations of the request's measure view (for
/// kStatisticalParity, the dataset itself).
struct AuditRequest {
  /// Caller-chosen tag echoed in the response and the manifest.
  std::string id;
  const data::OutcomeDataset* dataset = nullptr;
  const RegionFamily* family = nullptr;
  AuditOptions options;
  /// When true, `dataset` is already the measure view (e.g. a pre-filtered
  /// Y=1 slice) and BuildMeasureView is skipped; options.measure is then
  /// only descriptive.
  bool dataset_is_view = false;
  /// Relative deadline in milliseconds: from Submit() in streaming mode,
  /// from Run() entry in batch mode. 0 = none. Negative = already expired —
  /// fails DeadlineExceeded at admission without consuming work. Streaming
  /// enforces the deadline at admission, again at dequeue (an expired queued
  /// request is reaped without executing, freeing its worker for live work),
  /// and cooperatively inside the Monte Carlo calibration at batch
  /// boundaries. Batch Run() enforces it at admission and assembly only:
  /// batch-mode calibrations are shared across the whole batch, so one
  /// request's deadline never truncates a sibling's calibration.
  double deadline_ms = 0.0;
  /// Opt-in graceful degradation (streaming): when the deadline expires
  /// mid-calibration, serve a p-value from the completed contiguous prefix
  /// of null worlds instead of failing, flagged AuditResponse::degraded.
  /// The degraded payload is deterministic GIVEN worlds_completed (worlds
  /// are independent substreams), though worlds_completed itself depends on
  /// where the deadline landed.
  bool allow_degraded = false;
};

/// Admission priority class of a streamed request. Lower value = served
/// first: the dispatcher always drains kInteractive before kNormal before
/// kBulk, FIFO within a class.
enum class RequestPriority : uint8_t {
  kInteractive = 0,
  kNormal = 1,
  kBulk = 2,
};
inline constexpr size_t kNumRequestPriorities = 3;
const char* RequestPriorityToString(RequestPriority priority);

/// One audit outcome. `result` is valid iff `status` is OK; a failed request
/// never poisons the rest of the batch/stream.
struct AuditResponse {
  std::string id;
  Status status = Status::OK();
  AuditResult result;
  /// True when this request's calibration was served without simulating —
  /// warm from a previous Run, computed once by a sibling request, or loaded
  /// from the persistent store. Diagnostic — not covered by the determinism
  /// contract.
  bool cache_hit = false;
  /// The calibration identity (CalibrationKey::debug) for manifest joins.
  std::string calibration_key;
  /// Wall-clock milliseconds of this request's assembly (scan + evidence),
  /// excluding shared calibration time. Diagnostic.
  double assemble_ms = 0.0;
  /// Streaming admission metadata (diagnostic; defaults in batch mode):
  /// the request's priority class, the number of queued requests at
  /// admission including this one (exact when producers are serialized,
  /// approximate under concurrent submission), and the submit-to-dispatch
  /// wait — from the Submit call until a worker picked the request up,
  /// INCLUDING any time the producer spent blocked on backpressure
  /// admission under the block_when_full policy (so it is the full
  /// end-to-end queueing delay a caller experienced, not queue dwell alone).
  RequestPriority priority = RequestPriority::kNormal;
  size_t queue_depth = 0;
  double queue_wait_ms = 0.0;
  /// True when the result was served from a partial calibration after this
  /// request's deadline expired mid-simulation (AuditRequest::allow_degraded).
  /// The p-value then ranks the observed statistic against `worlds_completed`
  /// null worlds instead of the requested count.
  bool degraded = false;
  /// Null worlds backing this response's p-value: the requested
  /// monte_carlo.num_worlds normally, the completed prefix when degraded,
  /// 0 when status is not OK.
  size_t worlds_completed = 0;
};

/// Machine-readable record of one Run(): per-request rows plus batch-level
/// cache and timing aggregates. Serialize with ToJson().
struct PipelineManifest {
  struct Row {
    std::string id;
    std::string calibration_key;
    bool cache_hit = false;
    bool ok = false;
    std::string error;  ///< status message when !ok
    bool spatially_fair = false;
    double p_value = 0.0;
    /// SignificanceMethodToString of the method that produced p_value.
    std::string p_value_method;
    bool tail_fit_ok = false;
    double tau = 0.0;
    uint64_t total_n = 0;
    uint64_t total_p = 0;
    size_t num_findings = 0;
    double assemble_ms = 0.0;
  };

  size_t num_requests = 0;
  size_t num_failed = 0;
  /// Calibrations simulated (unique misses) vs loaded from the persistent
  /// store vs reused from memory during this Run.
  uint64_t calibrations_computed = 0;
  uint64_t calibrations_loaded = 0;
  uint64_t calibrations_reused = 0;
  /// Tail-smart significance aggregates over this Run: freshly simulated
  /// calibrations that stopped early on the adaptive CI rule, OK rows whose
  /// p-value used the Gumbel tail, and the null worlds those early stops
  /// avoided simulating.
  uint64_t early_stops = 0;
  uint64_t tail_fits = 0;
  uint64_t worlds_saved = 0;
  /// Cumulative cache stats after this Run (spans Runs on a shared cache).
  CalibrationCache::Stats cache;
  double wall_ms = 0.0;
  bool parallel = false;
  std::vector<Row> rows;  ///< in request order

  /// Fraction of served requests that did not simulate
  /// ((loaded + reused) / (computed + loaded + reused)); 0 when empty.
  double HitRate() const;

  std::string ToJson() const;
};

struct PipelineOptions {
  /// Schedule request preparation/assembly and unique calibrations on the
  /// shared thread pool. Results are identical either way (contract above);
  /// serial execution exists for debugging and as the determinism baseline.
  bool parallel = true;
};

/// Configuration of one streaming session (StartStream).
struct StreamOptions {
  /// Total queued requests across all priority classes; admissions beyond
  /// this trigger the backpressure policy.
  size_t queue_capacity = 64;
  /// Dedicated dispatcher threads draining the admission queue. Each worker
  /// executes one request at a time; the Monte Carlo calibration inside
  /// still fans out on the shared pool.
  size_t num_workers = 2;
  /// Backpressure policy at capacity: block Submit until a slot frees (true)
  /// or reject immediately with ResourceExhausted (false).
  bool block_when_full = false;
  /// Admit but do not dispatch until ResumeDispatch(). With dispatch paused,
  /// admission outcomes are a deterministic function of capacity and the
  /// submission sequence — the backpressure/ordering tests rely on this, and
  /// it doubles as a warm-up barrier for latency measurement.
  bool start_paused = false;
};

/// Cumulative counters of one streaming session. `submitted` counts every
/// Submit call that reached an accepting session (a Submit racing teardown
/// fails fast and counts nowhere); `admitted + rejected` = submitted (a
/// closed-queue failure counts as rejected); `completed + failed +
/// cancelled` = admitted once the session is finished. The final snapshot
/// reported after FinishStream/AbortStream is taken only after every
/// in-flight Submit has recorded its outcome, so the invariants hold
/// exactly there too.
struct StreamStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;  ///< finished with OK status
  uint64_t failed = 0;     ///< finished with a per-request error
  /// Resolved before dispatch: by AbortStream tearing the session down or by
  /// a per-ticket Cancel() removing the request from the admission queue.
  uint64_t cancelled = 0;
  size_t max_queue_depth = 0;

  // Fault-tolerance counters. A deadline can expire at admission (counted in
  // `rejected` too — the request was never admitted), at dequeue (counted in
  // `failed` too), or mid-calibration (in `failed`, or in `completed` when
  // the response was served degraded); every expiry counts one deadline_miss.
  uint64_t deadline_misses = 0;
  uint64_t degraded = 0;  ///< responses served from a partial calibration

  // Tail-smart significance counters. An early stop here is the ADAPTIVE CI
  // stop (a successful, shorter calibration) — unrelated to deadline/cancel
  // failures above. worlds_saved accumulates (requested - completed) over
  // freshly simulated early-stopped calibrations only (cache hits saved
  // their worlds at compute time, counting them again would double-bill).
  uint64_t early_stops = 0;  ///< adaptive CI stops among fresh calibrations
  uint64_t tail_fits = 0;    ///< OK responses whose p-value used the Gumbel tail
  uint64_t worlds_saved = 0; ///< null worlds not simulated thanks to early stops

  // Store-health snapshot taken from the attached CalibrationStore when the
  // stats are read (all zero when no store is attached). Cumulative over the
  // STORE's lifetime — a store shared across sessions reports its running
  // totals, not per-session deltas.
  uint64_t store_retries = 0;
  uint64_t store_quarantined = 0;
  uint64_t breaker_trips = 0;
  bool breaker_open = false;

  // Multi-process fabric counters (store snapshot, same caveats as above):
  // crash-recovery sweeps and cross-process lease activity.
  uint64_t temps_reaped = 0;       ///< orphaned writer temps swept
  uint64_t leases_reclaimed = 0;   ///< stale leases/tombstones reclaimed
  uint64_t lease_takeovers = 0;    ///< acquisitions over a dead/stale holder
  uint64_t quarantine_evicted = 0; ///< quarantined frames GC'd by byte budget

  /// One-line JSON object of the counters (for manifests and run summaries).
  std::string ToJson() const;
};

/// Pollable handle to one streamed request: a one-shot future completed by
/// the dispatcher. done() polls; Get() blocks. Tickets are always completed
/// — on success, per-request failure, or stream abort — so Get() never
/// hangs past FinishStream/AbortStream.
class AuditTicket {
 public:
  AuditTicket() = default;
  AuditTicket(const AuditTicket&) = delete;
  AuditTicket& operator=(const AuditTicket&) = delete;

  bool done() const;
  /// Blocks until the response is ready, then returns it (valid for the
  /// ticket's lifetime).
  const AuditResponse& Get() const;

 private:
  friend class AuditPipeline;
  void Complete(AuditResponse response);

  mutable std::mutex mu_;
  mutable std::condition_variable done_cv_;
  bool done_ = false;
  AuditResponse response_;
};

/// Completion callback of a streamed request, invoked after the ticket is
/// completed — on the dispatching worker thread normally, or on the
/// Cancel() caller's thread for a per-ticket cancellation. Must be
/// thread-safe against other completions; keep it cheap (it blocks the
/// worker).
using AuditCallback = std::function<void(const AuditResponse&)>;

/// The pipeline. The calibration cache persists across Run() calls and
/// streaming sessions, so replaying a request stream in waves keeps earlier
/// calibrations warm; attach a CalibrationStore to the cache to keep them
/// warm across processes.
///
/// Threading: batch Run() is one-at-a-time per instance. Streaming control
/// calls (StartStream / ResumeDispatch / FinishStream / AbortStream) belong
/// to one controller thread; Submit() may be called from any number of
/// producer threads between StartStream and the finishing call. Batch and
/// streaming modes are mutually exclusive — Run() fails while a stream is
/// active.
class AuditPipeline {
 public:
  explicit AuditPipeline(PipelineOptions options = {}) : options_(options) {}
  ~AuditPipeline();

  const PipelineOptions& options() const { return options_; }
  CalibrationCache& cache() { return cache_; }

  /// Executes `batch`, returning one response per request in request order.
  /// Per-request failures are reported in AuditResponse::status; the
  /// batch-level Status is reserved for structural misuse (null pointers in
  /// a request, active streaming session). `manifest` (optional) receives
  /// the run record.
  Result<std::vector<AuditResponse>> Run(const std::vector<AuditRequest>& batch,
                                         PipelineManifest* manifest = nullptr);

  // ------------------------------------------------------------- streaming
  /// Opens a streaming session: spawns the dispatcher workers and the
  /// bounded admission queue. Fails if a session is already active.
  Status StartStream(const StreamOptions& options = {});

  bool streaming() const { return CurrentStream() != nullptr; }

  /// Submits one request to the active session. On admission, returns a
  /// ticket that completes when the request finishes; `callback` (optional)
  /// additionally fires on the worker thread at completion. On backpressure
  /// rejection returns ResourceExhausted (reject policy) — the request
  /// consumed no simulation work and may be retried. Borrowed dataset/family
  /// must outlive the request's completion.
  Result<std::shared_ptr<AuditTicket>> Submit(
      AuditRequest request,
      RequestPriority priority = RequestPriority::kNormal,
      AuditCallback callback = nullptr);

  /// Cancels one still-queued request of the active session: removes it from
  /// the admission queue (freeing its capacity slot) and resolves its ticket
  /// with a kCancelled status, counted in StreamStats::cancelled. Returns
  /// NotFound when the ticket is not waiting in the queue — already
  /// dispatched to a worker, already finished, cancelled before, or foreign
  /// to this session — in which case nothing changes (a dispatched request
  /// runs to completion; cancellation never interrupts work in flight).
  /// With dispatch paused (StreamOptions::start_paused) outcomes are a
  /// deterministic function of the Submit/Cancel sequence.
  Status Cancel(const std::shared_ptr<AuditTicket>& ticket);

  /// Releases a start_paused session's dispatch gate. Idempotent.
  void ResumeDispatch();

  /// Drains the session: stops admissions, lets workers finish every queued
  /// request, joins them, flushes write-behind persists, and records the
  /// final StreamStats. Fails only when no session is active.
  Status FinishStream();

  /// Graceful drain with a time budget: FinishStream semantics, except that
  /// when `deadline_ms` > 0 elapses before the queue empties, the session is
  /// cancelled — in-flight calibrations stop at the next world-batch
  /// boundary (releasing any cross-process leases they hold, so peers can
  /// take the keys over immediately), still-queued requests resolve as
  /// cancelled — and the drain then completes: workers joined, write-behind
  /// flushed, final stats recorded. deadline_ms <= 0 waits indefinitely
  /// (identical to FinishStream). This is the SIGTERM path: stop taking
  /// work, finish what fits the budget, persist, report, exit.
  Status Drain(double deadline_ms = 0.0);

  /// Tears the session down without draining: queued-but-undispatched
  /// requests fail with FailedPrecondition (counted as cancelled); requests
  /// already executing finish normally. Joins workers and records stats.
  /// No-op when no session is active.
  void AbortStream();

  /// Counters of the active session, or of the last finished one.
  StreamStats stream_stats() const;

 private:
  struct StreamEntry {
    AuditRequest request;
    RequestPriority priority = RequestPriority::kNormal;
    std::shared_ptr<AuditTicket> ticket;
    AuditCallback callback;
    size_t depth_at_admission = 0;
    std::chrono::steady_clock::time_point admitted_at;
    /// Absolute expiry stamped at admission from request.deadline_ms;
    /// epoch-zero = none.
    std::chrono::steady_clock::time_point deadline{};
  };

  /// State of one streaming session (lives between StartStream and
  /// FinishStream/AbortStream).
  struct Stream {
    explicit Stream(const StreamOptions& opts)
        : options(opts),
          queue(opts.queue_capacity, kNumRequestPriorities) {}

    StreamOptions options;
    BoundedPriorityQueue<StreamEntry> queue;
    std::vector<std::thread> workers;
    CancellationToken cancel;
    /// Guards paused, accepting, inflight_submits, stats —
    /// and the cancel token's transition, which doubles as a CV predicate
    /// for the worker dispatch gate (a CV predicate must change under the
    /// mutex or the wakeup can be lost).
    mutable std::mutex mu;
    std::condition_variable resume_cv;
    bool paused = false;
    /// Cleared by teardown before the queue closes: a Submit that finds
    /// accepting == false fails fast without touching stats, so the final
    /// stats snapshot (taken after inflight_submits drains) satisfies the
    /// documented invariants exactly.
    bool accepting = true;
    /// Submits past the accepting gate but not yet recorded; teardown waits
    /// for zero before snapshotting stats.
    size_t inflight_submits = 0;
    StreamStats stats;
  };

  void StreamWorkerLoop(Stream* stream);
  AuditResponse ExecuteStreamRequest(Stream* stream, const StreamEntry& entry);
  /// Shared teardown: drain (abort=false) or abandon (abort=true) the
  /// session. drain_deadline_ms > 0 arms a watchdog that cancels the session
  /// when the drain overruns the budget (Drain); <= 0 = no watchdog.
  void TeardownStream(bool abort, double drain_deadline_ms = 0.0);
  /// Copies the attached store's fault counters into a stats snapshot
  /// (no-op without a store).
  void FillStoreHealth(StreamStats* stats) const;
  /// Snapshot of the session pointer. Submitters hold the returned reference
  /// for the duration of the call, so a producer woken from a blocking Push
  /// by teardown's queue.Close() still has a live Stream to record its
  /// rejection against even after the controller dropped the session.
  std::shared_ptr<Stream> CurrentStream() const;

  PipelineOptions options_;
  CalibrationCache cache_;
  /// Guards stream_ (the pointer itself) and last_stream_stats_.
  mutable std::mutex stream_ptr_mu_;
  std::shared_ptr<Stream> stream_;
  StreamStats last_stream_stats_;
};

}  // namespace sfa::core

#endif  // SFA_CORE_AUDIT_PIPELINE_H_
