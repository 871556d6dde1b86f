#include "core/audit_pipeline.h"

#include <chrono>
#include <unordered_map>
#include <utility>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/calibration_store.h"
#include "core/export.h"
#include "core/measure.h"

namespace sfa::core {

namespace {

/// Absolute expiry for a relative deadline measured from `from`; epoch-zero
/// (= "none") when deadline_ms is 0. A negative deadline_ms lands in the
/// past, so Expired() is immediately true — the admission-reject contract.
std::chrono::steady_clock::time_point DeadlineFor(
    double deadline_ms, std::chrono::steady_clock::time_point from) {
  if (deadline_ms == 0.0) return {};
  return from + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(deadline_ms));
}

bool DeadlineExpired(std::chrono::steady_clock::time_point deadline) {
  return deadline != std::chrono::steady_clock::time_point{} &&
         std::chrono::steady_clock::now() >= deadline;
}

/// Per-request state threaded between the pipeline phases.
struct Prep {
  Status status = Status::OK();
  /// Materialized measure view (only when filtering was required).
  data::OutcomeDataset view_storage;
  /// The view audited: &view_storage or the request's dataset.
  const data::OutcomeDataset* view = nullptr;
  /// The outcome model bound to the view's totals; shared with the unique
  /// calibration so simulation and assembly use the exact same instance.
  std::shared_ptr<const ScanStatistic> statistic;
  /// The request's Monte Carlo options with the adaptive stopping rule
  /// RESOLVED (observed τ from a prepare-phase scan, alpha from the audit
  /// options) — the key below and every later phase must use this copy, not
  /// the raw request options, or adaptive keys would hash unset fields.
  MonteCarloOptions mc;
  CalibrationKey key;
};

/// One unique calibration of the batch.
struct UniqueCalibration {
  CalibrationKey key;
  const RegionFamily* family = nullptr;
  std::shared_ptr<const ScanStatistic> statistic;
  MonteCarloOptions mc;
  size_t first_request = 0;  ///< request index that introduced the key
  bool warm = false;         ///< served from the cache of a previous Run
  CalibrationCache::Source source = CalibrationCache::Source::kMemory;
  std::shared_ptr<const NullDistribution> value;
  Status status = Status::OK();
};

void PrepareRequest(const AuditRequest& req, Prep* prep) {
  if (req.dataset_is_view ||
      req.options.measure == FairnessMeasure::kStatisticalParity) {
    // Statistical parity audits every individual on the prediction bit —
    // the dataset IS the view; skip the copy BuildMeasureView would make.
    prep->view = req.dataset;
  } else {
    auto view = BuildMeasureView(*req.dataset, req.options.measure);
    if (!view.ok()) {
      prep->status = view.status();
      return;
    }
    prep->view_storage = std::move(view).value();
    prep->view = &prep->view_storage;
  }
  if (prep->view->size() != req.family->num_points()) {
    prep->status = Status::InvalidArgument(StrFormat(
        "request '%s': family is bound to %zu points but the measure view "
        "has %zu",
        req.id.c_str(), req.family->num_points(), prep->view->size()));
    return;
  }
  if (prep->view->empty()) {
    prep->status =
        Status::InvalidArgument(StrFormat("request '%s': empty audit view",
                                          req.id.c_str()));
    return;
  }
  auto statistic = MakeScanStatistic(req.options, *prep->view);
  if (!statistic.ok()) {
    prep->status = statistic.status().WithContext(
        StrFormat("request '%s'", req.id.c_str()));
    return;
  }
  prep->statistic = std::move(statistic).value();
  // Validate the outcome stream BEFORE the calibration phase: a view whose
  // outcomes don't fit the statistic (e.g. class ids fed to a Bernoulli
  // audit) must fail here, not after a wasted — and wrongly-keyed —
  // simulation.
  Status outcomes = prep->statistic->ValidateOutcomes(
      prep->view->predicted().data(), prep->view->size());
  if (!outcomes.ok()) {
    prep->status =
        outcomes.WithContext(StrFormat("request '%s'", req.id.c_str()));
    return;
  }
  prep->mc = req.options.monte_carlo;
  if (prep->mc.adaptive.enabled) {
    // The adaptive rule needs the observed τ BEFORE the calibration key is
    // formed (the stop point — hence the calibration identity — depends on
    // it), so resolve it with a prepare-phase scan of the observed world.
    // The assembly phase rescans for the evidence fields; the extra scan is
    // the price of keying adaptive calibrations honestly.
    AuditScratch prescan_scratch;
    const ScanResult observed = prep->statistic->ScanObserved(
        *req.family, prep->view->predicted().data(), prep->view->size(),
        &prescan_scratch);
    prep->mc.adaptive.observed = observed.max_llr;
    prep->mc.adaptive.alpha = req.options.alpha;
  }
  prep->key = MakeCalibrationKey(*req.family, *prep->statistic, prep->mc);
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

const char* RequestPriorityToString(RequestPriority priority) {
  switch (priority) {
    case RequestPriority::kInteractive:
      return "interactive";
    case RequestPriority::kNormal:
      return "normal";
    case RequestPriority::kBulk:
      return "bulk";
  }
  return "unknown";
}

// ----------------------------------------------------------------- ticket --

bool AuditTicket::done() const {
  std::unique_lock<std::mutex> lock(mu_);
  return done_;
}

const AuditResponse& AuditTicket::Get() const {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return done_; });
  return response_;
}

void AuditTicket::Complete(AuditResponse response) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    response_ = std::move(response);
    done_ = true;
  }
  done_cv_.notify_all();
}

std::string StreamStats::ToJson() const {
  return StrFormat(
      "{\"submitted\":%llu,\"admitted\":%llu,\"rejected\":%llu,"
      "\"completed\":%llu,\"failed\":%llu,\"cancelled\":%llu,"
      "\"max_queue_depth\":%zu,"
      "\"deadline_misses\":%llu,\"degraded\":%llu,"
      "\"early_stops\":%llu,\"tail_fits\":%llu,\"worlds_saved\":%llu,"
      "\"store_retries\":%llu,\"store_quarantined\":%llu,"
      "\"breaker_trips\":%llu,\"breaker_open\":%s,"
      "\"temps_reaped\":%llu,\"leases_reclaimed\":%llu,"
      "\"lease_takeovers\":%llu,\"quarantine_evicted\":%llu}",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(admitted),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(cancelled), max_queue_depth,
      static_cast<unsigned long long>(deadline_misses),
      static_cast<unsigned long long>(degraded),
      static_cast<unsigned long long>(early_stops),
      static_cast<unsigned long long>(tail_fits),
      static_cast<unsigned long long>(worlds_saved),
      static_cast<unsigned long long>(store_retries),
      static_cast<unsigned long long>(store_quarantined),
      static_cast<unsigned long long>(breaker_trips),
      breaker_open ? "true" : "false",
      static_cast<unsigned long long>(temps_reaped),
      static_cast<unsigned long long>(leases_reclaimed),
      static_cast<unsigned long long>(lease_takeovers),
      static_cast<unsigned long long>(quarantine_evicted));
}

// --------------------------------------------------------------- manifest --

double PipelineManifest::HitRate() const {
  const uint64_t total =
      calibrations_computed + calibrations_loaded + calibrations_reused;
  return total == 0
             ? 0.0
             : static_cast<double>(calibrations_loaded + calibrations_reused) /
                   static_cast<double>(total);
}

std::string PipelineManifest::ToJson() const {
  std::string out;
  out.reserve(256 + rows.size() * 256);
  out += StrFormat(
      "{\"num_requests\":%zu,\"num_failed\":%zu,\"parallel\":%s,"
      "\"wall_ms\":%.3f,\"calibrations\":{\"computed\":%llu,\"loaded\":%llu,"
      "\"reused\":%llu,\"hit_rate\":%.4f},"
      "\"early_stops\":%llu,\"tail_fits\":%llu,\"worlds_saved\":%llu,"
      "\"cache\":{\"hits\":%llu,"
      "\"misses\":%llu,\"entries\":%llu,\"store_hits\":%llu,"
      "\"store_writes\":%llu},\"requests\":[",
      num_requests, num_failed, parallel ? "true" : "false", wall_ms,
      static_cast<unsigned long long>(calibrations_computed),
      static_cast<unsigned long long>(calibrations_loaded),
      static_cast<unsigned long long>(calibrations_reused), HitRate(),
      static_cast<unsigned long long>(early_stops),
      static_cast<unsigned long long>(tail_fits),
      static_cast<unsigned long long>(worlds_saved),
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses),
      static_cast<unsigned long long>(cache.entries),
      static_cast<unsigned long long>(cache.store_hits),
      static_cast<unsigned long long>(cache.store_writes));
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    if (i > 0) out += ',';
    if (!row.ok) {
      out += StrFormat("{\"id\":\"%s\",\"ok\":false,\"error\":\"%s\"}",
                       JsonEscape(row.id).c_str(),
                       JsonEscape(row.error).c_str());
      continue;
    }
    out += StrFormat(
        "{\"id\":\"%s\",\"ok\":true,\"calibration_key\":\"%s\","
        "\"cache_hit\":%s,\"spatially_fair\":%s,\"p_value\":%.17g,"
        "\"p_value_method\":\"%s\",\"tail_fit_ok\":%s,"
        "\"tau\":%.17g,\"n\":%llu,\"p\":%llu,\"num_findings\":%zu,"
        "\"assemble_ms\":%.3f}",
        JsonEscape(row.id).c_str(), JsonEscape(row.calibration_key).c_str(),
        row.cache_hit ? "true" : "false",
        row.spatially_fair ? "true" : "false", row.p_value,
        row.p_value_method.c_str(), row.tail_fit_ok ? "true" : "false",
        row.tau,
        static_cast<unsigned long long>(row.total_n),
        static_cast<unsigned long long>(row.total_p), row.num_findings,
        row.assemble_ms);
  }
  out += "]}";
  return out;
}

// -------------------------------------------------------------- batch Run --

AuditPipeline::~AuditPipeline() {
  // An abandoned session must not leave detached workers touching freed
  // pipeline state; drain-free teardown mirrors AbortStream.
  AbortStream();
}

Result<std::vector<AuditResponse>> AuditPipeline::Run(
    const std::vector<AuditRequest>& batch, PipelineManifest* manifest) {
  Stopwatch wall;
  const auto run_entry = std::chrono::steady_clock::now();
  if (streaming()) {
    return Status::FailedPrecondition(
        "batch Run() while a streaming session is active; FinishStream() "
        "first");
  }
  // Structural misuse fails the whole batch: there is no per-request result
  // to attach an error to when the request itself is not addressable.
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].dataset == nullptr || batch[i].family == nullptr) {
      return Status::InvalidArgument(
          StrFormat("request %zu ('%s') has a null dataset or family", i,
                    batch[i].id.c_str()));
    }
  }

  ThreadPool& pool = DefaultThreadPool();
  const bool parallel = options_.parallel;
  auto for_each = [&](size_t n, const std::function<void(size_t)>& fn) {
    if (parallel) {
      pool.ParallelFor(n, fn);
    } else {
      for (size_t i = 0; i < n; ++i) fn(i);
    }
  };

  // Phase 1 — prepare: per-request measure views, totals, and keys (each
  // family fingerprints itself once, on its first key).
  std::vector<Prep> preps(batch.size());
  for_each(batch.size(),
           [&](size_t i) { PrepareRequest(batch[i], &preps[i]); });

  // Phase 2 — calibrate: dedupe keys (first-occurrence order, so manifests
  // are stable), serve warm entries from the cache, simulate (or load from
  // the persistent store) the rest. The outer loop parallelizes across
  // unique calibrations while each simulation's world engine fans out onto
  // the same pool underneath.
  std::vector<UniqueCalibration> uniques;
  std::unordered_map<std::string, size_t> key_to_unique;
  std::vector<size_t> request_unique(batch.size(), SIZE_MAX);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!preps[i].status.ok()) continue;
    auto [it, inserted] =
        key_to_unique.emplace(preps[i].key.debug, uniques.size());
    if (inserted) {
      UniqueCalibration cal;
      cal.key = preps[i].key;
      cal.family = batch[i].family;
      cal.statistic = preps[i].statistic;
      cal.mc = preps[i].mc;
      // Honor the pipeline-level parallel switch inside the world engine
      // too; execution-only, never part of the key or the results.
      cal.mc.parallel = cal.mc.parallel && parallel;
      cal.first_request = i;
      cal.value = cache_.Lookup(cal.key);
      cal.warm = cal.value != nullptr;
      uniques.push_back(std::move(cal));
    }
    request_unique[i] = it->second;
  }
  std::vector<size_t> misses;
  for (size_t u = 0; u < uniques.size(); ++u) {
    if (!uniques[u].warm) misses.push_back(u);
  }
  for_each(misses.size(), [&](size_t m) {
    UniqueCalibration& cal = uniques[misses[m]];
    auto computed = cache_.GetOrCompute(
        cal.key,
        [&] { return SimulateNull(*cal.statistic, *cal.family, cal.mc); },
        &cal.source);
    if (computed.ok()) {
      cal.value = std::move(computed).value();
    } else {
      cal.status = computed.status();
    }
  });

  // Phase 3 — assemble: full audit per request with the shared calibration
  // injected; per-worker scratch recycles observed-world buffers. Deadlines
  // are enforced here (and implicitly at admission via negative
  // deadline_ms), NOT inside phase 2: batch calibrations are shared across
  // the batch, so one request's budget must never truncate a sibling's
  // calibration — an expired batch request fails cleanly instead of serving
  // degraded (streaming is the degraded-serving mode).
  std::vector<AuditResponse> responses(batch.size());
  for_each(batch.size(), [&](size_t i) {
    static thread_local AuditScratch scratch;
    Stopwatch timer;
    AuditResponse& response = responses[i];
    response.id = batch[i].id;
    if (!preps[i].status.ok()) {
      response.status = preps[i].status;
      return;
    }
    if (DeadlineExpired(DeadlineFor(batch[i].deadline_ms, run_entry))) {
      response.status = Status::DeadlineExceeded(
          StrFormat("request '%s' expired before assembly (deadline %.3f ms "
                    "from Run entry)",
                    batch[i].id.c_str(), batch[i].deadline_ms));
      return;
    }
    const UniqueCalibration& cal = uniques[request_unique[i]];
    response.calibration_key = cal.key.debug;
    response.cache_hit = cal.warm ||
                         cal.source == CalibrationCache::Source::kStore ||
                         i != cal.first_request;
    if (!cal.status.ok()) {
      response.status = cal.status;
      return;
    }
    response.worlds_completed = cal.value->num_worlds();
    auto result = Auditor(batch[i].options)
                      .AuditView(*preps[i].view, *batch[i].family,
                                 preps[i].statistic.get(), cal.value.get(),
                                 &scratch);
    if (!result.ok()) {
      response.status = result.status();
      return;
    }
    response.result = std::move(result).value();
    response.assemble_ms = timer.ElapsedMillis();
  });

  if (manifest != nullptr) {
    manifest->num_requests = batch.size();
    manifest->num_failed = 0;
    manifest->parallel = parallel;
    manifest->calibrations_computed = 0;
    manifest->calibrations_loaded = 0;
    manifest->early_stops = 0;
    manifest->tail_fits = 0;
    manifest->worlds_saved = 0;
    for (const UniqueCalibration& cal : uniques) {
      if (cal.warm || !cal.status.ok()) continue;
      if (cal.source == CalibrationCache::Source::kStore) {
        ++manifest->calibrations_loaded;
      } else {
        ++manifest->calibrations_computed;
        if (cal.value != nullptr && cal.value->early_stopped()) {
          ++manifest->early_stops;
          manifest->worlds_saved +=
              cal.value->worlds_requested() - cal.value->num_worlds();
        }
      }
    }
    uint64_t served = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (preps[i].status.ok() && responses[i].status.ok()) ++served;
    }
    const uint64_t fresh =
        manifest->calibrations_computed + manifest->calibrations_loaded;
    manifest->calibrations_reused = served >= fresh ? served - fresh : 0;
    manifest->cache = cache_.stats();
    manifest->rows.clear();
    manifest->rows.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      PipelineManifest::Row row;
      const AuditResponse& response = responses[i];
      row.id = response.id;
      row.ok = response.status.ok();
      if (!row.ok) {
        row.error = response.status.ToString();
        ++manifest->num_failed;
      } else {
        row.calibration_key = response.calibration_key;
        row.cache_hit = response.cache_hit;
        row.spatially_fair = response.result.spatially_fair;
        row.p_value = response.result.p_value;
        row.p_value_method =
            SignificanceMethodToString(response.result.p_value_method);
        row.tail_fit_ok = response.result.tail_fit_ok;
        if (response.result.p_value_method ==
            SignificanceMethod::kGumbelTail) {
          ++manifest->tail_fits;
        }
        row.tau = response.result.tau;
        row.total_n = response.result.total_n;
        row.total_p = response.result.total_p;
        row.num_findings = response.result.findings.size();
        row.assemble_ms = response.assemble_ms;
      }
      manifest->rows.push_back(std::move(row));
    }
    manifest->wall_ms = wall.ElapsedMillis();
  }
  return responses;
}

// -------------------------------------------------------------- streaming --

std::shared_ptr<AuditPipeline::Stream> AuditPipeline::CurrentStream() const {
  std::unique_lock<std::mutex> lock(stream_ptr_mu_);
  return stream_;
}

Status AuditPipeline::StartStream(const StreamOptions& options) {
  if (streaming()) {
    return Status::FailedPrecondition("streaming session already active");
  }
  StreamOptions opts = options;
  if (opts.num_workers == 0) opts.num_workers = 1;
  auto stream = std::make_shared<Stream>(opts);
  stream->paused = opts.start_paused;
  Stream* s = stream.get();
  s->workers.reserve(opts.num_workers);
  for (size_t w = 0; w < opts.num_workers; ++w) {
    s->workers.emplace_back([this, s] { StreamWorkerLoop(s); });
  }
  std::unique_lock<std::mutex> lock(stream_ptr_mu_);
  stream_ = std::move(stream);
  return Status::OK();
}

Result<std::shared_ptr<AuditTicket>> AuditPipeline::Submit(
    AuditRequest request, RequestPriority priority, AuditCallback callback) {
  // Hold a reference for the whole call: a submitter woken from a blocking
  // Push by a concurrent teardown (queue closed) must still find the Stream
  // alive to record its rejection.
  const std::shared_ptr<Stream> stream = CurrentStream();
  Stream* s = stream.get();
  if (s == nullptr) {
    return Status::FailedPrecondition("Submit() without an active stream");
  }
  {
    std::unique_lock<std::mutex> lock(s->mu);
    if (!s->accepting) {
      // Racing a teardown: fail fast without touching stats, so the final
      // snapshot's invariants (header contract) hold exactly.
      return Status::FailedPrecondition("stream is shutting down");
    }
    ++s->stats.submitted;
    ++s->inflight_submits;
  }
  StreamEntry entry;
  entry.request = std::move(request);
  entry.priority = priority;
  entry.ticket = std::make_shared<AuditTicket>();
  entry.callback = std::move(callback);
  // Exact under serialized submission (e.g. paused dispatch, one producer);
  // approximate when producers and workers race — diagnostic either way.
  entry.depth_at_admission = s->queue.size() + 1;
  entry.admitted_at = std::chrono::steady_clock::now();
  entry.deadline = DeadlineFor(entry.request.deadline_ms, entry.admitted_at);

  // Admission deadline gate: an already-expired request (negative
  // deadline_ms, or a racing clock) is bounced before it can occupy a queue
  // slot. Counted as rejected so admitted + rejected == submitted holds.
  if (DeadlineExpired(entry.deadline)) {
    std::unique_lock<std::mutex> lock(s->mu);
    ++s->stats.rejected;
    ++s->stats.deadline_misses;
    if (--s->inflight_submits == 0 && !s->accepting) {
      s->resume_cv.notify_all();
    }
    return Status::DeadlineExceeded(
        StrFormat("request '%s' expired at admission (deadline %.3f ms)",
                  entry.request.id.c_str(), entry.request.deadline_ms));
  }
  std::shared_ptr<AuditTicket> ticket = entry.ticket;

  const size_t lane = static_cast<size_t>(priority);
  const QueuePush outcome =
      s->options.block_when_full ? s->queue.Push(lane, std::move(entry))
                                 : s->queue.TryPush(lane, std::move(entry));
  Result<std::shared_ptr<AuditTicket>> result =
      Status::Internal("unreachable admission outcome");
  {
    std::unique_lock<std::mutex> lock(s->mu);
    switch (outcome) {
      case QueuePush::kAdmitted: {
        ++s->stats.admitted;
        const size_t depth = s->queue.size();
        if (depth > s->stats.max_queue_depth) s->stats.max_queue_depth = depth;
        result = ticket;
        break;
      }
      case QueuePush::kRejected:
        ++s->stats.rejected;
        result = Status::ResourceExhausted(
            StrFormat("admission queue full (capacity %zu); request rejected "
                      "by backpressure policy",
                      s->options.queue_capacity));
        break;
      case QueuePush::kClosed:
        // Woken (or bounced) by a concurrent teardown closing the queue.
        ++s->stats.rejected;
        result = Status::FailedPrecondition("stream is shutting down");
        break;
    }
    if (--s->inflight_submits == 0 && !s->accepting) {
      // A tearing-down controller may be waiting for submit quiescence.
      s->resume_cv.notify_all();
    }
  }
  return result;
}

Status AuditPipeline::Cancel(const std::shared_ptr<AuditTicket>& ticket) {
  if (ticket == nullptr) {
    return Status::InvalidArgument("Cancel() of a null ticket");
  }
  const std::shared_ptr<Stream> stream = CurrentStream();
  Stream* s = stream.get();
  if (s == nullptr) {
    return Status::FailedPrecondition("Cancel() without an active stream");
  }
  {
    // Join the teardown quiescence protocol exactly like Submit: past this
    // gate the cancellation's stat update and ticket completion are counted
    // as in-flight, so a concurrent FinishStream/AbortStream waits for them
    // before snapshotting final stats — the completed+failed+cancelled ==
    // admitted invariant holds in the snapshot.
    std::unique_lock<std::mutex> lock(s->mu);
    if (!s->accepting) {
      return Status::FailedPrecondition("stream is shutting down");
    }
    ++s->inflight_submits;
  }
  const auto leave_quiescence_gate = [&] {
    std::unique_lock<std::mutex> lock(s->mu);
    if (--s->inflight_submits == 0 && !s->accepting) {
      s->resume_cv.notify_all();
    }
  };
  StreamEntry entry;
  if (!s->queue.RemoveIf(
          [&](const StreamEntry& e) { return e.ticket == ticket; }, &entry)) {
    leave_quiescence_gate();
    return Status::NotFound(
        "ticket is not queued (already dispatched, finished, cancelled, or "
        "not from this session)");
  }
  // The entry is exclusively ours now: the queue removal is atomic against
  // Pop, so no worker can also complete this ticket.
  AuditResponse response;
  response.id = entry.request.id;
  response.status =
      Status::Cancelled("request cancelled by Cancel() before dispatch");
  response.priority = entry.priority;
  response.queue_depth = entry.depth_at_admission;
  response.queue_wait_ms = MillisSince(entry.admitted_at);
  {
    std::unique_lock<std::mutex> lock(s->mu);
    ++s->stats.cancelled;
  }
  entry.ticket->Complete(std::move(response));
  if (entry.callback) entry.callback(entry.ticket->Get());
  leave_quiescence_gate();
  return Status::OK();
}

void AuditPipeline::ResumeDispatch() {
  const std::shared_ptr<Stream> stream = CurrentStream();
  Stream* s = stream.get();
  if (s == nullptr) return;
  {
    std::unique_lock<std::mutex> lock(s->mu);
    s->paused = false;
  }
  s->resume_cv.notify_all();
}

Status AuditPipeline::FinishStream() {
  if (!streaming()) {
    return Status::FailedPrecondition("FinishStream() without an active stream");
  }
  TeardownStream(/*abort=*/false);
  return Status::OK();
}

Status AuditPipeline::Drain(double deadline_ms) {
  if (!streaming()) {
    return Status::FailedPrecondition("Drain() without an active stream");
  }
  TeardownStream(/*abort=*/false, deadline_ms);
  return Status::OK();
}

void AuditPipeline::AbortStream() {
  if (!streaming()) return;
  TeardownStream(/*abort=*/true);
}

void AuditPipeline::TeardownStream(bool abort, double drain_deadline_ms) {
  const std::shared_ptr<Stream> stream = CurrentStream();
  Stream* s = stream.get();
  if (s == nullptr) return;
  {
    // Gate state (accepting, cancel, paused) changes under s->mu: these are
    // CV predicates, and a predicate mutated outside its mutex can race a
    // waiter's check-then-block window and lose the wakeup forever (the
    // abort path would then hang in the worker join below).
    std::unique_lock<std::mutex> lock(s->mu);
    s->accepting = false;
    if (abort) {
      s->cancel.Cancel();
    } else {
      // A paused session must drain before the join below can return.
      s->paused = false;
    }
  }
  s->queue.Close();
  s->resume_cv.notify_all();
  // Drain watchdog: when the graceful drain overruns its budget, flip the
  // session to cancelled — in-flight calibrations stop at the next world-
  // batch boundary (releasing any cross-process leases on the way out) and
  // still-queued requests resolve as cancelled — so the join below is
  // bounded by the budget plus one batch, not by the queue's backlog.
  std::thread watchdog;
  std::mutex watchdog_mu;
  std::condition_variable watchdog_cv;
  bool drained = false;
  if (!abort && drain_deadline_ms > 0.0) {
    watchdog = std::thread([&] {
      std::unique_lock<std::mutex> lock(watchdog_mu);
      if (watchdog_cv.wait_for(
              lock,
              std::chrono::duration<double, std::milli>(drain_deadline_ms),
              [&] { return drained; })) {
        return;  // drain finished inside the budget
      }
      {
        // The cancel transition is a CV predicate: mutate under s->mu.
        std::unique_lock<std::mutex> slock(s->mu);
        s->cancel.Cancel();
      }
      s->resume_cv.notify_all();
    });
  }
  for (std::thread& worker : s->workers) worker.join();
  if (watchdog.joinable()) {
    {
      std::unique_lock<std::mutex> lock(watchdog_mu);
      drained = true;
    }
    watchdog_cv.notify_all();
    watchdog.join();
  }
  // Streaming sessions are durability boundaries: queued write-behind
  // persists land before the session reports finished.
  cache_.FlushStore();
  StreamStats final_stats;
  {
    // Submit quiescence: producers woken from a blocking Push by the queue
    // close may still be about to record their rejection; the snapshot must
    // include them or the documented invariants break.
    std::unique_lock<std::mutex> lock(s->mu);
    s->resume_cv.wait(lock, [&] { return s->inflight_submits == 0; });
    final_stats = s->stats;
  }
  FillStoreHealth(&final_stats);
  std::unique_lock<std::mutex> ptr_lock(stream_ptr_mu_);
  last_stream_stats_ = final_stats;
  stream_.reset();
  // Late submitters may still hold `stream` (they fail fast on the cleared
  // accepting gate); the Stream is freed when the last reference drops.
}

void AuditPipeline::FillStoreHealth(StreamStats* stats) const {
  const std::shared_ptr<CalibrationStore>& store = cache_.store();
  if (store == nullptr) return;
  const CalibrationStore::Stats st = store->stats();
  stats->store_retries = st.store_retries;
  stats->store_quarantined = st.quarantined;
  stats->breaker_trips = st.breaker_trips;
  stats->breaker_open = st.breaker_open;
  stats->temps_reaped = st.temps_reaped;
  stats->leases_reclaimed = st.leases_reclaimed;
  stats->lease_takeovers = st.lease_takeovers;
  stats->quarantine_evicted = st.quarantine_evicted_files;
}

StreamStats AuditPipeline::stream_stats() const {
  const std::shared_ptr<Stream> stream = CurrentStream();
  const Stream* s = stream.get();
  StreamStats snapshot;
  if (s == nullptr) {
    std::unique_lock<std::mutex> lock(stream_ptr_mu_);
    snapshot = last_stream_stats_;
  } else {
    std::unique_lock<std::mutex> lock(s->mu);
    snapshot = s->stats;
  }
  // Store health is re-snapshotted at read time: breaker transitions and
  // retries keep happening (write-behind) after the session counters freeze.
  FillStoreHealth(&snapshot);
  return snapshot;
}

void AuditPipeline::StreamWorkerLoop(Stream* s) {
  StreamEntry entry;
  for (;;) {
    {
      // The dispatch gate: a paused session admits but never pops, so the
      // queue's occupancy (and therefore every admission decision) is a
      // deterministic function of the submission sequence.
      std::unique_lock<std::mutex> lock(s->mu);
      s->resume_cv.wait(lock,
                        [&] { return !s->paused || s->cancel.cancelled(); });
    }
    if (!s->queue.Pop(&entry)) return;  // closed and drained

    AuditResponse response;
    const double wait_ms = MillisSince(entry.admitted_at);
    const bool cancelled = s->cancel.cancelled();
    // Dispatch-boundary failpoint: delay widens the dequeue race window
    // (deadline reaping under TSan); an error action fails the request as if
    // dispatch itself broke.
    Status injected;
    if (!cancelled) {
      SFA_FAILPOINT_WITH("pipeline.dispatch", {
        if (fp_action.kind == FailpointActionKind::kError) {
          injected = fp_action.status;
        }
      });
    }
    if (cancelled) {
      response.id = entry.request.id;
      response.status = Status::FailedPrecondition(
          "stream aborted before the request was dispatched");
    } else if (!injected.ok()) {
      response.id = entry.request.id;
      response.status = std::move(injected);
    } else if (DeadlineExpired(entry.deadline)) {
      // Lazy reaping: the deadline expired while the request sat in the
      // queue. Resolve it without executing — the worker (and the Monte
      // Carlo pool underneath) stays free for requests that can still make
      // their deadlines.
      response.id = entry.request.id;
      response.status = Status::DeadlineExceeded(StrFormat(
          "request '%s' expired in queue after %.2f ms (deadline %.3f ms)",
          entry.request.id.c_str(), wait_ms, entry.request.deadline_ms));
    } else {
      response = ExecuteStreamRequest(s, entry);
    }
    response.priority = entry.priority;
    response.queue_depth = entry.depth_at_admission;
    response.queue_wait_ms = wait_ms;
    {
      std::unique_lock<std::mutex> lock(s->mu);
      if (cancelled) {
        ++s->stats.cancelled;
      } else if (response.status.ok()) {
        ++s->stats.completed;
        if (response.degraded) {
          ++s->stats.degraded;
          ++s->stats.deadline_misses;  // the deadline DID expire mid-flight
        }
        if (response.result.p_value_method == SignificanceMethod::kGumbelTail) {
          ++s->stats.tail_fits;
        }
        // Count worlds saved only where THIS response simulated them away:
        // a cache/store hit's savings were banked when it was computed.
        if (!response.cache_hit && !response.degraded &&
            response.result.null_distribution.early_stopped()) {
          ++s->stats.early_stops;
          s->stats.worlds_saved +=
              response.result.null_distribution.worlds_requested() -
              response.result.null_distribution.num_worlds();
        }
      } else {
        ++s->stats.failed;
        if (response.status.IsDeadlineExceeded()) ++s->stats.deadline_misses;
      }
    }
    // Complete the ticket first so a callback observing done() sees it.
    entry.ticket->Complete(std::move(response));
    if (entry.callback) entry.callback(entry.ticket->Get());
    entry = StreamEntry();  // drop borrowed pointers before the next wait
  }
}

AuditResponse AuditPipeline::ExecuteStreamRequest(Stream* s,
                                                  const StreamEntry& entry) {
  AuditResponse response;
  const AuditRequest& request = entry.request;
  response.id = request.id;
  if (request.dataset == nullptr || request.family == nullptr) {
    response.status = Status::InvalidArgument(StrFormat(
        "request '%s' has a null dataset or family", request.id.c_str()));
    return response;
  }

  Prep prep;
  PrepareRequest(request, &prep);
  if (!prep.status.ok()) {
    response.status = prep.status;
    return response;
  }
  response.calibration_key = prep.key.debug;

  // The prepare phase resolved the adaptive stopping rule (observed τ,
  // alpha) into prep.mc and keyed the calibration from it; execute with the
  // same copy so key and simulation can never disagree.
  MonteCarloOptions mc = prep.mc;
  mc.parallel = mc.parallel && options_.parallel;
  // Cooperative stop wiring: the session's abort token and this request's
  // own deadline reach the world engine, which polls them at batch
  // boundaries (execution-only — neither is part of the calibration key).
  mc.cancel = &s->cancel;
  mc.deadline = entry.deadline;

  // Single-flight sharing cuts both ways: a joiner waiting on an owner's
  // computation can be handed the OWNER's stop (its deadline, its cancel) —
  // an error that says nothing about this request's own budget. Such foreign
  // stops are retried (the failed slot was erased, so a retry either joins a
  // fresh owner or becomes the owner itself and computes under ITS OWN
  // deadline); own stops are terminal. The retry cap only guards against
  // pathological scheduling — each owner attempt is terminal, so the loop
  // cannot spin on one slot.
  static constexpr int kMaxForeignStopRetries = 4;
  CalibrationCache::Source source = CalibrationCache::Source::kMemory;
  PartialCalibration partial;
  bool computed_here = false;
  const auto compute =
      [&](const ComputeContext& context) -> Result<NullDistribution> {
    computed_here = true;
    partial = PartialCalibration();
    // Fabric liveness: the lease heartbeat (when a lease-enabled store made
    // this process the cross-process owner) fires at world-batch boundaries.
    mc.heartbeat = context.heartbeat;
    return SimulateNull(*prep.statistic, *request.family, mc, &partial);
  };
  // While a FOREIGN process holds the key's lease we poll its progress; this
  // predicate bails out of that wait the moment our own request is cancelled
  // or deadlined, so drains and deadlines never block on a peer.
  const auto wait_stopped = [&] {
    return s->cancel.cancelled() || DeadlineExpired(entry.deadline);
  };
  Result<std::shared_ptr<const NullDistribution>> calibration =
      Status::Internal("calibration loop never ran");
  for (int attempt = 0;; ++attempt) {
    computed_here = false;
    calibration = cache_.GetOrCompute(prep.key, compute, &source, wait_stopped);
    if (calibration.ok()) break;
    const Status& cause = calibration.status();
    const bool foreign_stop =
        !computed_here &&
        (cause.IsDeadlineExceeded() || cause.IsCancelled());
    if (!foreign_stop || attempt >= kMaxForeignStopRetries ||
        s->cancel.cancelled() || DeadlineExpired(entry.deadline)) {
      break;
    }
  }

  static thread_local AuditScratch scratch;
  if (!calibration.ok()) {
    // Graceful degradation: our own deadline stopped our own simulation and
    // the caller opted in — rank the observed statistic against the
    // completed contiguous world prefix. The payload is a pure function of
    // (request, worlds_completed); the error path stays authoritative when
    // not even one world finished.
    if (computed_here && calibration.status().IsDeadlineExceeded() &&
        request.allow_degraded && partial.worlds_completed > 0) {
      Stopwatch timer;
      const NullDistribution partial_null(std::move(partial.maxima));
      auto degraded_result =
          Auditor(request.options)
              .AuditView(*prep.view, *request.family, prep.statistic.get(),
                         &partial_null, &scratch);
      if (degraded_result.ok()) {
        response.result = std::move(degraded_result).value();
        response.degraded = true;
        response.worlds_completed = partial.worlds_completed;
        response.cache_hit = false;
        response.assemble_ms = timer.ElapsedMillis();
        return response;
      }
    }
    response.status = calibration.status();
    return response;
  }
  response.cache_hit = source != CalibrationCache::Source::kComputed;
  response.worlds_completed = (*calibration)->num_worlds();

  Stopwatch timer;
  auto result = Auditor(request.options)
                    .AuditView(*prep.view, *request.family,
                               prep.statistic.get(), calibration->get(),
                               &scratch);
  if (!result.ok()) {
    response.status = result.status();
    return response;
  }
  response.result = std::move(result).value();
  response.assemble_ms = timer.ElapsedMillis();
  return response;
}

}  // namespace sfa::core
