#include "core/mc_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>

#include "common/failpoint.h"
#include "common/thread_pool.h"

namespace sfa::core {

namespace {

/// Shared early-stop state for one run. The first batch to observe a stop
/// condition records the cause; everyone after skips without running.
struct StopState {
  std::atomic<bool> stopped{false};
  std::mutex mu;
  Status cause;

  void Trip(Status why) {
    std::unique_lock<std::mutex> lock(mu);
    if (!stopped.load(std::memory_order_relaxed)) {
      cause = std::move(why);
      stopped.store(true, std::memory_order_release);
    }
  }
};

/// The per-batch-boundary stop poll: cancel wins over deadline (a cancelled
/// request's deadline is moot), the `mc_engine.batch` failpoint is the
/// deterministic drill lever for both.
Status CheckStop(const MonteCarloOptions& options) {
  if (options.cancel != nullptr && options.cancel->cancelled()) {
    return Status::Cancelled("cancelled during Monte Carlo calibration");
  }
  if (options.deadline != std::chrono::steady_clock::time_point{} &&
      std::chrono::steady_clock::now() >= options.deadline) {
    return Status::DeadlineExceeded(
        "deadline expired during Monte Carlo calibration");
  }
  SFA_FAILPOINT("mc_engine.batch");
  return Status::OK();
}

/// How one RunWorldRange call ended: `completed` worlds of the range's own
/// [0, w_hi - w_lo) index space form a contiguous prefix.
struct RangeOutcome {
  size_t completed = 0;
  bool complete = true;
  Status stop_cause;
};

/// Runs worlds [w_lo, w_hi) into max_llrs[w_lo..w_hi) in batches, with
/// optional pool fan-out. When `stoppable`, polls the stop controls at batch
/// boundaries and truncates to the contiguous completed prefix exactly like
/// the full-run entry point (worlds draw from per-world substreams, so a
/// range is positionally identical to the same indices of a full run).
RangeOutcome RunWorldRange(const StatisticSimulation& simulation,
                           const MonteCarloOptions& options, size_t w_lo,
                           size_t w_hi, double* max_llrs, bool stoppable) {
  const size_t num_range = w_hi - w_lo;
  // Batches of batch_size worlds, on a parallel run at most about one
  // worker's share of the range (rounded up to whole 8-world lane groups),
  // so a short range still spreads over the pool. The stop poll happens
  // before a batch starts, never inside one, so a completed batch is always
  // whole.
  size_t batch_size = std::max<uint32_t>(1, options.batch_size);
  if (options.parallel && batch_size > 1) {
    constexpr size_t kLaneGroup = 8;
    const size_t workers =
        std::max<size_t>(1, DefaultThreadPool().num_threads());
    const size_t share = (num_range + workers - 1) / workers;
    const size_t groups = (share + kLaneGroup - 1) / kLaneGroup;
    batch_size = std::min(batch_size, std::max<size_t>(1, groups) * kLaneGroup);
  }
  const size_t num_batches = (num_range + batch_size - 1) / batch_size;

  auto run_batch = [&](size_t g) {
    const size_t b_lo = w_lo + g * batch_size;
    simulation.RunWorldBatch(b_lo, std::min(w_hi, b_lo + batch_size),
                             max_llrs);
  };

  StopState stop;
  std::vector<uint8_t> batch_done(stoppable ? num_batches : 0, uint8_t{0});
  auto guarded_batch = [&](size_t g) {
    // Liveness first, in BOTH modes: a lease heartbeat must keep flowing
    // even for runs that opted out of early stop (no outcome), or a healthy
    // long simulation would look dead to the cross-process fabric and get
    // taken over mid-flight.
    if (options.heartbeat) options.heartbeat();
    if (!stoppable) {
      run_batch(g);
      return;
    }
    if (stop.stopped.load(std::memory_order_acquire)) return;
    if (Status s = CheckStop(options); !s.ok()) {
      stop.Trip(std::move(s));
      return;
    }
    run_batch(g);
    batch_done[g] = 1;  // one writer per index; ParallelFor joins before reads
  };

  if (options.parallel) {
    DefaultThreadPool().ParallelFor(num_batches, guarded_batch);
  } else {
    for (size_t g = 0; g < num_batches; ++g) {
      if (stoppable && stop.stopped.load(std::memory_order_acquire)) break;
      guarded_batch(g);
    }
  }

  RangeOutcome outcome;
  if (!stoppable || !stop.stopped.load(std::memory_order_acquire)) {
    outcome.completed = num_range;
    return outcome;
  }
  // Keep only the contiguous completed prefix: batches finished out of order
  // beyond the first gap are discarded so the surviving maxima depend only on
  // (options, worlds_completed), not on scheduling.
  size_t done_batches = 0;
  while (done_batches < num_batches && batch_done[done_batches] != 0) {
    ++done_batches;
  }
  outcome.completed = std::min(num_range, done_batches * batch_size);
  outcome.complete = false;
  {
    std::unique_lock<std::mutex> lock(stop.mu);
    outcome.stop_cause = stop.cause;
  }
  return outcome;
}

/// Wilson score interval on a binomial proportion g/n at `z` normal units,
/// clamped to [0, 1]. Chosen over Clopper-Pearson because it needs no
/// incomplete beta function and its coverage is adequate for a stopping
/// rule re-checked every chunk.
void WilsonBounds(uint64_t g, uint64_t n, double z, double* lo, double* hi) {
  const double nn = static_cast<double>(n);
  const double gg = static_cast<double>(g);
  const double z2 = z * z;
  const double denom = nn + z2;
  const double center = (gg + z2 / 2.0) / denom;
  const double half =
      z * std::sqrt(gg * (nn - gg) / nn + z2 / 4.0) / denom;
  *lo = std::max(0.0, center - half);
  *hi = std::min(1.0, center + half);
}

/// The adaptive sequential engine: serial chunks of adaptive.check_every
/// worlds (each chunk batched/parallel per the execution options), a Wilson
/// CI verdict at every chunk boundary. See mc_engine.h for the determinism
/// argument.
std::vector<double> RunAdaptiveMonteCarloWorlds(
    const StatisticSimulation& simulation, const MonteCarloOptions& options,
    McRunOutcome* outcome) {
  const size_t num_worlds = options.num_worlds;
  std::vector<double> max_llrs(num_worlds, 0.0);
  const size_t check_every =
      std::max<uint32_t>(1, options.adaptive.check_every);
  const size_t min_worlds = std::max<uint32_t>(1, options.adaptive.min_worlds);
  const double observed = options.adaptive.observed;
  const double alpha = options.adaptive.alpha;

  size_t completed = 0;
  uint64_t exceed = 0;  // #{null maxima >= observed} among completed worlds
  McStopReason reason = McStopReason::kNone;
  while (completed < num_worlds) {
    const size_t hi = std::min(num_worlds, completed + check_every);
    const RangeOutcome range = RunWorldRange(simulation, options, completed,
                                             hi, max_llrs.data(),
                                             /*stoppable=*/true);
    if (!range.complete) {
      // Error stop (cancel / deadline / injected) inside the chunk: report
      // the absolute contiguous prefix, exactly like a non-adaptive run.
      outcome->worlds_completed = completed + range.completed;
      outcome->complete = false;
      outcome->stop_cause = range.stop_cause;
      outcome->stop_reason = McStopReason::kNone;
      max_llrs.resize(outcome->worlds_completed);
      return max_llrs;
    }
    for (size_t w = completed; w < hi; ++w) {
      if (max_llrs[w] >= observed) ++exceed;
    }
    completed = hi;
    if (completed >= min_worlds && completed < num_worlds) {
      double ci_lo = 0.0, ci_hi = 1.0;
      WilsonBounds(exceed, completed, options.adaptive.z, &ci_lo, &ci_hi);
      // The rank-p guards keep the stop verdict consistent with the p-value
      // the served prefix itself yields — a response built from this
      // calibration must agree with the reason we stopped computing it.
      const double rank_p = static_cast<double>(1 + exceed) /
                            static_cast<double>(completed + 1);
      if (ci_hi < alpha && rank_p <= alpha) {
        reason = McStopReason::kCiBelowAlpha;
        break;
      }
      if (ci_lo > alpha && rank_p > alpha) {
        reason = McStopReason::kCiAboveAlpha;
        break;
      }
    }
  }

  max_llrs.resize(completed);
  outcome->worlds_completed = completed;
  outcome->complete = true;
  outcome->stop_cause = Status::OK();
  outcome->stop_reason = reason;
  return max_llrs;
}

}  // namespace

std::vector<double> RunMonteCarloWorlds(const StatisticSimulation& simulation,
                                        const MonteCarloOptions& options,
                                        McRunOutcome* outcome) {
  if (options.adaptive.enabled) {
    // Adaptive runs always report through an outcome: the short maxima
    // vector is only interpretable alongside its stop metadata.
    McRunOutcome local;
    return RunAdaptiveMonteCarloWorlds(simulation, options,
                                       outcome != nullptr ? outcome : &local);
  }
  std::vector<double> max_llrs(options.num_worlds, 0.0);
  const bool stoppable = outcome != nullptr;
  const RangeOutcome range = RunWorldRange(simulation, options, 0,
                                           max_llrs.size(), max_llrs.data(),
                                           stoppable);
  if (!stoppable) return max_llrs;
  outcome->worlds_completed = range.completed;
  outcome->complete = range.complete;
  outcome->stop_cause = range.stop_cause;
  outcome->stop_reason = McStopReason::kNone;
  max_llrs.resize(range.completed);
  return max_llrs;
}

std::vector<double> RunMonteCarloWorlds(const StatisticSimulation& simulation,
                                        const MonteCarloOptions& options) {
  return RunMonteCarloWorlds(simulation, options, nullptr);
}

}  // namespace sfa::core
