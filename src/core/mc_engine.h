// The generic Monte Carlo world engine: runs any ScanStatistic's per-
// simulation context (StatisticSimulation) over options.num_worlds null
// worlds, organized around the statistic-agnostic cost levers:
//
//   allocation-free batches     worlds are processed in batches of B
//                               (options.batch_size, on a parallel run
//                               capped near one worker's share of the
//                               range) through the simulation's
//                               RunWorldBatch, whose per-world buffers live
//                               in statistic-owned thread-local arenas;
//   two-level parallelism       batches fan out on the shared thread pool
//                               (options.parallel), nested safely inside
//                               pipeline-level parallelism via the pool's
//                               helping WaitGroup.
//
// The statistic-specific levers — closed-form per-cell null sampling,
// integer-threshold per-point draws (Bernoulli labels and K-class
// Categorical classes), the shared k·log k LLR table, the size-grouped
// Bernoulli LLR max, 64-world annulus walks — live inside the
// StatisticSimulation implementations (core/bernoulli_statistic.cc,
// core/multinomial_statistic.cc).
//
// Each world draws its randomness from its own RNG substream
// (Rng::Split(world)) inside the simulation, so a NullDistribution is
// bit-identical for a fixed seed, independent of batch size, thread count,
// and parallel on/off. The tests hold every engine run to a per-world
// oracle that evaluates every region's Λ from scalar counts
// (testing::ReferenceNullMaxima in tests/testing_util.h): test_mc_engine.cc
// for Bernoulli across every bundled family and both null models,
// test_scan_statistic.cc and test_annulus_index.cc for multinomial.
#ifndef SFA_CORE_MC_ENGINE_H_
#define SFA_CORE_MC_ENGINE_H_

#include <cstdint>
#include <vector>

#include "core/scan_statistic.h"
#include "core/significance.h"

namespace sfa::core {

/// How a Monte Carlo run ended. `worlds_completed` is always a CONTIGUOUS
/// prefix [0, worlds_completed) of the world index space: a stopped parallel
/// run may have finished later batches out of order, but those are discarded
/// so the surviving maxima are a pure function of (options, worlds_completed)
/// — the foundation of deterministic degraded responses (a partial p-value is
/// byte-reproducible given the completed-world count, regardless of thread
/// count or which wall-clock instant tripped the stop).
struct McRunOutcome {
  size_t worlds_completed = 0;
  bool complete = true;
  Status stop_cause;  ///< OK when complete; Cancelled/DeadlineExceeded/injected
  /// Adaptive sequential stop verdict (options.adaptive): a CI verdict when
  /// the run decided early BY DESIGN, kNone otherwise. An adaptive stop is a
  /// successful completion — `complete` stays true, stop_cause stays OK, and
  /// the maxima prefix [0, worlds_completed) IS the calibration (still
  /// byte-identical to a fixed-num_worlds run of that length).
  McStopReason stop_reason = McStopReason::kNone;

  bool early_stopped() const { return stop_reason != McStopReason::kNone; }
};

/// Runs `simulation` over options.num_worlds null worlds and returns their
/// max statistics in world order (unsorted). Inputs are assumed validated by
/// SimulateNull.
///
/// When `outcome` is non-null, the engine polls options.cancel /
/// options.deadline (and the `mc_engine.batch` failpoint) at every batch
/// boundary and may stop early: the returned vector is then truncated to the
/// completed contiguous world prefix and *outcome says why. With a null
/// `outcome` the stop controls are ignored and the run always completes.
///
/// Adaptive sequential stopping (options.adaptive.enabled): worlds run in
/// serial chunks of adaptive.check_every (each chunk batched/parallel per
/// the execution options); after each chunk a Wilson CI on the exceedance
/// probability of adaptive.observed decides whether the p-value-vs-alpha
/// verdict is settled, and the run stops at the first settled boundary
/// (outcome->stop_reason records which side). The stop point depends ONLY on
/// the decision-relevant options — worlds draw from per-world substreams and
/// chunk boundaries are fixed by check_every — never on batch size, thread
/// count, or parallel on/off, so adaptive runs keep the engine's determinism
/// contract. Adaptive runs always report through an outcome (a local one is
/// used if the caller passed none, making them stoppable by construction).
std::vector<double> RunMonteCarloWorlds(const StatisticSimulation& simulation,
                                        const MonteCarloOptions& options,
                                        McRunOutcome* outcome);

std::vector<double> RunMonteCarloWorlds(const StatisticSimulation& simulation,
                                        const MonteCarloOptions& options);

}  // namespace sfa::core

#endif  // SFA_CORE_MC_ENGINE_H_
