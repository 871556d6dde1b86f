// Shared null-calibration cache for multi-audit workloads.
//
// Under a fixed null model the simulated NullDistribution of the max scan
// statistic depends only on the simulation inputs: the region family's
// counting structure, the measure view's totals (N, P — and through them
// ρ = P/N), the scan direction, and the Monte Carlo options that shape the
// random draws. It does NOT depend on which request asked for it — so a
// batch that audits the same city at several α levels, or statistical-parity
// and equal-odds slices that happen to share a family binding and totals,
// needs ONE Monte Carlo run where the naive loop pays W-1 worlds per
// request. This cache keys calibrations by a content hash of exactly those
// inputs and shares the resulting NullDistribution across requests.
//
// Keys deliberately EXCLUDE the execution-only Monte Carlo knobs
// (batch_size, parallel): the world engine guarantees bit-identical maxima
// across them (core/mc_engine.h), so requests differing only there still
// share one calibration. Everything that can shift a drawn value —
// num_worlds, null model, seed, closed_form_cells (different RNG stream) —
// is hashed, and so is the ScanStatistic's Fingerprint(): the statistic's
// kind, configuration (direction / class count), and view totals beyond N
// are part of the calibration identity, so a Bernoulli and a multinomial
// calibration over the same family and N can never collide in the cache or
// the persistent store.
#ifndef SFA_CORE_CALIBRATION_CACHE_H_
#define SFA_CORE_CALIBRATION_CACHE_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/region_family.h"
#include "core/significance.h"

namespace sfa::core {

class CalibrationStore;  // core/calibration_store.h
class ScanStatistic;     // core/scan_statistic.h

/// Content-hashed identity of one null calibration.
struct CalibrationKey {
  /// 64-bit content hash over the family fingerprint (Name(), point and
  /// region counts, per-region n(R), cell profile, and the count vectors of
  /// three fixed pseudo-random probe worlds — the latter capture membership
  /// structure that size profiles miss), the view totals, the direction,
  /// and the draw-relevant Monte Carlo options.
  uint64_t hash = 0;
  /// Human-readable rendering for manifests and collision disambiguation;
  /// equality compares BOTH hash and this string.
  std::string debug;

  bool operator==(const CalibrationKey& other) const {
    return hash == other.hash && debug == other.debug;
  }
  bool operator!=(const CalibrationKey& other) const { return !(*this == other); }
};

/// The family-only part of the key: Name(), size profiles, and the probe
/// worlds. This walks every region and counts the three probe worlds in one
/// 3-plane CountPlaneBytes pass, on every call: RegionFamily::Fingerprint()
/// is the cached value the keys read.
uint64_t FamilyFingerprint(const RegionFamily& family);

/// Builds the calibration key for `statistic` (which carries the view totals
/// and its own fingerprint; statistic.total_n() must equal
/// family.num_points()) simulated over `family` with `options`, from
/// family.Fingerprint().
CalibrationKey MakeCalibrationKey(const RegionFamily& family,
                                  const ScanStatistic& statistic,
                                  const MonteCarloOptions& options);

/// Same, with a given FamilyFingerprint(family).
CalibrationKey MakeCalibrationKey(const RegionFamily& family,
                                  uint64_t fingerprint,
                                  const ScanStatistic& statistic,
                                  const MonteCarloOptions& options);

/// Execution-only context handed to a calibration computation by
/// CalibrationCache::GetOrCompute. When the cross-process lease fabric is
/// active (CalibrationStore::Options::lease_ttl_ms > 0), `heartbeat` reports
/// the holder's liveness through the key's lease file — wire it into
/// MonteCarloOptions::heartbeat so it fires at world-batch boundaries
/// (rate-limited internally, thread-safe, free when called often). May be
/// empty (no fabric): callers must check before invoking.
struct ComputeContext {
  std::function<void()> heartbeat;
};

/// Thread-safe get-or-compute cache of NullDistributions. Values are
/// immutable and shared by pointer; a cached hit therefore yields the exact
/// same distribution object a fresh simulation would produce (the simulation
/// is deterministic in the key's inputs). Single-flight: concurrent callers
/// of the same key run the computation once and share its result (or its
/// error).
///
/// Internally striped: slots live in kNumShards independent shards selected
/// by the key's content hash, each with its own mutex and wakeup CV, so
/// lookups of distinct keys from many stream workers don't serialize on one
/// lock. Striping is invisible to callers — single-flight still holds per
/// key (a key maps to exactly one shard), and stats() aggregates across
/// shards.
class CalibrationCache {
 public:
  static constexpr size_t kNumShards = 16;
  struct Stats {
    uint64_t hits = 0;    ///< lookups served from a finished entry
    uint64_t misses = 0;  ///< lookups that ran (or joined) a computation
    uint64_t entries = 0; ///< distinct calibrations currently cached
    uint64_t store_hits = 0;   ///< misses served by the persistent store
    uint64_t store_writes = 0; ///< persists: write-behind queued, or leased
                               ///< write-throughs that landed
  };

  /// Where a GetOrCompute value came from. Diagnostic only — the value is
  /// byte-identical across all three sources (that is the point of the
  /// content-hashed key and the deterministic simulation).
  enum class Source {
    kMemory,    ///< already cached in memory (or joined an in-flight compute)
    kStore,     ///< read through from the attached CalibrationStore
    kComputed,  ///< simulated fresh by this call
  };

  CalibrationCache() = default;
  /// Blocks on outstanding write-behind persists (see AttachStore).
  ~CalibrationCache();
  CalibrationCache(const CalibrationCache&) = delete;
  CalibrationCache& operator=(const CalibrationCache&) = delete;

  /// Attaches a persistent backing store, making the cache a read-through /
  /// write-behind layer: a memory miss first consults the store (a valid
  /// frame is adopted without simulating), and freshly computed calibrations
  /// are persisted asynchronously on the default thread pool so the compute
  /// path never waits on disk. Call FlushStore() (or destroy the cache)
  /// before relying on durability. Attach at most once, before concurrent
  /// use; `store` is shared because write-behind tasks may outlive callers.
  void AttachStore(std::shared_ptr<CalibrationStore> store);
  const std::shared_ptr<CalibrationStore>& store() const { return store_; }

  /// Blocks until every queued write-behind persist has landed on disk.
  void FlushStore();

  using ComputeFn =
      std::function<Result<NullDistribution>(const ComputeContext&)>;
  /// Polled while this process is blocked on a FOREIGN process's lease for
  /// the key; returning true abandons the wait and runs `compute` locally
  /// (whose own cancel/deadline checks then decide promptly — and if it does
  /// run to completion, the result is byte-identical to the holder's, merely
  /// duplicated). Empty = wait for the holder indefinitely.
  using WaitStopped = std::function<bool()>;

  /// Returns the calibration for `key`, invoking `compute` at most once per
  /// key (errors are NOT cached: a failed computation clears the slot so a
  /// later call may retry). `compute` runs without the cache lock held and
  /// may itself parallelize on the shared pool. `source` (optional) reports
  /// where the value came from.
  ///
  /// With a lease-enabled store attached, single-flight extends across
  /// processes: the in-process owner additionally acquires the key's lease
  /// file before simulating (re-checking the store after acquisition, since
  /// a previous holder may have just persisted the frame), heartbeats
  /// through ComputeContext while computing, writes the frame THROUGH
  /// synchronously (not behind — peers re-check the store the moment the
  /// lease releases), and releases. When a live foreign process holds the
  /// lease, this process polls the store (lease_wait_poll_ms) instead of
  /// simulating; a holder that dies is taken over via the store's staleness
  /// rules and costs at most one recompute.
  Result<std::shared_ptr<const NullDistribution>> GetOrCompute(
      const CalibrationKey& key, const ComputeFn& compute,
      Source* source = nullptr, const WaitStopped& wait_stopped = nullptr);

  /// Context-free convenience overload for computations that don't report
  /// heartbeats (batch paths, tests).
  Result<std::shared_ptr<const NullDistribution>> GetOrCompute(
      const CalibrationKey& key,
      const std::function<Result<NullDistribution>()>& compute,
      Source* source = nullptr);

  /// Lookup without computing; nullptr when absent or still in flight. A
  /// successful lookup counts as a hit in stats(); a failed one changes
  /// nothing (the caller presumably proceeds to GetOrCompute, which records
  /// the miss).
  std::shared_ptr<const NullDistribution> Lookup(const CalibrationKey& key) const;

  Stats stats() const;

  /// Drops every cached calibration and resets the stats.
  void Clear();

 private:
  struct Slot {
    std::shared_ptr<const NullDistribution> value;
    Status status = Status::OK();
    bool ready = false;
  };

  /// One lock stripe: its own mutex, single-flight wakeup CV, slot map, and
  /// stat counters (aggregated by stats()).
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable slot_ready;
    /// Keyed by the debug rendering (which embeds the content hash), so two
    /// keys collide only when hash AND rendering agree — CalibrationKey
    /// equality exactly.
    std::unordered_map<std::string, std::shared_ptr<Slot>> slots;
    mutable uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t store_hits = 0;
    uint64_t store_writes = 0;
  };

  /// The key's shard. The content hash is already SplitMix64-dispersed, so
  /// the low bits stripe evenly.
  Shard& ShardFor(const CalibrationKey& key) const {
    return shards_[key.hash % kNumShards];
  }

  /// The cross-process arm of the owner path: lease-acquire / store-recheck
  /// / compute-with-heartbeat / write-through / release, or poll a live
  /// foreign holder. Sets *from_store when the frame came off disk and
  /// *wrote_through when this call already persisted it (suppressing the
  /// write-behind).
  Result<NullDistribution> ComputeWithLease(const CalibrationStore& store,
                                            const CalibrationKey& key,
                                            const ComputeFn& compute,
                                            const WaitStopped& wait_stopped,
                                            bool* from_store,
                                            bool* wrote_through) const;

  mutable std::array<Shard, kNumShards> shards_;
  /// Persistence layer. Immutable after AttachStore, which the contract
  /// requires to happen before concurrent use — reads take no lock.
  std::shared_ptr<CalibrationStore> store_;
  /// Outstanding write-behind persists; FlushStore waits on it (helping).
  ThreadPool::TaskGroup store_writes_group_;
};

}  // namespace sfa::core

#endif  // SFA_CORE_CALIBRATION_CACHE_H_
