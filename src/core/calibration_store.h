// Persistent, versioned on-disk store of null calibrations, so Monte Carlo
// calibration survives the process: a pipeline warm-started from a store
// directory skips every simulation a previous process already paid for and
// still produces byte-identical AuditResponses (doubles round-trip exactly
// through the binary format; keys content-hash every draw-relevant input, so
// a loaded NullDistribution IS the one a fresh simulation would produce).
//
// Layout: one file per calibration under the store directory, named by the
// key's content hash plus a hash of its debug rendering (CalibrationKey
// equality compares both, so hash-colliding keys get distinct files). Each
// file is a self-verifying binary frame:
//
//   magic "SFANULLD" | u32 version | u64 key hash | u32 debug len | debug
//   bytes | zero pad to 8-align what follows | u64 world count | f64 sorted
//   maxima (descending) | u64 worlds requested | u32 stop reason | u64
//   FNV-1a checksum of everything before it
//
// The pad places the maxima array on an 8-byte boundary, so the zero-copy
// warm path (LoadView) can serve a span straight out of an mmap'd frame.
//
// Writes are crash-safe: the frame is written to a dot-temp file in the same
// directory and atomically renamed into place, so readers (including
// concurrent pipelines sharing the directory) only ever observe absent or
// complete files; concurrent writers of the same key race benignly (their
// bytes are identical). Loads are corruption-tolerant by contract: ANY
// defect — short file, bad magic, foreign version, checksum or key mismatch
// — surfaces as NotFound, which callers (CalibrationCache read-through)
// treat as a miss and recompute; a corrupt file can therefore never poison a
// result, only cost a simulation.
//
// Failure semantics (this layer is the serving stack's disk boundary):
//   * Transient write failures are retried with bounded exponential backoff
//     and seeded jitter (reproducible wait sequences). Only IOError is
//     considered transient; any other code fails the Store immediately.
//   * A frame that fails Load validation is moved into a `quarantine/`
//     subdirectory (counted in stats().quarantined) so the defective bytes
//     are kept for forensics but never re-parsed on every subsequent load —
//     after quarantine the key is a clean miss.
//   * A circuit breaker opens after `breaker_failure_threshold` consecutive
//     Store failures (post-retry), e.g. a full disk. While open, Store
//     fast-fails with ResourceExhausted and Load fast-fails with NotFound —
//     the cache's miss→recompute contract turns that into memory-only
//     serving with zero caller changes. After `breaker_probe_after_ms` one
//     Store attempt is let through as a probe; success closes the breaker,
//     failure re-arms the probe timer.
//
// Fault drills inject at the `store.load`, `store.write`, `store.rename` and
// `store.evict` failpoints (common/failpoint.h); `store.write` accepts
// truncate/corrupt actions to simulate torn writes that land on disk.
//
// Multi-process fabric (opt-in via Options::lease_ttl_ms > 0): N processes
// sharing one directory coordinate through per-key lease files under
// `leases/` (common/lease.h) so a key is simulated by at most one process at
// a time, and every Open runs a RecoverySweep that reaps `.tmp.*` frames
// orphaned by killed writers, reclaims stale leases, and bounds quarantine/
// by bytes — so a kill -9 anywhere costs at most one recompute, never a torn
// frame or leaked disk.
#ifndef SFA_CORE_CALIBRATION_STORE_H_
#define SFA_CORE_CALIBRATION_STORE_H_

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>

#include "common/lease.h"
#include "common/mmap_file.h"
#include "common/random.h"
#include "common/status.h"
#include "core/calibration_cache.h"
#include "core/significance.h"

namespace sfa::core {

class CalibrationStore {
 public:
  /// Bumped whenever the frame layout OR the keyspace semantics change;
  /// loaders reject every other version (forward AND backward) as NotFound
  /// so mixed-version fleets sharing a directory degrade to recompute, never
  /// to misparse. v1 → v2: calibration keys embed the ScanStatistic
  /// fingerprint (core/scan_statistic.h), so v1 frames — keyed without a
  /// statistic identity — must never be adopted by a statistic-aware reader.
  /// v2 → v3: frames append the adaptive-stop metadata (worlds_requested +
  /// stop reason) after the maxima, so an early-stopped calibration
  /// round-trips as early-stopped instead of masquerading as a full run of
  /// its truncated length. v3 → v4: zero padding between the key debug bytes
  /// and the world count aligns the maxima array to 8 bytes, so the
  /// zero-copy mmap path can serve a `std::span<const double>` straight out
  /// of the mapping without ever forming a misaligned pointer.
  static constexpr uint32_t kFormatVersion = 4;

  struct Options {
    std::string directory;
    /// Create the directory (and parents) on Open when absent.
    bool create_if_missing = true;
    /// Size budget for eviction sweeps (total bytes of calibration frames);
    /// 0 = unbounded. Enforced by EvictToBudget and the startup sweep — not
    /// continuously on writes.
    uint64_t max_bytes = 0;
    /// Run EvictToBudget(max_bytes) during Open, so a long-lived directory
    /// no longer grows without bound across process generations. A no-op
    /// when max_bytes == 0 (unbounded) — an explicit EvictToBudget(0) call
    /// is the only way to clear everything.
    bool sweep_on_open = false;
    /// Extra write attempts after a transient (IOError) Store failure.
    uint32_t store_retries = 2;
    /// Backoff before retry k (1-based) is
    /// min(backoff_max_ms, backoff_initial_ms * 2^(k-1)) scaled by a jitter
    /// factor in [0.5, 1) drawn from a stream seeded with backoff_seed —
    /// deterministic wait sequences, no cross-process thundering herd.
    double backoff_initial_ms = 0.5;
    double backoff_max_ms = 8.0;
    uint64_t backoff_seed = 0x5FAB0FFULL;
    /// Move frames that fail Load validation into `<directory>/quarantine/`
    /// instead of leaving them in place to be re-parsed (and re-rejected)
    /// forever. Disable only for forensic setups that want rejects in situ.
    bool quarantine_rejects = true;
    /// Consecutive post-retry Store failures that open the circuit breaker;
    /// 0 disables the breaker entirely.
    uint32_t breaker_failure_threshold = 3;
    /// While the breaker is open, one Store is admitted as a probe after
    /// this many milliseconds (and again after every failed probe).
    double breaker_probe_after_ms = 250.0;
    /// Byte budget for `quarantine/`, enforced oldest-first by RecoverySweep
    /// and EvictToBudget; 0 = unbounded (the pre-fabric behavior, where
    /// rejected frames accumulate forever).
    uint64_t quarantine_max_bytes = 0;
    /// Grace window for in-flight writer temps: a `.tmp.*` file is reaped by
    /// RecoverySweep/EvictToBudget when its embedded writer pid is dead, or
    /// when it is older than this many milliseconds (<= 0 disables the age
    /// arm; dead-writer reaping always applies). The default comfortably
    /// exceeds any legitimate write-temp lifetime (microseconds).
    double temp_reap_grace_ms = 60'000.0;
    /// Cross-process singleflight: TTL after which a per-key lease file with
    /// no heartbeats counts as stale and may be taken over. 0 disables
    /// leases entirely — single-process deployments keep the in-process
    /// singleflight and write-behind exactly as before.
    double lease_ttl_ms = 0.0;
    /// Minimum interval between lease heartbeat mtime touches; calls more
    /// frequent than this (e.g. per MC batch boundary) are free no-ops.
    double lease_heartbeat_interval_ms = 100.0;
    /// How long a non-owner sleeps between store re-checks while a live
    /// foreign process holds the key's lease.
    double lease_wait_poll_ms = 5.0;
  };

  /// Cumulative counters (monotone over the store's lifetime; thread-safe).
  struct Stats {
    uint64_t load_hits = 0;      ///< loads that returned a calibration
    uint64_t load_misses = 0;    ///< loads with no file for the key
    uint64_t load_rejected = 0;  ///< loads with a file that failed validation
    uint64_t stores = 0;         ///< successful writes
    uint64_t store_failures = 0; ///< Store calls that failed after retries
    uint64_t store_retries = 0;  ///< individual write attempts retried
    uint64_t evicted_files = 0;  ///< frames deleted by eviction sweeps
    uint64_t evicted_bytes = 0;  ///< bytes reclaimed by eviction sweeps
    uint64_t quarantined = 0;    ///< rejected frames moved to quarantine/
    uint64_t breaker_trips = 0;      ///< closed→open transitions
    uint64_t breaker_fast_fails = 0; ///< Store/Load calls bounced while open
    uint64_t temps_reaped = 0;       ///< orphaned .tmp.* writer files deleted
    uint64_t leases_reclaimed = 0;   ///< stale lease files/tombstones swept
    uint64_t quarantine_evicted_files = 0;  ///< quarantine/ byte-budget GC
    uint64_t quarantine_evicted_bytes = 0;
    uint64_t leases_acquired = 0;    ///< TryAcquireLease calls that won
    uint64_t lease_takeovers = 0;    ///< wins that reclaimed a stale holder
    uint64_t lease_contention = 0;   ///< attempts that saw a live foreign holder
    uint64_t index_hits = 0;     ///< warm hits answered by the in-memory index
    uint64_t mmap_loads = 0;     ///< LoadView hits served from a mapping
    uint64_t remap_races = 0;    ///< mapped frames remapped after a foreign rewrite
    uint64_t touch_failures = 0; ///< LRU mtime touches that failed (read-only fs)
    bool breaker_open = false;       ///< snapshot, not a counter
    uint64_t mmap_frames = 0;        ///< gauge: live mappings held by the index
    uint64_t mmap_bytes = 0;         ///< gauge: bytes of those mappings
  };

  /// Opens (and optionally creates) a store directory.
  static Result<std::unique_ptr<CalibrationStore>> Open(const Options& options);

  const std::string& directory() const { return options_.directory; }

  /// Loads the calibration persisted for `key` as an owned copy (never
  /// zero_copy(); the maxima are re-sorted descending, a no-op for a
  /// well-formed frame). NotFound when the key has no file OR its file fails
  /// any validation (truncation, corruption, version or key mismatch; the
  /// defective frame is quarantined) OR the circuit breaker is open — the
  /// caller recomputes either way. IOError only for filesystem-level read
  /// failures of an existing file. A warm hit on a frame this process
  /// already validated, unchanged per its index signature, skips the
  /// checksum.
  Result<NullDistribution> Load(const CalibrationKey& key) const;

  /// Zero-copy warm path: like Load, but a hit is served as a
  /// NullDistributionView over an mmap'd read-only frame. The frame is
  /// validated (magic/version/checksum/key/sortedness) ONCE per mapped
  /// generation; subsequent hits cost one open + fstat (foreign-writer
  /// detection via the index's size/mtime signature) and zero copies.
  /// Eviction and re-Store are safe against outstanding views: POSIX keeps
  /// unlinked pages alive until the last view drops, and a signature change
  /// triggers a remap (counted in stats().remap_races) so new hits see the
  /// new generation. When the mapping fails (`store.mmap` failpoint, exotic
  /// filesystems) or the frame's maxima are not sorted, the hit is served as
  /// Load serves it: an owned, re-sorted copy with identical results.
  Result<NullDistributionView> LoadView(const CalibrationKey& key) const;

  /// Persists `distribution` for `key` (atomic rename; replaces any previous
  /// frame for the key). Transient IOError failures are retried per the
  /// backoff options; with the breaker open, fails ResourceExhausted without
  /// touching the disk (except for the periodic probe attempt).
  Status Store(const CalibrationKey& key,
               const NullDistribution& distribution) const;

  /// The quarantine directory defective frames are moved into.
  std::string QuarantineDir() const;

  /// The file a key maps to (exposed for tests and manifests).
  std::string FilePathFor(const CalibrationKey& key) const;

  /// Size-capped LRU sweep: deletes calibration frames — least-recently-used
  /// first, judged by filesystem mtime (Store writes and Load hits both
  /// refresh it), ties broken by name for determinism — until the total
  /// bytes of `.nulldist` files is <= budget_bytes. Concurrent-writer safe:
  /// a frame evicted while another process still wants it costs that process
  /// one recompute (the cache's NotFound→recompute contract), never a wrong
  /// result. Returns the number of files deleted.
  Result<uint64_t> EvictToBudget(uint64_t budget_bytes) const;

  /// Crash-recovery sweep, run by Open on every start and callable any time:
  /// reaps orphaned writer temps (dead pid or past the grace window),
  /// reclaims stale leases and abandoned takeover tombstones under leases/,
  /// and GCs quarantine/ oldest-first to its byte budget. Everything is
  /// best-effort and concurrent-sweeper safe (losing a removal race just
  /// means the peer counted it); results land in stats().
  void RecoverySweep() const;

  /// Whether the cross-process lease protocol is enabled for this store.
  bool leases_enabled() const { return options_.lease_ttl_ms > 0.0; }

  /// One non-blocking attempt to become the cross-process owner for `key`.
  /// On success the outcome carries the lease (heartbeat at batch
  /// boundaries, Release when the frame is persisted); when a live foreign
  /// process holds it, outcome.lease is null and the caller should poll the
  /// store (options().lease_wait_poll_ms) for the holder's frame. Requires
  /// leases_enabled().
  Result<FileLease::AcquireOutcome> TryAcquireLease(
      const CalibrationKey& key) const;

  /// The directory lease files live in (`<directory>/leases`).
  std::string LeaseDir() const;

  /// The lease file a key maps to (same stem as FilePathFor).
  std::string LeasePathFor(const CalibrationKey& key) const;

  const Options& options() const { return options_; }

  Stats stats() const;

 private:
  explicit CalibrationStore(Options options);

  /// A validated mmap'd frame: the mapping plus spans/metadata parsed out of
  /// it. Handed to readers behind a shared_ptr (aliased as the
  /// NullDistributionView's backing), so eviction/replacement in the index
  /// never invalidates an outstanding view.
  struct MappedFrame {
    MmapFile file;
    std::span<const double> maxima;  // points into file, sorted descending
    uint64_t worlds_requested = 0;
    McStopReason stop_reason = McStopReason::kNone;
  };

  /// Per-frame in-memory index entry (keyed by frame filename). The
  /// (size, mtime) pair is the warm-hit signature: one fstat per hit
  /// detects foreign-process rewrites. A local Store clears `validated`, so
  /// a rewrite landing within the mtime granularity is still re-validated.
  struct IndexEntry {
    uint64_t size = 0;
    std::filesystem::file_time_type mtime{};
    bool validated = false;  ///< frame passed full validation this process
    /// In-memory recency fallback: set when the LRU mtime touch fails
    /// (read-only directory); EvictToBudget orders by max(mtime, last_used).
    /// min() = "never" (the default-constructed file_time_type is NOT a safe
    /// sentinel — libstdc++'s file clock epoch is in the future).
    std::filesystem::file_time_type last_used =
        std::filesystem::file_time_type::min();
    std::shared_ptr<const MappedFrame> mapped;  ///< null on the copy path
  };

  /// The one frame read behind Load (`want_view` false: always an owned
  /// copy) and LoadView (true: the mapping when possible). In order: the
  /// breaker gate, the `store.load` failpoint, one open + fstat for the
  /// signature, the bytes (an existing or fresh mapping, or a read buffer),
  /// the structural parse, the checksum unless the index vouches for a read,
  /// reject + quarantine, then the index update and the LRU touch.
  Result<NullDistribution> ReadFrame(const CalibrationKey& key,
                                     bool want_view) const;

  /// One frame-build + temp-write + rename attempt (no retry, no breaker).
  Status WriteFrameOnce(const CalibrationKey& key,
                        const NullDistribution& distribution) const;
  /// Best-effort move of a rejected frame into quarantine/. Returns true
  /// when the file actually moved (caller counts it).
  bool QuarantineFrame(const std::string& path) const;
  /// Deletes `.tmp.*` files whose writer died or whose age exceeds the grace
  /// window; counts into stats().temps_reaped.
  void SweepOrphanTemps() const;
  /// Oldest-first GC of quarantine/ down to quarantine_max_bytes (no-op when
  /// the budget is 0); counts into stats().quarantine_evicted_*.
  void EnforceQuarantineBudget() const;

  /// Best-effort LRU recency bump for a just-served frame: touch the file
  /// mtime; on failure (read-only directory/filesystem) degrade to the
  /// index's in-memory last_used and count stats().touch_failures — never
  /// retry on the hit path.
  void TouchForLru(const std::string& path) const;

  /// Releases `entry`'s mapping (and its gauges), if any; outstanding views
  /// keep their pages via their shared backing.
  void RetireMappingLocked(IndexEntry* entry) const;

  /// Drops `filename` from the index (releasing its mapping gauge-wise);
  /// outstanding views keep their pages via their shared backing.
  void ForgetIndexEntryLocked(const std::string& filename) const;

  /// Seeds the index with the directory's frames at Open (signatures only,
  /// validated = false — the first load of each frame still validates it).
  void BuildIndex() const;

  Options options_;
  mutable std::mutex mu_;  ///< guards stats_, breaker state, rng, temp
                           ///< counter, and index_
  mutable Stats stats_;
  mutable std::unordered_map<std::string, IndexEntry> index_;
  mutable uint64_t temp_counter_ = 0;
  mutable Rng backoff_rng_;

  // Circuit breaker state (guarded by mu_).
  mutable bool breaker_open_ = false;
  mutable bool breaker_probing_ = false;  ///< one probe in flight
  mutable uint32_t consecutive_store_failures_ = 0;
  mutable std::chrono::steady_clock::time_point breaker_probe_at_{};
};

}  // namespace sfa::core

#endif  // SFA_CORE_CALIBRATION_STORE_H_
