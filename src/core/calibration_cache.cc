#include "core/calibration_cache.h"

#include <bit>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/calibration_store.h"
#include "core/labels.h"
#include "core/scan_statistic.h"

namespace sfa::core {

namespace {

/// SplitMix64 finalizer as the mixing step of a running 64-bit content hash:
/// cheap, well-dispersed, and endian-independent for the integer fields we
/// feed it.
uint64_t Mix(uint64_t h, uint64_t value) {
  uint64_t z = (h ^ value) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t MixBytes(uint64_t h, const char* data, size_t n) {
  uint64_t word = 0;
  size_t filled = 0;
  for (size_t i = 0; i < n; ++i) {
    word |= static_cast<uint64_t>(static_cast<unsigned char>(data[i]))
            << (8 * filled);
    if (++filled == 8) {
      h = Mix(h, word);
      word = 0;
      filled = 0;
    }
  }
  if (filled > 0) h = Mix(h, word | (static_cast<uint64_t>(filled) << 56));
  return Mix(h, n);
}

}  // namespace

uint64_t FamilyFingerprint(const RegionFamily& family) {
  // Structural fingerprint of the family: its self-description, the full
  // per-region point-count profile, the per-cell profile when the family is
  // cell-decomposable (the closed-form sampler draws one binomial per cell,
  // so cell structure shapes the RNG stream) — and, because none of those
  // capture *membership* (two kNN families over different cities share every
  // per-region count), the count vectors of a few fixed pseudo-random probe
  // worlds. The null distribution of max Λ is a functional of how region
  // counts respond to random labelings, so probing with deterministic label
  // worlds fingerprints exactly the structure that shapes it; each probe
  // costs one world-equivalent CountPositives pass, noise against the W-1
  // worlds a key collision would wrongly share.
  uint64_t fp = 0x5fa0c0de5fa0c0deULL;
  const std::string name = family.Name();
  fp = MixBytes(fp, name.data(), name.size());
  fp = Mix(fp, family.num_points());
  fp = Mix(fp, family.num_regions());
  for (size_t r = 0; r < family.num_regions(); ++r) {
    fp = Mix(fp, family.PointCount(r));
  }
  if (const CellDecomposition* cells = family.cell_decomposition()) {
    fp = Mix(fp, cells->cell_counts.size());
    for (uint32_t c : cells->cell_counts) fp = Mix(fp, c);
    fp = Mix(fp, cells->num_outside);
  }
  {
    // Fixed probe seed, unrelated to any Monte Carlo stream: the probes are
    // structural identity, not simulation randomness.
    Rng probe_rng(0x9d0be5fa0c0de001ULL);
    std::vector<uint64_t> counts;
    for (int probe = 0; probe < 3; ++probe) {
      const Labels labels =
          Labels::SampleBernoulli(family.num_points(), 0.5, &probe_rng);
      family.CountPositives(labels, &counts);
      for (uint64_t c : counts) fp = Mix(fp, c);
    }
  }
  return fp;
}

CalibrationKey MakeCalibrationKey(const RegionFamily& family,
                                  const ScanStatistic& statistic,
                                  const MonteCarloOptions& options) {
  return MakeCalibrationKey(family, FamilyFingerprint(family), statistic,
                            options);
}

CalibrationKey MakeCalibrationKey(const RegionFamily& family,
                                  uint64_t fingerprint,
                                  const ScanStatistic& statistic,
                                  const MonteCarloOptions& options) {
  SFA_DCHECK(statistic.total_n() == family.num_points());
  const uint64_t fp = fingerprint;
  const std::string name = family.Name();
  const std::string stat_fp = statistic.Fingerprint();

  // Draw-relevant inputs. engine / batch_size / parallel are intentionally
  // absent: the world engine is bit-identical across them (core/mc_engine.h).
  // The statistic fingerprint carries everything statistic-specific that
  // shapes the draws or the arithmetic (kind, direction/class config, view
  // totals beyond N).
  uint64_t h = fp;
  h = Mix(h, statistic.total_n());
  h = MixBytes(h, stat_fp.data(), stat_fp.size());
  h = Mix(h, options.num_worlds);
  h = Mix(h, static_cast<uint64_t>(options.null_model));
  h = Mix(h, options.seed);
  h = Mix(h, options.closed_form_cells ? 1u : 0u);
  if (options.adaptive.enabled) {
    // Adaptive runs may legitimately complete FEWER worlds than num_worlds,
    // and where they stop depends on (observed, alpha, min_worlds,
    // check_every, z). Hashing those keeps an early-stopped calibration from
    // silently aliasing a full-precision one — a full-num_worlds request
    // recomputes instead of inheriting a truncated null. The cost: adaptive
    // calibrations are per-(observed, alpha), so alpha sweeps over one
    // dataset do not share them (see AdaptiveMcOptions in significance.h).
    h = Mix(h, 0xada9717eULL);  // domain marker: adaptive key space
    h = Mix(h, std::bit_cast<uint64_t>(options.adaptive.observed));
    h = Mix(h, std::bit_cast<uint64_t>(options.adaptive.alpha));
    h = Mix(h, std::bit_cast<uint64_t>(options.adaptive.z));
    h = Mix(h, options.adaptive.min_worlds);
    h = Mix(h, options.adaptive.check_every);
  }

  CalibrationKey key;
  key.hash = h;
  key.debug = StrFormat(
      "family=\"%s\" regions=%zu N=%llu stat=\"%s\" worlds=%u null=%s "
      "seed=%llu cf=%d fp=%016llx",
      name.c_str(), family.num_regions(),
      static_cast<unsigned long long>(statistic.total_n()), stat_fp.c_str(),
      options.num_worlds, NullModelToString(options.null_model),
      static_cast<unsigned long long>(options.seed),
      options.closed_form_cells ? 1 : 0, static_cast<unsigned long long>(fp));
  if (options.adaptive.enabled) {
    key.debug += StrFormat(
        " adaptive(obs=%.17g alpha=%.17g min=%u every=%u z=%.17g)",
        options.adaptive.observed, options.adaptive.alpha,
        options.adaptive.min_worlds, options.adaptive.check_every,
        options.adaptive.z);
  }
  return key;
}

CalibrationCache::~CalibrationCache() { FlushStore(); }

void CalibrationCache::AttachStore(std::shared_ptr<CalibrationStore> store) {
  // Contractually before concurrent use, so plain assignment is safe and
  // GetOrCompute may read store_ without a lock.
  SFA_CHECK_MSG(store_ == nullptr, "CalibrationCache store attached twice");
  store_ = std::move(store);
}

void CalibrationCache::FlushStore() {
  // Crash drill: an error action skips the flush wait, modeling a process
  // that died before its write-behind persists landed. Safe to skip — the
  // queued tasks own their store/value by shared_ptr and still run; only the
  // "durable before return" promise is lost, which is exactly the drill.
  SFA_FAILPOINT_WITH("cache.flush", {
    if (fp_action.kind == FailpointActionKind::kError) return;
  });
  // Helping wait: safe even when called from a pool task (e.g. a pipeline
  // tearing down inside a scheduled request).
  DefaultThreadPool().WaitGroup(&store_writes_group_);
}

Result<std::shared_ptr<const NullDistribution>> CalibrationCache::GetOrCompute(
    const CalibrationKey& key,
    const std::function<Result<NullDistribution>()>& compute,
    Source* source) {
  return GetOrCompute(
      key, [&compute](const ComputeContext&) { return compute(); }, source);
}

Result<NullDistribution> CalibrationCache::ComputeWithLease(
    const CalibrationStore& store, const CalibrationKey& key,
    const ComputeFn& compute, const WaitStopped& wait_stopped,
    bool* from_store, bool* wrote_through) const {
  for (;;) {
    auto acquired = store.TryAcquireLease(key);
    if (!acquired.ok()) {
      // Lease infrastructure unavailable (unwritable leases/ etc.): degrade
      // to an unleased compute. Leases only dedupe cross-process work;
      // correctness never depends on them.
      return compute(ComputeContext{});
    }
    if (acquired->lease != nullptr) {
      FileLease& lease = *acquired->lease;
      // We are the cross-process owner. A previous holder may have persisted
      // the frame between our store miss and this acquisition (the takeover
      // path especially) — re-check before paying for the simulation.
      auto persisted = store.LoadView(key);
      if (persisted.ok()) {
        lease.Release();
        *from_store = true;
        return persisted;
      }
      ComputeContext context;
      FileLease* lease_ptr = &lease;
      context.heartbeat = [lease_ptr] { lease_ptr->Heartbeat(); };
      auto computed = compute(context);
      if (computed.ok()) {
        // Write THROUGH while still leased: a peer polling this lease
        // re-checks the store the moment it releases, so the frame must be
        // on disk before the release. A failed write is absorbed — the peer
        // then acquires and recomputes identically.
        if (store.Store(key, computed.value()).ok()) *wrote_through = true;
      }
      lease.Release();
      return computed;
    }
    // A live foreign process is simulating this key right now. Poll: it will
    // persist + release (store hit below), release without persisting (we
    // acquire next round), or die (its lease goes stale and the acquisition
    // above takes it over).
    if (wait_stopped && wait_stopped()) {
      // Our request is being cancelled/drained: stop waiting on the foreign
      // holder and run the computation locally — its own stop checks turn
      // this into a prompt Cancelled/DeadlineExceeded.
      return compute(ComputeContext{});
    }
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        store.options().lease_wait_poll_ms));
    auto persisted = store.LoadView(key);
    if (persisted.ok()) {
      *from_store = true;
      return persisted;
    }
  }
}

Result<std::shared_ptr<const NullDistribution>> CalibrationCache::GetOrCompute(
    const CalibrationKey& key, const ComputeFn& compute, Source* source,
    const WaitStopped& wait_stopped) {
  if (source != nullptr) *source = Source::kMemory;
  Shard& shard = ShardFor(key);
  std::shared_ptr<Slot> slot;
  bool owner = false;
  std::shared_ptr<CalibrationStore> store;
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    auto it = shard.slots.find(key.debug);
    if (it == shard.slots.end()) {
      slot = std::make_shared<Slot>();
      shard.slots.emplace(key.debug, slot);
      owner = true;
      ++shard.misses;
      store = store_;
    } else {
      slot = it->second;
      if (slot->ready) {
        ++shard.hits;
        return slot->value;
      }
      // Joining an in-flight computation still counts as a miss: the caller
      // pays (waits for) the simulation rather than being served instantly.
      ++shard.misses;
    }
  }

  if (owner) {
    // Read-through: a valid persisted frame substitutes for the simulation
    // (it holds the exact bytes the simulation would produce), served as a
    // zero-copy view over the store's mmap'd frame when the warm path is
    // enabled (copy-on-load otherwise — bit-identical either way). Any load
    // defect — absent, truncated, corrupt, version-skewed — falls back to
    // compute(), leased across processes when the store runs the fabric.
    Result<NullDistribution> computed = Status::NotFound("no store attached");
    bool from_store = false;
    bool wrote_through = false;
    if (store != nullptr) {
      computed = store->LoadView(key);
      from_store = computed.ok();
    }
    if (!from_store) {
      if (store != nullptr && store->leases_enabled()) {
        computed = ComputeWithLease(*store, key, compute, wait_stopped,
                                    &from_store, &wrote_through);
      } else {
        computed = compute(ComputeContext{});
      }
    }
    std::unique_lock<std::mutex> lock(shard.mu);
    if (computed.ok()) {
      slot->value = std::make_shared<const NullDistribution>(
          std::move(computed).value());
      slot->status = Status::OK();
      if (source != nullptr) {
        *source = from_store ? Source::kStore : Source::kComputed;
      }
      if (from_store) ++shard.store_hits;
      if (wrote_through) ++shard.store_writes;  // leased write-through landed
      if (!from_store && !wrote_through && store != nullptr) {
        // Write-behind: persist off the compute path. The task captures the
        // store and the immutable value by shared_ptr, so it is self-
        // contained; the TaskGroup ties its lifetime to this cache (flushed
        // in the destructor). Store errors are absorbed — persistence is an
        // optimization, never a correctness dependency.
        ++shard.store_writes;
        std::shared_ptr<const NullDistribution> value = slot->value;
        CalibrationKey key_copy = key;
        DefaultThreadPool().Submit(
            &store_writes_group_,
            [store, key_copy = std::move(key_copy), value = std::move(value)] {
              // Error action: drop this persist on the floor (a lost
              // write-behind — the calibration survives only in memory).
              SFA_FAILPOINT_WITH("cache.write_behind", {
                if (fp_action.kind == FailpointActionKind::kError) return;
              });
              store->Store(key_copy, *value).ok();
            });
      }
    } else {
      slot->status = computed.status();
      // Failed computations are not cached; erase so a later call retries.
      shard.slots.erase(key.debug);
    }
    slot->ready = true;
    shard.slot_ready.notify_all();
    if (!slot->status.ok()) return slot->status;
    return slot->value;
  }

  std::unique_lock<std::mutex> lock(shard.mu);
  shard.slot_ready.wait(lock, [&] { return slot->ready; });
  if (!slot->status.ok()) return slot->status;
  return slot->value;
}

std::shared_ptr<const NullDistribution> CalibrationCache::Lookup(
    const CalibrationKey& key) const {
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lock(shard.mu);
  auto it = shard.slots.find(key.debug);
  if (it == shard.slots.end() || !it->second->ready ||
      !it->second->status.ok()) {
    return nullptr;
  }
  ++shard.hits;
  return it->second->value;
}

CalibrationCache::Stats CalibrationCache::stats() const {
  Stats s;
  for (const Shard& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard.mu);
    s.hits += shard.hits;
    s.misses += shard.misses;
    s.entries += shard.slots.size();
    s.store_hits += shard.store_hits;
    s.store_writes += shard.store_writes;
  }
  return s;
}

void CalibrationCache::Clear() {
  for (Shard& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard.mu);
    shard.slots.clear();
    shard.hits = 0;
    shard.misses = 0;
    shard.store_hits = 0;
    shard.store_writes = 0;
  }
}

}  // namespace sfa::core
