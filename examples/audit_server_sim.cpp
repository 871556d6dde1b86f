// Audit server simulation: drives the STREAMING audit service the way a
// production endpoint would — concurrent producers submit mixed-priority
// requests through the bounded admission queue, dispatcher workers yield
// each response the moment it finishes, and the calibration cache persists
// to an on-disk CalibrationStore. The run then simulates a process restart:
// a fresh pipeline (empty memory cache) warm-starts from the store
// directory, replays the same request stream, and the sim verifies the
// replayed responses are byte-identical to the live run with ZERO Monte
// Carlo simulations — the persisted-warm contract.
//
// The stream mixes three "cities" (two with planted bias), two fairness
// measures, four α levels, two scan directions, and three priority classes;
// many requests differ only in α or direction-irrelevant knobs, so the
// cache collapses their Monte Carlo calibrations.
//
// Reports per-phase throughput, queue wait and assembly latency
// percentiles, cache/store hit rates, and writes a machine-readable JSON
// run summary (every string routed through the shared core::JsonEscape —
// city and family names are user-controlled in a real deployment).
//
//   SFA_QUICK=1 shrinks the stream for smoke runs (CI builds it and runs it
//   this way).
//
// Graceful shutdown: SIGTERM/SIGINT stops the producers, drains the session
// within --drain-ms via AuditPipeline::Drain (in-flight calibrations finish
// or stop at a batch boundary, write-behind flushes, leases release), prints
// the final StreamStats JSON, and exits 130 — an interrupted run never loses
// its summary or leaves unflushed frames.
//
// Multi-process fabric drill (--shards=N): the driver forks N real worker
// processes BEFORE creating any threads. Each child rebuilds the identical
// request world from the deterministic seeds, keeps the requests whose
// CalibrationKey hash lands on its shard, opens the SHARED store directory
// with cross-process leases enabled, serves its slice through the streaming
// pipeline, and appends each cleanly-served response to shard-<i>.results
// (flushed per line, so even a killed worker leaves a verifiable record).
// With --chaos-kill=<i> the parent waits until calibration activity is
// visible in the store (a lease file appears), then SIGKILLs that worker
// mid-flight. The parent then re-opens the store — the Open recovery sweep
// must leave NO `.tmp.*` or lease debris — replays every request in one
// batch, and verifies every response any shard recorded matches the replay:
// a torn frame or a lost calibration would surface right here.
//
// Fault-drill flags (default off; the default run stays the strict CI smoke):
//
//   --failpoints=<spec>  arms the fault-injection registry with a
//                        common/failpoint.h spec, e.g.
//                        --failpoints='store.write=every(3):corrupt'
//                        (equivalent to the SFA_FAILPOINTS env var);
//   --deadline-ms=<ms>   gives every streamed request that relative deadline
//                        and opts it into graceful degradation, so expiries
//                        surface as degraded/deadline-missed counters
//                        instead of hard failures.
//   --shards=N           fork-based multi-process fabric drill (above).
//   --chaos-kill=<i>     SIGKILL shard i once calibration activity appears.
//   --drain-ms=<ms>      drain budget used by the SIGTERM/SIGINT path.
//   --replay[=N]         million-request warm-path replay harness (below);
//                        N defaults to 1,000,000, shards default to 3.
//
// Warm-path replay harness (--replay=N): every forked shard walks the SAME
// deterministic Zipf-skewed stream of N requests over a fixed 64-key
// population (distinct Monte Carlo seeds → distinct store frames) and
// serves the keys whose hash lands on it. The in-memory calibration cache
// is deliberately cleared every few thousand requests so the store's
// zero-copy warm path (in-memory index + mmap'd frames) carries the load.
// The driver reports per-shard throughput, queue-wait/assembly p50/p90/p99,
// and store/mmap hit rates as JSON, asserts the recovery sweep leaves zero
// debris, and proves the mmap path byte-identical to the copy path by
// re-serving every key through both (the copy side with the `store.mmap`
// failpoint armed, so every hit is a read) with zero recomputes on either
// side.
//
// With a fault flag set, per-request failures are tolerated and reported (the
// exit criteria relax to: no replay failures, no payload mismatch among
// successfully-served-undegraded requests) and the JSON summary grows a
// "faults" object with the armed sites and observed fault counters.
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/audit.h"
#include "core/audit_pipeline.h"
#include "core/calibration_store.h"
#include "core/export.h"
#include "core/grid_family.h"
#include "core/measure.h"
#include "data/dataset.h"

namespace {

using sfa::Rng;
using namespace sfa::core;

std::atomic<bool> g_shutdown{false};
void OnShutdownSignal(int) { g_shutdown.store(true); }

struct City {
  std::string name;
  sfa::data::OutcomeDataset dataset;
  sfa::data::OutcomeDataset eo_view;  // equal-opportunity slice (Y=1)
  std::unique_ptr<GridPartitionFamily> sp_family;
  std::unique_ptr<GridPartitionFamily> eo_family;
};

City MakeCity(const std::string& name, uint64_t seed, size_t n,
              double planted_rate) {
  Rng rng(seed);
  City city;
  city.name = name;
  city.dataset.set_name(name);
  const sfa::geo::Rect zone(6.0, 6.0, 9.0, 9.0);
  for (size_t i = 0; i < n; ++i) {
    const sfa::geo::Point loc(rng.Uniform(0, 10), rng.Uniform(0, 10));
    const double rate = zone.Contains(loc) ? planted_rate : 0.55;
    city.dataset.Add(loc, rng.Bernoulli(rate) ? 1 : 0,
                     rng.Bernoulli(0.5) ? 1 : 0);
  }
  auto view = BuildMeasureView(city.dataset, FairnessMeasure::kEqualOpportunity);
  SFA_CHECK_OK(view.status());
  city.eo_view = std::move(view).value();
  auto sp = GridPartitionFamily::Create(city.dataset.locations(), 10, 10);
  auto eo = GridPartitionFamily::Create(city.eo_view.locations(), 8, 8);
  SFA_CHECK_OK(sp.status());
  SFA_CHECK_OK(eo.status());
  city.sp_family = std::move(sp).value();
  city.eo_family = std::move(eo).value();
  return city;
}

/// The deterministic request world every process (parent, shards, replay)
/// rebuilds identically from fixed seeds.
struct World {
  std::vector<City> cities;
  std::vector<AuditRequest> requests;
  std::vector<RequestPriority> priorities;
};

World BuildWorld(size_t city_points, uint32_t num_worlds, size_t num_requests) {
  World world;
  world.cities.reserve(3);
  world.cities.push_back(MakeCity("riverton", 11, city_points, 0.35));
  world.cities.push_back(MakeCity("lakeside", 22, city_points, 0.55));  // fair
  world.cities.push_back(MakeCity("hillcrest", 33, city_points, 0.45));

  const double alphas[4] = {0.05, 0.01, 0.005, 0.001};
  const sfa::stats::ScanDirection directions[2] = {
      sfa::stats::ScanDirection::kTwoSided, sfa::stats::ScanDirection::kLow};
  const RequestPriority priority_classes[3] = {RequestPriority::kInteractive,
                                               RequestPriority::kNormal,
                                               RequestPriority::kBulk};

  // The request stream: uniformly random (city, measure, α, direction,
  // priority) draws, i.e. heavy key collision by design — an α-sweep of one
  // city costs one calibration, not four.
  Rng stream_rng(777);
  world.requests.reserve(num_requests);
  for (size_t i = 0; i < num_requests; ++i) {
    const City& city = world.cities[stream_rng.NextUint64(world.cities.size())];
    const bool eo = stream_rng.Bernoulli(0.4);
    AuditRequest req;
    req.id = sfa::StrFormat("r%03zu-%s-%s", i, city.name.c_str(),
                            eo ? "eo" : "sp");
    req.dataset = eo ? &city.eo_view : &city.dataset;
    req.dataset_is_view = true;
    req.family = eo ? city.eo_family.get() : city.sp_family.get();
    req.options.measure = eo ? FairnessMeasure::kEqualOpportunity
                             : FairnessMeasure::kStatisticalParity;
    req.options.alpha = alphas[stream_rng.NextUint64(4)];
    req.options.direction = directions[stream_rng.NextUint64(2)];
    req.options.monte_carlo.num_worlds = num_worlds;
    world.requests.push_back(std::move(req));
    world.priorities.push_back(priority_classes[stream_rng.NextUint64(3)]);
  }
  return world;
}

/// The exact calibration-key hash the pipeline will use for each request
/// (same fingerprint + statistic + options path), so sharding by
/// hash % shards puts every request of one calibration on one shard.
std::vector<uint64_t> RequestKeyHashes(const World& world) {
  std::vector<uint64_t> hashes;
  hashes.reserve(world.requests.size());
  for (const AuditRequest& req : world.requests) {
    auto statistic = MakeScanStatistic(req.options, *req.dataset);
    SFA_CHECK_OK(statistic.status());
    const CalibrationKey key = MakeCalibrationKey(*req.family, **statistic,
                                                  req.options.monte_carlo);
    hashes.push_back(key.hash);
  }
  return hashes;
}

double Percentile(std::vector<double> sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const double pos = q * (sorted_ms.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  return sorted_ms[lo] + (pos - lo) * (sorted_ms[hi] - sorted_ms[lo]);
}

struct SimConfig {
  bool quick = false;
  std::string failpoint_spec;
  double deadline_ms = 0.0;
  int shards = 0;       // 0 = single-process mode
  int chaos_kill = -1;  // shard index to SIGKILL, -1 = none
  double drain_ms = 10'000.0;
  bool faulted = false;
  size_t city_points = 0;
  uint32_t num_worlds = 0;
  size_t num_requests = 0;
  size_t replay = 0;  // --replay=N million-request warm-path harness, 0 = off
};

/// One cleanly-served response, as recorded by a shard and recomputed by the
/// replay. %.17g round-trips doubles exactly, so string equality here IS
/// payload bit-identity for the compared fields.
struct RecordedResponse {
  std::string p_value;
  std::string tau;
  int fair = 0;
  unsigned long long worlds = 0;
  size_t findings = 0;

  bool operator==(const RecordedResponse& o) const {
    return p_value == o.p_value && tau == o.tau && fair == o.fair &&
           worlds == o.worlds && findings == o.findings;
  }
};

std::string FormatRecord(const std::string& id, const RecordedResponse& r) {
  return sfa::StrFormat("%s\t%s\t%s\t%d\t%llu\t%zu\n", id.c_str(),
                        r.p_value.c_str(), r.tau.c_str(), r.fair, r.worlds,
                        r.findings);
}

RecordedResponse RecordOf(const AuditResponse& response) {
  RecordedResponse r;
  r.p_value = sfa::StrFormat("%.17g", response.result.p_value);
  r.tau = sfa::StrFormat("%.17g", response.result.tau);
  r.fair = response.result.spatially_fair ? 1 : 0;
  r.worlds = static_cast<unsigned long long>(response.worlds_completed);
  r.findings = response.result.findings.size();
  return r;
}

/// Parses shard result files line-by-line, tolerating a torn final line (a
/// SIGKILLed worker may die mid-fprintf).
std::map<std::string, RecordedResponse> ReadRecords(
    const std::filesystem::path& path) {
  std::map<std::string, RecordedResponse> records;
  std::FILE* f = std::fopen(path.string().c_str(), "rb");
  if (f == nullptr) return records;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    const size_t len = std::strlen(line);
    if (len == 0 || line[len - 1] != '\n') continue;  // torn last line
    char id[128], p[64], tau[64];
    int fair = 0;
    unsigned long long worlds = 0;
    size_t findings = 0;
    if (std::sscanf(line, "%127[^\t]\t%63[^\t]\t%63[^\t]\t%d\t%llu\t%zu", id,
                    p, tau, &fair, &worlds, &findings) != 6) {
      continue;
    }
    RecordedResponse r;
    r.p_value = p;
    r.tau = tau;
    r.fair = fair;
    r.worlds = worlds;
    r.findings = findings;
    records.emplace(id, std::move(r));
  }
  std::fclose(f);
  return records;
}

/// Streams `subset` (indices into world.requests) through `pipeline`.
/// Producers stop at the shutdown flag; the caller decides how to finish
/// (FinishStream vs Drain). Returns the tickets (null where not admitted).
std::vector<std::shared_ptr<AuditTicket>> StreamSubset(
    AuditPipeline& pipeline, const World& world,
    const std::vector<size_t>& subset, const SimConfig& config,
    size_t num_producers) {
  std::vector<std::shared_ptr<AuditTicket>> tickets(world.requests.size());
  std::vector<std::thread> producers;
  const size_t per_producer =
      (subset.size() + num_producers - 1) / num_producers;
  for (size_t p = 0; p < num_producers; ++p) {
    producers.emplace_back([&, p] {
      const size_t begin = p * per_producer;
      const size_t end = std::min(subset.size(), begin + per_producer);
      for (size_t s = begin; s < end; ++s) {
        if (g_shutdown.load(std::memory_order_relaxed)) break;
        const size_t i = subset[s];
        AuditRequest req = world.requests[i];
        if (config.deadline_ms > 0.0) {
          // The drill deadline applies to the live stream only (the replay
          // must re-serve everything to verify the persisted-warm
          // contract); expiries degrade rather than fail outright.
          req.deadline_ms = config.deadline_ms;
          req.allow_degraded = true;
        }
        auto ticket = pipeline.Submit(std::move(req), world.priorities[i]);
        if (!ticket.ok()) {
          // Admission rejection (deadline, backpressure, or shutdown race) —
          // legal in a faulted/interrupted run, counted in the stream stats.
          SFA_CHECK_MSG(config.faulted || g_shutdown.load(),
                        "Submit failed in a fault-free run");
          continue;
        }
        tickets[i] = *ticket;
      }
    });
  }
  for (std::thread& t : producers) t.join();
  return tickets;
}

// ------------------------------------------------------------ shard worker --

/// One forked fabric worker: rebuilds the world, serves the requests whose
/// key hash lands on `shard`, records every cleanly-served response (flushed
/// per line). Returns the process exit code.
int RunShardWorker(int shard, const std::filesystem::path& work_dir,
                   const SimConfig& config) {
  const World world =
      BuildWorld(config.city_points, config.num_worlds, config.num_requests);
  const std::vector<uint64_t> hashes = RequestKeyHashes(world);
  std::vector<size_t> subset;
  for (size_t i = 0; i < world.requests.size(); ++i) {
    if (hashes[i] % static_cast<uint64_t>(config.shards) ==
        static_cast<uint64_t>(shard)) {
      subset.push_back(i);
    }
  }

  AuditPipeline pipeline;
  auto store = CalibrationStore::Open({
      .directory = (work_dir / "store").string(),
      .lease_ttl_ms = 1500.0,
      .lease_heartbeat_interval_ms = 50.0,
  });
  SFA_CHECK_OK(store.status());
  pipeline.cache().AttachStore(
      std::shared_ptr<CalibrationStore>(std::move(*store)));

  StreamOptions opts;
  opts.queue_capacity = 16;
  opts.num_workers = 2;
  opts.block_when_full = true;
  SFA_CHECK_OK(pipeline.StartStream(opts));
  const auto tickets = StreamSubset(pipeline, world, subset, config,
                                    /*num_producers=*/2);
  if (g_shutdown.load()) {
    SFA_CHECK_OK(pipeline.Drain(config.drain_ms));
  } else {
    SFA_CHECK_OK(pipeline.FinishStream());
  }

  // Record AFTER the drain (everything is settled) but re-walk in subset
  // order; per-line flush so a later chaos kill of this process cannot tear
  // more than the final line.
  const std::filesystem::path results =
      work_dir / sfa::StrFormat("shard-%d.results", shard);
  std::FILE* out = std::fopen(results.string().c_str(), "wb");
  SFA_CHECK_MSG(out != nullptr, "cannot open shard results file");
  size_t failed = 0;
  for (const size_t i : subset) {
    if (tickets[i] == nullptr) continue;
    const AuditResponse& response = tickets[i]->Get();
    if (!response.status.ok()) {
      ++failed;
      continue;
    }
    if (response.degraded) continue;  // ranks against a shorter prefix
    const std::string line = FormatRecord(response.id, RecordOf(response));
    std::fputs(line.c_str(), out);
    std::fflush(out);
  }
  std::fclose(out);
  const StreamStats stats = pipeline.stream_stats();
  std::printf("[shard %d] %s\n", shard, stats.ToJson().c_str());
  // Per-request failures are tolerated exactly when faults are armed.
  return (failed == 0 || config.faulted) ? 0 : 1;
}

// ------------------------------------------------------------ shard driver --

/// Forks the shard workers (BEFORE any thread exists in this process), runs
/// the optional chaos kill, then recovers: Open sweep, leftover scan, full
/// single-process replay, record comparison.
int RunShardedDriver(const SimConfig& config) {
  const std::filesystem::path work_dir =
      std::filesystem::temp_directory_path() /
      sfa::StrFormat("sfa_audit_server_sim_fabric_%d", ::getpid());
  std::filesystem::remove_all(work_dir);
  std::filesystem::create_directories(work_dir);
  const std::filesystem::path store_dir = work_dir / "store";

  std::printf("== audit_server_sim: %d-shard fabric over one store ==\n",
              config.shards);
  if (config.chaos_kill >= 0) {
    std::printf("chaos: SIGKILL shard %d once store activity appears\n",
                config.chaos_kill);
  }

  std::vector<pid_t> pids;
  for (int shard = 0; shard < config.shards; ++shard) {
    const pid_t pid = ::fork();
    SFA_CHECK_MSG(pid >= 0, "fork failed");
    if (pid == 0) {
      // Child: no threads were created pre-fork, so the full C++ runtime is
      // usable. _exit avoids re-running the parent's atexit state.
      ::_exit(RunShardWorker(shard, work_dir, config));
    }
    pids.push_back(pid);
  }

  if (config.chaos_kill >= 0 &&
      config.chaos_kill < static_cast<int>(pids.size())) {
    // Kill mid-calibration: wait until calibration activity is visible in
    // the store — a held lease, or a first published frame (quick-mode
    // leases live only milliseconds, so a lease alone is easy to miss) —
    // then SIGKILL the victim. Falls through after a bounded wait so a
    // degenerate run still terminates.
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    bool saw_activity = false;
    while (std::chrono::steady_clock::now() < until && !saw_activity) {
      std::error_code ec;
      for (std::filesystem::recursive_directory_iterator it(store_dir, ec),
           end;
           !ec && it != end; it.increment(ec)) {
        const auto ext = it->path().extension();
        if (ext == ".lease" || ext == ".nulldist") {
          saw_activity = true;
          break;
        }
      }
      if (!saw_activity) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ::kill(pids[config.chaos_kill], SIGKILL);
    std::printf("chaos: killed shard %d (store activity observed: %s)\n",
                config.chaos_kill, saw_activity ? "yes" : "timeout");
  }

  std::vector<int> exits(pids.size(), -1);
  std::vector<bool> killed(pids.size(), false);
  for (size_t i = 0; i < pids.size(); ++i) {
    int status = 0;
    ::waitpid(pids[i], &status, 0);
    if (WIFEXITED(status)) exits[i] = WEXITSTATUS(status);
    if (WIFSIGNALED(status)) killed[i] = true;
  }

  // Recovery: the Open sweep must reap every temp and lease the dead (and
  // live-but-exited) workers left behind — their pids are all dead now, so
  // the dead-pid arm reaps regardless of age.
  auto reopened = CalibrationStore::Open({
      .directory = store_dir.string(),
      .create_if_missing = false,
      .lease_ttl_ms = 1500.0,
  });
  SFA_CHECK_OK(reopened.status());
  const auto count_leftovers = [&store_dir](bool print) {
    size_t count = 0;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(store_dir)) {
      const std::string name = entry.path().filename().string();
      if (name.find(".tmp.") != std::string::npos ||
          name.find(".reap.") != std::string::npos ||
          entry.path().extension() == ".lease") {
        ++count;
        if (print) {
          std::printf("LEFTOVER after sweep: %s\n",
                      entry.path().string().c_str());
        }
      }
    }
    return count;
  };
  size_t leftovers = count_leftovers(/*print=*/false);
  if (leftovers > 0) {
    // Every shard pid is dead by now, so anything still here is either an
    // unparseable lease inside its TTL (a shard SIGKILLed between the
    // O_EXCL create and its identity write — the dead-pid arm cannot read
    // the pid) or a genuine leak. Give the TTL arm its window and sweep
    // once more before judging.
    std::this_thread::sleep_for(std::chrono::milliseconds(1600));
    (*reopened)->RecoverySweep();
    leftovers = count_leftovers(/*print=*/true);
  }
  const CalibrationStore::Stats sweep_stats = (*reopened)->stats();

  // Full single-process replay over the SAME request world, warm-started
  // from whatever the fabric persisted; every calibration a shard lost is
  // recomputed here byte-identically (the determinism contract).
  const World world =
      BuildWorld(config.city_points, config.num_worlds, config.num_requests);
  PipelineManifest manifest;
  size_t mismatches = 0;
  size_t compared = 0;
  {
    AuditPipeline replayer;
    replayer.cache().AttachStore(
        std::shared_ptr<CalibrationStore>(std::move(*reopened)));
    auto replayed = replayer.Run(world.requests, &manifest);
    SFA_CHECK_OK(replayed.status());
    std::map<std::string, RecordedResponse> replay_records;
    for (const AuditResponse& response : *replayed) {
      SFA_CHECK_OK(response.status);
      replay_records.emplace(response.id, RecordOf(response));
    }
    for (int shard = 0; shard < config.shards; ++shard) {
      const auto records = ReadRecords(
          work_dir / sfa::StrFormat("shard-%d.results", shard));
      for (const auto& [id, record] : records) {
        ++compared;
        auto it = replay_records.find(id);
        if (it == replay_records.end() || !(it->second == record)) {
          ++mismatches;
          std::printf("MISMATCH at %s (shard %d)\n", id.c_str(), shard);
        }
      }
    }
  }

  std::string exits_json;
  for (size_t i = 0; i < exits.size(); ++i) {
    if (i > 0) exits_json += ',';
    exits_json += killed[i] ? "\"killed\"" : sfa::StrFormat("%d", exits[i]);
  }
  const std::string summary = sfa::StrFormat(
      "{\"shards\":%d,\"chaos_kill\":%d,\"shard_exits\":[%s],"
      "\"compared\":%zu,\"mismatches\":%zu,\"leftover_files\":%zu,"
      "\"replay_failed\":%zu,\"replay_computed\":%llu,"
      "\"replay_loaded\":%llu,\"recovery\":{\"temps_reaped\":%llu,"
      "\"leases_reclaimed\":%llu,\"quarantine_evicted_files\":%llu}}",
      config.shards, config.chaos_kill, exits_json.c_str(), compared,
      mismatches, leftovers, manifest.num_failed,
      static_cast<unsigned long long>(manifest.calibrations_computed),
      static_cast<unsigned long long>(manifest.calibrations_loaded),
      static_cast<unsigned long long>(sweep_stats.temps_reaped),
      static_cast<unsigned long long>(sweep_stats.leases_reclaimed),
      static_cast<unsigned long long>(sweep_stats.quarantine_evicted_files));
  std::printf("== fabric summary (machine-readable) ==\n%s\n", summary.c_str());

  std::filesystem::remove_all(work_dir);
  bool ok = mismatches == 0 && leftovers == 0 && manifest.num_failed == 0 &&
            compared > 0;
  for (size_t i = 0; i < exits.size(); ++i) {
    if (!killed[i] && exits[i] != 0) ok = false;  // the victim may die dirty
  }
  if (!ok) std::printf("\nFAILED: fabric recovery violated its contract\n");
  return ok ? 0 : 1;
}

// ----------------------------------------------------------- replay harness --

/// The replay harness's fixed key population: one city, one family, one
/// options shape — `num_keys` distinct calibrations produced purely by
/// varying the Monte Carlo seed (the seed is draw-relevant, so every key
/// maps to its own store frame). Kept in a one-element vector so the
/// templates' dataset/family pointers survive a move of the struct.
struct ReplayWorld {
  std::vector<City> cities;
  std::vector<AuditRequest> templates;  // one per key
  std::vector<uint64_t> hashes;         // calibration-key hash per template
};

constexpr size_t kReplayKeys = 64;
constexpr uint32_t kReplayWorlds = 199;
constexpr double kReplayZipfExponent = 1.07;
/// The in-memory calibration cache is cleared every this many served
/// requests, modelling restart/memory-pressure churn — without it the
/// memory cache would absorb every warm hit and the store warm path (the
/// thing this harness measures) would see only the first touch per key.
constexpr size_t kReplayCacheChurnEvery = 2048;
/// Bounded ring of outstanding tickets: responses are consumed in flight,
/// so a million-request replay holds a constant number of result payloads.
constexpr size_t kReplayRingSize = 256;

ReplayWorld BuildReplayWorld() {
  ReplayWorld rw;
  rw.cities.push_back(MakeCity("replayville", 55, 4000, 0.42));
  const City& city = rw.cities.front();
  rw.templates.reserve(kReplayKeys);
  rw.hashes.reserve(kReplayKeys);
  for (size_t k = 0; k < kReplayKeys; ++k) {
    AuditRequest req;
    req.id = sfa::StrFormat("key-%03zu", k);
    req.dataset = &city.dataset;
    req.dataset_is_view = true;
    req.family = city.sp_family.get();
    req.options.measure = FairnessMeasure::kStatisticalParity;
    req.options.alpha = 0.05;
    req.options.monte_carlo.num_worlds = kReplayWorlds;
    req.options.monte_carlo.seed = 40'000 + static_cast<uint64_t>(k);
    auto statistic = MakeScanStatistic(req.options, *req.dataset);
    SFA_CHECK_OK(statistic.status());
    const CalibrationKey key = MakeCalibrationKey(*req.family, **statistic,
                                                  req.options.monte_carlo);
    rw.hashes.push_back(key.hash);
    rw.templates.push_back(std::move(req));
  }
  return rw;
}

/// Zipf(s) CDF over ranks 0..n-1 (rank 0 hottest), for inverse-CDF draws.
std::vector<double> ZipfCdf(size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

/// One forked replay worker: walks the shared deterministic Zipf request
/// stream, serves the requests whose key lands on `shard` through the
/// streaming pipeline (memory cache churned every kReplayCacheChurnEvery
/// served requests so the store's zero-copy warm path does the real work),
/// and writes its metrics as one TSV line the parent aggregates.
int RunReplayShardWorker(int shard, const std::filesystem::path& work_dir,
                         const SimConfig& config) {
  const ReplayWorld rw = BuildReplayWorld();

  AuditPipeline pipeline;
  auto store = CalibrationStore::Open({
      .directory = (work_dir / "store").string(),
      .lease_ttl_ms = 1500.0,
      .lease_heartbeat_interval_ms = 50.0,
  });
  SFA_CHECK_OK(store.status());
  const std::shared_ptr<CalibrationStore> store_ref(std::move(*store));
  pipeline.cache().AttachStore(store_ref);

  StreamOptions opts;
  opts.queue_capacity = 64;
  opts.num_workers = 2;
  opts.block_when_full = true;
  SFA_CHECK_OK(pipeline.StartStream(opts));

  const std::vector<double> cdf = ZipfCdf(kReplayKeys, kReplayZipfExponent);
  Rng stream_rng(9001);  // identical stream in every shard; ownership by hash
  std::vector<double> queue_waits, assembly_ms;
  std::vector<std::shared_ptr<AuditTicket>> ring;
  size_t ring_head = 0;  // ring is a circular buffer once it reaches capacity
  size_t served = 0, failed = 0, cache_hits = 0;
  const auto consume = [&](const std::shared_ptr<AuditTicket>& ticket) {
    const AuditResponse& response = ticket->Get();
    if (!response.status.ok()) {
      ++failed;
      return;
    }
    queue_waits.push_back(response.queue_wait_ms);
    assembly_ms.push_back(response.assemble_ms);
    if (response.cache_hit) ++cache_hits;
  };

  sfa::Stopwatch wall;
  for (size_t j = 0; j < config.replay; ++j) {
    if (g_shutdown.load(std::memory_order_relaxed)) break;
    const double u = stream_rng.Uniform(0.0, 1.0);
    const size_t key_idx = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (rw.hashes[key_idx] % static_cast<uint64_t>(config.shards) !=
        static_cast<uint64_t>(shard)) {
      continue;
    }
    AuditRequest req = rw.templates[key_idx];
    req.id = sfa::StrFormat("rp%08zu", j);
    auto ticket = pipeline.Submit(std::move(req), RequestPriority::kNormal);
    SFA_CHECK_OK(ticket.status());
    if (ring.size() < kReplayRingSize) {
      ring.push_back(std::move(*ticket));
    } else {
      consume(ring[ring_head]);
      ring[ring_head] = std::move(*ticket);
      ring_head = (ring_head + 1) % kReplayRingSize;
    }
    ++served;
    if (served % kReplayCacheChurnEvery == 0) pipeline.cache().Clear();
  }
  for (const auto& ticket : ring) consume(ticket);
  SFA_CHECK_OK(pipeline.FinishStream());
  const double wall_ms = wall.ElapsedMillis();

  const CalibrationStore::Stats ss = store_ref->stats();
  const double store_hit_rate =
      ss.load_hits + ss.load_misses > 0
          ? static_cast<double>(ss.load_hits) /
                static_cast<double>(ss.load_hits + ss.load_misses)
          : 0.0;
  const double mmap_hit_rate =
      ss.load_hits > 0
          ? static_cast<double>(ss.mmap_loads) /
                static_cast<double>(ss.load_hits)
          : 0.0;

  // One TSV line the parent can both aggregate and re-render as JSON.
  const std::filesystem::path stats_path =
      work_dir / sfa::StrFormat("replay-shard-%d.stats", shard);
  std::FILE* out = std::fopen(stats_path.string().c_str(), "wb");
  SFA_CHECK_MSG(out != nullptr, "cannot open replay stats file");
  std::fprintf(
      out,
      "%d\t%zu\t%zu\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%llu\t%llu\t"
      "%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t%.9f\t%.9f\t%zu\n",
      shard, served, failed, wall_ms, Percentile(queue_waits, 0.50),
      Percentile(queue_waits, 0.90), Percentile(queue_waits, 0.99),
      Percentile(assembly_ms, 0.50), Percentile(assembly_ms, 0.90),
      Percentile(assembly_ms, 0.99),
      static_cast<unsigned long long>(ss.load_hits),
      static_cast<unsigned long long>(ss.load_misses),
      static_cast<unsigned long long>(ss.index_hits),
      static_cast<unsigned long long>(ss.mmap_loads),
      static_cast<unsigned long long>(ss.mmap_frames),
      static_cast<unsigned long long>(ss.mmap_bytes),
      static_cast<unsigned long long>(ss.remap_races),
      static_cast<unsigned long long>(ss.touch_failures), store_hit_rate,
      mmap_hit_rate, cache_hits);
  std::fclose(out);
  std::printf("[replay shard %d] served=%zu failed=%zu wall=%.1fms "
              "store-hit-rate=%.4f mmap-hit-rate=%.4f\n",
              shard, served, failed, wall_ms, store_hit_rate, mmap_hit_rate);
  return failed == 0 ? 0 : 1;
}

/// Per-shard replay metrics, as parsed back by the parent.
struct ReplayShardStats {
  int shard = -1;
  size_t served = 0, failed = 0, cache_hits = 0;
  double wall_ms = 0, qw_p50 = 0, qw_p90 = 0, qw_p99 = 0;
  double as_p50 = 0, as_p90 = 0, as_p99 = 0;
  unsigned long long load_hits = 0, load_misses = 0, index_hits = 0;
  unsigned long long mmap_loads = 0, mmap_frames = 0, mmap_bytes = 0;
  unsigned long long remap_races = 0, touch_failures = 0;
  double store_hit_rate = 0, mmap_hit_rate = 0;
};

bool ReadReplayShardStats(const std::filesystem::path& path,
                          ReplayShardStats* s) {
  std::FILE* f = std::fopen(path.string().c_str(), "rb");
  if (f == nullptr) return false;
  char line[1024];
  const bool got = std::fgets(line, sizeof line, f) != nullptr;
  std::fclose(f);
  if (!got) return false;
  return std::sscanf(
             line,
             "%d\t%zu\t%zu\t%lf\t%lf\t%lf\t%lf\t%lf\t%lf\t%lf\t%llu\t%llu\t"
             "%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t%lf\t%lf\t%zu",
             &s->shard, &s->served, &s->failed, &s->wall_ms, &s->qw_p50,
             &s->qw_p90, &s->qw_p99, &s->as_p50, &s->as_p90, &s->as_p99,
             &s->load_hits, &s->load_misses, &s->index_hits, &s->mmap_loads,
             &s->mmap_frames, &s->mmap_bytes, &s->remap_races,
             &s->touch_failures, &s->store_hit_rate, &s->mmap_hit_rate,
             &s->cache_hits) == 21;
}

/// The million-request replay driver: forks the shard workers over one
/// shared store, aggregates their metrics, asserts zero recovery debris,
/// and proves the zero-copy path byte-identical to the copy path by
/// re-serving every key through BOTH (two persisted-warm pipelines, the
/// copy one run with mapping failed by the `store.mmap` failpoint) and
/// comparing full payloads.
int RunReplayDriver(const SimConfig& config) {
  const std::filesystem::path work_dir =
      std::filesystem::temp_directory_path() /
      sfa::StrFormat("sfa_audit_server_sim_replay_%d", ::getpid());
  std::filesystem::remove_all(work_dir);
  std::filesystem::create_directories(work_dir);
  const std::filesystem::path store_dir = work_dir / "store";

  std::printf("== audit_server_sim: %zu-request Zipf replay over %d shards "
              "(%zu keys, s=%.2f) ==\n",
              config.replay, config.shards, kReplayKeys, kReplayZipfExponent);

  std::vector<pid_t> pids;
  for (int shard = 0; shard < config.shards; ++shard) {
    const pid_t pid = ::fork();
    SFA_CHECK_MSG(pid >= 0, "fork failed");
    if (pid == 0) ::_exit(RunReplayShardWorker(shard, work_dir, config));
    pids.push_back(pid);
  }
  std::vector<int> exits(pids.size(), -1);
  for (size_t i = 0; i < pids.size(); ++i) {
    int status = 0;
    ::waitpid(pids[i], &status, 0);
    if (WIFEXITED(status)) exits[i] = WEXITSTATUS(status);
  }

  // Recovery sweep + zero-debris assertion over the shared store.
  {
    auto reopened = CalibrationStore::Open({
        .directory = store_dir.string(),
        .create_if_missing = false,
        .lease_ttl_ms = 1500.0,
    });
    SFA_CHECK_OK(reopened.status());
  }  // the sweep ran at Open; the identity check reopens its own handles
  size_t leftovers = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(store_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") != std::string::npos ||
        name.find(".reap.") != std::string::npos ||
        entry.path().extension() == ".lease") {
      ++leftovers;
      std::printf("LEFTOVER after sweep: %s\n", entry.path().string().c_str());
    }
  }

  // Byte-identity: the same persisted-warm key population served through
  // the copy path (every mapping failed by the `store.mmap` failpoint) and
  // the mmap path must produce identical full payloads with ZERO recomputes
  // on either side — and the copy side must have served no mapping at all,
  // or the check would compare mmap against mmap.
  const ReplayWorld rw = BuildReplayWorld();
  size_t identity_mismatches = 0;
  PipelineManifest copy_manifest, mmap_manifest;
  uint64_t copy_mmap_loads = 0;
  {
    auto copy_store = CalibrationStore::Open(
        {.directory = store_dir.string(), .create_if_missing = false});
    auto mmap_store = CalibrationStore::Open(
        {.directory = store_dir.string(), .create_if_missing = false});
    SFA_CHECK_OK(copy_store.status());
    SFA_CHECK_OK(mmap_store.status());
    auto copy_handle =
        std::shared_ptr<CalibrationStore>(std::move(*copy_store));
    AuditPipeline copy_pipeline, mmap_pipeline;
    copy_pipeline.cache().AttachStore(copy_handle);
    mmap_pipeline.cache().AttachStore(
        std::shared_ptr<CalibrationStore>(std::move(*mmap_store)));
    SFA_CHECK_OK(sfa::Failpoints::Instance().Arm(
        "store.mmap", "always:error(IOError,copy side of the identity check)"));
    auto copied = copy_pipeline.Run(rw.templates, &copy_manifest);
    sfa::Failpoints::Instance().Disarm("store.mmap");
    auto mapped = mmap_pipeline.Run(rw.templates, &mmap_manifest);
    copy_mmap_loads = copy_handle->stats().mmap_loads;
    SFA_CHECK_OK(copied.status());
    SFA_CHECK_OK(mapped.status());
    for (size_t k = 0; k < rw.templates.size(); ++k) {
      SFA_CHECK_OK((*copied)[k].status);
      SFA_CHECK_OK((*mapped)[k].status);
      if (!ResultsBitIdentical((*copied)[k].result, (*mapped)[k].result)) {
        ++identity_mismatches;
        std::printf("IDENTITY MISMATCH at %s\n", rw.templates[k].id.c_str());
      }
    }
  }

  // Aggregate + machine-readable summary.
  std::string per_shard_json;
  size_t total_served = 0, total_failed = 0;
  double sum_rps = 0.0, max_qw_p99 = 0.0, max_as_p99 = 0.0;
  unsigned long long sum_load_hits = 0, sum_load_misses = 0, sum_mmap = 0;
  bool stats_ok = true;
  for (int shard = 0; shard < config.shards; ++shard) {
    ReplayShardStats s;
    if (!ReadReplayShardStats(
            work_dir / sfa::StrFormat("replay-shard-%d.stats", shard), &s)) {
      stats_ok = false;
      continue;
    }
    total_served += s.served;
    total_failed += s.failed;
    const double rps =
        s.wall_ms > 0 ? 1e3 * static_cast<double>(s.served) / s.wall_ms : 0.0;
    sum_rps += rps;
    max_qw_p99 = std::max(max_qw_p99, s.qw_p99);
    max_as_p99 = std::max(max_as_p99, s.as_p99);
    sum_load_hits += s.load_hits;
    sum_load_misses += s.load_misses;
    sum_mmap += s.mmap_loads;
    if (!per_shard_json.empty()) per_shard_json += ',';
    per_shard_json += sfa::StrFormat(
        "{\"shard\":%d,\"served\":%zu,\"failed\":%zu,\"wall_ms\":%.3f,"
        "\"throughput_rps\":%.1f,"
        "\"queue_wait_ms\":{\"p50\":%.4f,\"p90\":%.4f,\"p99\":%.4f},"
        "\"assemble_ms\":{\"p50\":%.4f,\"p90\":%.4f,\"p99\":%.4f},"
        "\"store\":{\"load_hits\":%llu,\"load_misses\":%llu,"
        "\"index_hits\":%llu,\"mmap_loads\":%llu,\"mmap_frames\":%llu,"
        "\"mmap_bytes\":%llu,\"remap_races\":%llu,\"touch_failures\":%llu,"
        "\"store_hit_rate\":%.6f,\"mmap_hit_rate\":%.6f},"
        "\"cache_hits\":%zu}",
        s.shard, s.served, s.failed, s.wall_ms, rps, s.qw_p50, s.qw_p90,
        s.qw_p99, s.as_p50, s.as_p90, s.as_p99, s.load_hits, s.load_misses,
        s.index_hits, s.mmap_loads, s.mmap_frames, s.mmap_bytes,
        s.remap_races, s.touch_failures, s.store_hit_rate, s.mmap_hit_rate,
        s.cache_hits);
  }
  std::string exits_json;
  for (size_t i = 0; i < exits.size(); ++i) {
    if (i > 0) exits_json += ',';
    exits_json += sfa::StrFormat("%d", exits[i]);
  }
  const double agg_store_hit_rate =
      sum_load_hits + sum_load_misses > 0
          ? static_cast<double>(sum_load_hits) /
                static_cast<double>(sum_load_hits + sum_load_misses)
          : 0.0;
  const double agg_mmap_hit_rate =
      sum_load_hits > 0 ? static_cast<double>(sum_mmap) /
                              static_cast<double>(sum_load_hits)
                        : 0.0;
  const std::string summary = sfa::StrFormat(
      "{\"replay\":{\"requests\":%zu,\"served\":%zu,\"shards\":%d,"
      "\"keys\":%zu,\"zipf_exponent\":%.2f,\"per_shard\":[%s],"
      "\"aggregate\":{\"throughput_rps\":%.1f,\"queue_wait_p99_ms\":%.4f,"
      "\"assemble_p99_ms\":%.4f,\"store_hit_rate\":%.6f,"
      "\"mmap_hit_rate\":%.6f},"
      "\"identity\":{\"compared\":%zu,\"mismatches\":%zu,"
      "\"copy_path_computed\":%llu,\"mmap_path_computed\":%llu,"
      "\"copy_path_mmap_loads\":%llu},"
      "\"leftover_files\":%zu,\"shard_exits\":[%s]}}",
      config.replay, total_served, config.shards, kReplayKeys,
      kReplayZipfExponent, per_shard_json.c_str(), sum_rps, max_qw_p99,
      max_as_p99, agg_store_hit_rate, agg_mmap_hit_rate, rw.templates.size(),
      identity_mismatches,
      static_cast<unsigned long long>(copy_manifest.calibrations_computed),
      static_cast<unsigned long long>(mmap_manifest.calibrations_computed),
      static_cast<unsigned long long>(copy_mmap_loads), leftovers,
      exits_json.c_str());
  std::printf("== replay summary (machine-readable) ==\n%s\n", summary.c_str());

  std::filesystem::remove_all(work_dir);
  bool ok = stats_ok && leftovers == 0 && identity_mismatches == 0 &&
            total_failed == 0 && total_served > 0 &&
            copy_manifest.calibrations_computed == 0 &&
            mmap_manifest.calibrations_computed == 0 && copy_mmap_loads == 0;
  for (const int e : exits) {
    if (e != 0) ok = false;
  }
  if (!ok) std::printf("\nFAILED: replay harness violated its contract\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  SimConfig config;
  config.quick = [] {
    const char* env = std::getenv("SFA_QUICK");
    return env != nullptr && env[0] == '1';
  }();

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--failpoints=", 0) == 0) {
      config.failpoint_spec = arg.substr(std::string("--failpoints=").size());
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      config.deadline_ms =
          std::atof(arg.c_str() + std::string("--deadline-ms=").size());
    } else if (arg.rfind("--shards=", 0) == 0) {
      config.shards = std::atoi(arg.c_str() + std::string("--shards=").size());
    } else if (arg.rfind("--chaos-kill=", 0) == 0) {
      config.chaos_kill =
          std::atoi(arg.c_str() + std::string("--chaos-kill=").size());
    } else if (arg.rfind("--drain-ms=", 0) == 0) {
      config.drain_ms =
          std::atof(arg.c_str() + std::string("--drain-ms=").size());
    } else if (arg == "--replay") {
      config.replay = 1'000'000;
    } else if (arg.rfind("--replay=", 0) == 0) {
      config.replay = static_cast<size_t>(
          std::strtoull(arg.c_str() + std::string("--replay=").size(),
                        nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--failpoints=<spec>] [--deadline-ms=<ms>] "
                   "[--shards=N [--chaos-kill=<i>]] [--drain-ms=<ms>] "
                   "[--replay[=N]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!config.failpoint_spec.empty()) {
    const sfa::Status armed =
        sfa::Failpoints::Instance().ArmFromSpec(config.failpoint_spec);
    if (!armed.ok()) {
      std::fprintf(stderr, "bad --failpoints spec: %s\n",
                   armed.ToString().c_str());
      return 2;
    }
  }
  // Faulted runs tolerate (and report) per-request failures; the default run
  // keeps the strict persisted-warm exit criteria for CI. A chaos kill
  // implies faults even without failpoints.
  config.faulted = !config.failpoint_spec.empty() || config.deadline_ms > 0.0 ||
                   config.chaos_kill >= 0;
  config.city_points = config.quick ? 4000 : 20000;
  config.num_worlds = config.quick ? 99 : 499;
  config.num_requests = config.quick ? 48 : 160;
  const size_t num_producers = 4;

  // Graceful-shutdown wiring: producers poll the flag, the main thread
  // drains and still prints the summary. Installed before any fork so shard
  // workers inherit it.
  std::signal(SIGTERM, OnShutdownSignal);
  std::signal(SIGINT, OnShutdownSignal);

  if (config.replay > 0) {
    // Million-request Zipf replay over the forked shard fabric; exercises
    // the zero-copy warm path (mmap'd frames + store index) at volume.
    if (config.shards <= 0) config.shards = 3;
    return RunReplayDriver(config);
  }

  if (config.shards > 0) {
    // Fork-based fabric drill. MUST run before any thread (or thread pool)
    // exists in this process: fork only carries the calling thread, so a
    // pre-fork pool would leave children with dead workers and locked locks.
    return RunShardedDriver(config);
  }

  std::printf("== audit_server_sim: streaming service + persistent calibration "
              "store ==\n");
  std::printf("3 cities x {statistical parity, equal opportunity} x 4 alphas "
              "x 2 directions x 3 priorities, %u worlds/calibration%s\n\n",
              config.num_worlds, config.quick ? " (SFA_QUICK=1)" : "");
  if (!config.failpoint_spec.empty()) {
    std::printf("failpoints armed: %s\n", config.failpoint_spec.c_str());
  }
  if (config.deadline_ms > 0.0) {
    std::printf("per-request deadline: %.1f ms (degraded serving enabled)\n",
                config.deadline_ms);
  }
  if (config.faulted) std::printf("\n");

  const World world =
      BuildWorld(config.city_points, config.num_worlds, config.num_requests);
  const std::vector<AuditRequest>& requests = world.requests;

  const std::filesystem::path store_dir =
      std::filesystem::temp_directory_path() /
      sfa::StrFormat("sfa_audit_server_sim_store_%d", ::getpid());
  std::filesystem::remove_all(store_dir);

  // ---------------------------------------------------- phase 1: streaming
  std::printf("-- phase 1: streaming service, cold store --\n");
  std::vector<std::shared_ptr<AuditTicket>> tickets;
  double stream_wall_ms = 0.0;
  bool interrupted = false;
  StreamStats stream_stats;
  CalibrationCache::Stats live_cache_stats;
  {
    AuditPipeline pipeline;
    auto store = CalibrationStore::Open({.directory = store_dir.string()});
    SFA_CHECK_OK(store.status());
    pipeline.cache().AttachStore(
        std::shared_ptr<CalibrationStore>(std::move(*store)));

    StreamOptions opts;
    opts.queue_capacity = 16;
    opts.num_workers = 3;
    opts.block_when_full = true;  // a replayed trace sheds no load
    SFA_CHECK_OK(pipeline.StartStream(opts));

    std::vector<size_t> all(requests.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    sfa::Stopwatch wall;
    tickets = StreamSubset(pipeline, world, all, config, num_producers);
    interrupted = g_shutdown.load();
    if (interrupted) {
      // The SIGTERM/SIGINT contract: stop admission, finish what fits the
      // drain budget (leases release either way), flush write-behind, and
      // STILL report — the final stats JSON below is the whole point.
      SFA_CHECK_OK(pipeline.Drain(config.drain_ms));
    } else {
      SFA_CHECK_OK(pipeline.FinishStream());  // drains + flushes write-behind
    }
    stream_wall_ms = wall.ElapsedMillis();
    stream_stats = pipeline.stream_stats();
    live_cache_stats = pipeline.cache().stats();
  }
  if (interrupted) {
    std::printf("interrupted: drained within %.0f ms; final stream stats:\n%s\n",
                config.drain_ms, stream_stats.ToJson().c_str());
    return 130;
  }

  std::vector<double> queue_waits, assembly_ms;
  size_t unfair = 0, hits = 0, live_failed = 0, live_degraded = 0;
  size_t not_admitted = 0;
  for (const auto& ticket : tickets) {
    if (ticket == nullptr) {
      ++not_admitted;
      continue;
    }
    const AuditResponse& response = ticket->Get();
    if (!response.status.ok()) {
      SFA_CHECK_MSG(config.faulted, "request failed in a fault-free run");
      ++live_failed;
      continue;
    }
    queue_waits.push_back(response.queue_wait_ms);
    assembly_ms.push_back(response.assemble_ms);
    if (response.degraded) ++live_degraded;
    if (!response.result.spatially_fair) ++unfair;
    if (response.cache_hit) ++hits;
  }
  if (config.faulted) {
    std::printf(
        "fault outcomes: not-admitted=%zu failed=%zu degraded=%zu "
        "deadline-misses=%llu store-retries=%llu quarantined=%llu "
        "breaker-trips=%llu breaker-open=%s\n",
        not_admitted, live_failed, live_degraded,
        static_cast<unsigned long long>(stream_stats.deadline_misses),
        static_cast<unsigned long long>(stream_stats.store_retries),
        static_cast<unsigned long long>(stream_stats.store_quarantined),
        static_cast<unsigned long long>(stream_stats.breaker_trips),
        stream_stats.breaker_open ? "true" : "false");
  }
  std::printf(
      "streamed %llu requests in %.1f ms (%.1f req/s): completed=%llu "
      "max-queue-depth=%zu unfair=%zu cache-hits=%zu\n",
      static_cast<unsigned long long>(stream_stats.submitted), stream_wall_ms,
      1e3 * static_cast<double>(stream_stats.submitted) / stream_wall_ms,
      static_cast<unsigned long long>(stream_stats.completed),
      stream_stats.max_queue_depth, unfair, hits);
  std::printf("submit-to-dispatch wait (incl. backpressure blocking): "
              "p50=%.2f ms p90=%.2f ms p99=%.2f ms\n",
              Percentile(queue_waits, 0.50), Percentile(queue_waits, 0.90),
              Percentile(queue_waits, 0.99));
  std::printf("assembly:   p50=%.2f ms p90=%.2f ms p99=%.2f ms\n",
              Percentile(assembly_ms, 0.50), Percentile(assembly_ms, 0.90),
              Percentile(assembly_ms, 0.99));
  std::printf("store writes queued: %llu\n\n",
              static_cast<unsigned long long>(live_cache_stats.store_writes));

  // ------------------------------------------- phase 2: restart and replay
  std::printf("-- phase 2: restart replay, persisted-warm store --\n");
  PipelineManifest replay_manifest;
  size_t mismatches = 0;
  double replay_wall_ms = 0.0;
  {
    AuditPipeline restarted;  // fresh process: empty memory cache
    auto store = CalibrationStore::Open(
        {.directory = store_dir.string(), .create_if_missing = false});
    SFA_CHECK_OK(store.status());
    restarted.cache().AttachStore(
        std::shared_ptr<CalibrationStore>(std::move(*store)));

    sfa::Stopwatch wall;
    auto replayed = restarted.Run(requests, &replay_manifest);
    SFA_CHECK_OK(replayed.status());
    replay_wall_ms = wall.ElapsedMillis();
    size_t compared = 0;
    for (size_t i = 0; i < requests.size(); ++i) {
      const AuditResponse& replay = (*replayed)[i];
      SFA_CHECK_OK(replay.status);
      // Only a clean, undegraded live response pins the full payload (a
      // degraded one ranks against a shorter prefix by design).
      if (tickets[i] == nullptr) continue;
      const AuditResponse& live = tickets[i]->Get();
      if (!live.status.ok() || live.degraded) continue;
      ++compared;
      // The authoritative full-payload comparison (core::ResultsBitIdentical)
      // — this binary's exit code is the restart-replay pass/fail signal.
      if (!ResultsBitIdentical(live.result, replay.result)) {
        ++mismatches;
        std::printf("MISMATCH at %s: live p=%.17g tau=%.17g vs replay "
                    "p=%.17g tau=%.17g\n",
                    requests[i].id.c_str(), live.result.p_value,
                    live.result.tau, replay.result.p_value, replay.result.tau);
      }
    }
    if (config.faulted) {
      std::printf("compared %zu cleanly-served responses against the replay\n",
                  compared);
    }
  }
  std::printf(
      "replayed %zu requests in %.1f ms: calibrations computed=%llu "
      "loaded-from-store=%llu reused=%llu — %s\n\n",
      requests.size(), replay_wall_ms,
      static_cast<unsigned long long>(replay_manifest.calibrations_computed),
      static_cast<unsigned long long>(replay_manifest.calibrations_loaded),
      static_cast<unsigned long long>(replay_manifest.calibrations_reused),
      mismatches == 0 ? "byte-identical to the live stream"
                      : "RESPONSES DIVERGED");

  // --------------------------------------------- machine-readable summary
  // Every string below is user-controlled in a real deployment (city names
  // arrive from datasets, family names embed construction parameters), so
  // all of them go through the shared JSON escaper.
  std::string summary;
  summary += sfa::StrFormat(
      "{\"quick\":%s,\"num_requests\":%zu,\"stream\":{\"wall_ms\":%.3f,"
      "\"queue_wait_p90_ms\":%.3f,\"stats\":%s},\"replay\":{\"wall_ms\":%.3f,"
      "\"calibrations_computed\":%llu,\"calibrations_loaded\":%llu,"
      "\"mismatches\":%zu},\"store_dir\":\"%s\",\"cities\":[",
      config.quick ? "true" : "false", requests.size(), stream_wall_ms,
      Percentile(queue_waits, 0.90), stream_stats.ToJson().c_str(),
      replay_wall_ms,
      static_cast<unsigned long long>(replay_manifest.calibrations_computed),
      static_cast<unsigned long long>(replay_manifest.calibrations_loaded),
      mismatches, JsonEscape(store_dir.string()).c_str());
  for (size_t c = 0; c < world.cities.size(); ++c) {
    if (c > 0) summary += ',';
    summary += sfa::StrFormat(
        "{\"name\":\"%s\",\"sp_family\":\"%s\",\"eo_family\":\"%s\","
        "\"n\":%zu}",
        JsonEscape(world.cities[c].name).c_str(),
        JsonEscape(world.cities[c].sp_family->Name()).c_str(),
        JsonEscape(world.cities[c].eo_family->Name()).c_str(),
        world.cities[c].dataset.size());
  }
  summary += "],\"faults\":{\"armed\":[";
  {
    const std::vector<std::string> armed = sfa::Failpoints::Instance().armed();
    for (size_t i = 0; i < armed.size(); ++i) {
      if (i > 0) summary += ',';
      summary += '"' + JsonEscape(armed[i]) + '"';
    }
  }
  summary += sfa::StrFormat(
      "],\"deadline_ms\":%.3f,\"not_admitted\":%zu,\"live_failed\":%zu,"
      "\"live_degraded\":%zu}",
      config.deadline_ms, not_admitted, live_failed, live_degraded);
  summary += ",\"last_manifest\":";
  summary += replay_manifest.ToJson();
  summary += "}";
  std::printf("== run summary (machine-readable) ==\n%s\n", summary.c_str());

  std::filesystem::remove_all(store_dir);
  // Strict criteria (default run): every replayed calibration must come warm
  // from the store. Faulted runs relax the warm requirement — injected store
  // faults legitimately cost recomputes, and failed live requests never
  // persisted theirs — but payload agreement and replay health stay binding.
  const bool ok = mismatches == 0 && replay_manifest.num_failed == 0 &&
                  (config.faulted ||
                   replay_manifest.calibrations_computed == 0);
  if (!ok) {
    std::printf("\nFAILED: restart replay violated the persisted-warm "
                "contract\n");
  }
  return ok ? 0 : 1;
}
