// Fault drills for the calibration store's I/O hardening: transient-write
// retry with backoff, torn-write quarantine, the disk-full circuit breaker
// (open → memory-only serving → probe → re-close), and lost write-behind
// persists. Every drill is driven by the deterministic failpoint registry
// (common/failpoint.h), so fire patterns — and therefore every counter
// asserted here — are exact, not flaky. Labeled `fault` + `tier1`.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/macros.h"
#include "core/audit_pipeline.h"
#include "core/bernoulli_statistic.h"
#include "core/calibration_store.h"
#include "core/grid_family.h"
#include "testing_util.h"

namespace sfa::core {
namespace {

using core::testing::ExpectIdenticalResult;
using core::testing::MakePlantedCity;

struct TempStoreDir {
  std::filesystem::path path;

  explicit TempStoreDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("sfa_store_fault_test_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempStoreDir() { std::filesystem::remove_all(path); }

  std::shared_ptr<CalibrationStore> OpenOrDie(
      CalibrationStore::Options options = {}) const {
    options.directory = path.string();
    auto store = CalibrationStore::Open(options);
    SFA_CHECK_OK(store.status());
    return std::shared_ptr<CalibrationStore>(std::move(store).value());
  }

  /// Options tuned for breaker drills: no retries masking failures, a low
  /// trip threshold, and a short (or effectively infinite) probe window.
  std::shared_ptr<CalibrationStore> OpenForBreakerDrill(
      uint32_t retries, uint32_t threshold, double probe_after_ms) const {
    CalibrationStore::Options options;
    options.store_retries = retries;
    options.breaker_failure_threshold = threshold;
    options.breaker_probe_after_ms = probe_after_ms;
    return OpenOrDie(std::move(options));
  }
};

/// One city + family + a pair of requests sharing one calibration key.
struct FaultFixture {
  data::OutcomeDataset city = MakePlantedCity(71, 2000, 0.40);
  std::unique_ptr<GridPartitionFamily> family;
  std::vector<AuditRequest> requests;

  FaultFixture() {
    auto f = GridPartitionFamily::Create(city.locations(), 6, 6);
    SFA_CHECK_OK(f.status());
    family = std::move(f).value();
    for (const char* id : {"r0", "r1"}) {
      AuditRequest r;
      r.id = id;
      r.dataset = &city;
      r.family = family.get();
      r.options.monte_carlo.num_worlds = 49;
      r.options.monte_carlo.seed = 13;
      requests.push_back(r);
    }
  }

  BernoulliScanStatistic Statistic() const {
    return BernoulliScanStatistic(requests[0].options.direction, city.size(),
                                  city.PositiveCount());
  }

  CalibrationKey Key() const {
    return MakeCalibrationKey(*family, Statistic(),
                              requests[0].options.monte_carlo);
  }

  NullDistribution Calibration() const {
    auto simulated =
        SimulateNull(Statistic(), *family, requests[0].options.monte_carlo);
    SFA_CHECK_OK(simulated.status());
    return std::move(simulated).value();
  }
};

class StoreFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Instance().DisarmAll(); }
  void TearDown() override { Failpoints::Instance().DisarmAll(); }

  Failpoints& fp() { return Failpoints::Instance(); }
};

TEST_F(StoreFaultTest, RetryWithBackoffRecoversFromTransientWriteFailures) {
  TempStoreDir dir("retry");
  auto store = dir.OpenOrDie();  // default: 2 retries
  FaultFixture f;
  const NullDistribution dist = f.Calibration();

  // Exactly two transient failures, then clean: attempts 1 and 2 fail,
  // attempt 3 lands — one successful Store, zero call-level failures.
  ASSERT_TRUE(fp().Arm("store.write", "times(2):error(IOError)").ok());
  ASSERT_TRUE(store->Store(f.Key(), dist).ok());
  EXPECT_EQ(store->stats().stores, 1u);
  EXPECT_EQ(store->stats().store_retries, 2u);
  EXPECT_EQ(store->stats().store_failures, 0u);
  EXPECT_EQ(fp().HitCount("store.write"), 3u);

  auto loaded = store->Load(f.Key());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->MaximaVector(), dist.MaximaVector());
}

TEST_F(StoreFaultTest, ExhaustedRetriesFailTheCall) {
  TempStoreDir dir("exhaust");
  auto store = dir.OpenForBreakerDrill(/*retries=*/2, /*threshold=*/3,
                                       /*probe_after_ms=*/250.0);
  FaultFixture f;

  ASSERT_TRUE(fp().Arm("store.write", "always:error(IOError,still broken)").ok());
  const Status failed = store->Store(f.Key(), f.Calibration());
  EXPECT_TRUE(failed.IsIOError()) << failed;
  EXPECT_EQ(store->stats().store_failures, 1u);  // call-level, not per-attempt
  EXPECT_EQ(store->stats().store_retries, 2u);
  EXPECT_EQ(store->stats().stores, 0u);
  EXPECT_EQ(fp().HitCount("store.write"), 3u);  // 1 + 2 retries
}

TEST_F(StoreFaultTest, NonTransientErrorsAreNotRetried) {
  TempStoreDir dir("notransient");
  auto store = dir.OpenOrDie();
  FaultFixture f;

  // Disk-full (ResourceExhausted) fails immediately: retrying a full disk
  // only delays the breaker's verdict.
  ASSERT_TRUE(
      fp().Arm("store.write", "always:error(ResourceExhausted,disk full)").ok());
  const Status failed = store->Store(f.Key(), f.Calibration());
  EXPECT_TRUE(failed.IsResourceExhausted()) << failed;
  EXPECT_EQ(store->stats().store_retries, 0u);
  EXPECT_EQ(fp().HitCount("store.write"), 1u);
}

TEST_F(StoreFaultTest, TornWriteIsQuarantinedOnceAndRecomputedCleanly) {
  TempStoreDir dir("torn");
  auto store = dir.OpenOrDie();
  FaultFixture f;
  const NullDistribution dist = f.Calibration();

  // The write "succeeds" but only half the frame lands — a torn write.
  ASSERT_TRUE(fp().Arm("store.write", "once:truncate(24)").ok());
  ASSERT_TRUE(store->Store(f.Key(), dist).ok());
  const std::string path = store->FilePathFor(f.Key());
  ASSERT_EQ(std::filesystem::file_size(path), 24u);

  // First load rejects AND quarantines; the torn bytes are preserved under
  // quarantine/ and the key becomes a clean miss — never re-parsed.
  auto loaded = store->Load(f.Key());
  EXPECT_TRUE(loaded.status().IsNotFound());
  EXPECT_EQ(store->stats().load_rejected, 1u);
  EXPECT_EQ(store->stats().quarantined, 1u);
  EXPECT_FALSE(std::filesystem::exists(path));
  const auto quarantined = std::filesystem::path(store->QuarantineDir()) /
                           std::filesystem::path(path).filename();
  ASSERT_TRUE(std::filesystem::exists(quarantined));
  EXPECT_EQ(std::filesystem::file_size(quarantined), 24u);
  auto second = store->Load(f.Key());
  EXPECT_TRUE(second.status().IsNotFound());
  EXPECT_EQ(store->stats().load_rejected, 1u);  // miss now, not a re-reject
  EXPECT_EQ(store->stats().load_misses, 1u);

  // End to end: a pipeline over the (healed) directory recomputes and its
  // responses are byte-identical to a store-less run — a torn frame costs a
  // simulation, never correctness. The recompute's write-behind then lands a
  // clean frame that round-trips.
  AuditPipeline clean, recovered;
  recovered.cache().AttachStore(store);
  auto clean_responses = clean.Run(f.requests);
  auto recovered_responses = recovered.Run(f.requests);
  SFA_CHECK_OK(clean_responses.status());
  SFA_CHECK_OK(recovered_responses.status());
  recovered.cache().FlushStore();
  for (size_t i = 0; i < clean_responses->size(); ++i) {
    SFA_CHECK_OK((*clean_responses)[i].status);
    SFA_CHECK_OK((*recovered_responses)[i].status);
    ExpectIdenticalResult((*clean_responses)[i].result,
                          (*recovered_responses)[i].result,
                          "torn-write recovery " + f.requests[i].id);
  }
  auto healed = store->Load(f.Key());
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(healed->MaximaVector(), dist.MaximaVector());
}

TEST_F(StoreFaultTest, DiskFullTripsBreakerAndServesMemoryOnly) {
  TempStoreDir dir("breaker");
  // Probe window far beyond the test's lifetime: this drill pins the OPEN
  // state (fast-fail + memory-only serving) without racing wall-clock time
  // on a loaded machine. Probe admission and reclose are drilled in
  // FailedProbeKeepsBreakerOpenUntilDiskHeals, whose sleeps only need a
  // *lower* bound (sleep > window), which load can't violate.
  auto store = dir.OpenForBreakerDrill(/*retries=*/0, /*threshold=*/2,
                                       /*probe_after_ms=*/3.6e6);
  FaultFixture f;
  const NullDistribution dist = f.Calibration();

  // Two consecutive disk-full failures open the breaker.
  ASSERT_TRUE(
      fp().Arm("store.write", "times(2):error(ResourceExhausted,disk full)").ok());
  EXPECT_TRUE(store->Store(f.Key(), dist).IsResourceExhausted());
  EXPECT_FALSE(store->stats().breaker_open);
  EXPECT_TRUE(store->Store(f.Key(), dist).IsResourceExhausted());
  EXPECT_TRUE(store->stats().breaker_open);
  EXPECT_EQ(store->stats().breaker_trips, 1u);

  // While open (probe window not yet elapsed): Store and Load fast-fail
  // without touching the disk — the injected site records no further hits.
  const uint64_t hits_when_open = fp().HitCount("store.write");
  EXPECT_TRUE(store->Store(f.Key(), dist).IsResourceExhausted());
  EXPECT_TRUE(store->Load(f.Key()).status().IsNotFound());
  EXPECT_EQ(fp().HitCount("store.write"), hits_when_open);
  EXPECT_EQ(store->stats().breaker_fast_fails, 2u);

  // Memory-only serving: a pipeline on the sick store still answers, bit-
  // identical to a store-less pipeline, with zero store loads.
  AuditPipeline clean, degraded_mode;
  degraded_mode.cache().AttachStore(store);
  PipelineManifest manifest;
  auto expected = clean.Run(f.requests);
  auto served = degraded_mode.Run(f.requests, &manifest);
  SFA_CHECK_OK(expected.status());
  SFA_CHECK_OK(served.status());
  EXPECT_EQ(manifest.calibrations_loaded, 0u);
  for (size_t i = 0; i < expected->size(); ++i) {
    SFA_CHECK_OK((*served)[i].status);
    ExpectIdenticalResult((*expected)[i].result, (*served)[i].result,
                          "memory-only " + f.requests[i].id);
  }

  // Still open at the end: the injection is long spent, but no probe was
  // ever admitted, so nothing touched the disk after the trip.
  EXPECT_TRUE(store->stats().breaker_open);
  EXPECT_EQ(fp().HitCount("store.write"), hits_when_open);
}

TEST_F(StoreFaultTest, FailedProbeKeepsBreakerOpenUntilDiskHeals) {
  TempStoreDir dir("probe");
  auto store = dir.OpenForBreakerDrill(/*retries=*/0, /*threshold=*/1,
                                       /*probe_after_ms=*/30.0);
  FaultFixture f;
  const NullDistribution dist = f.Calibration();

  // Trip (1 failure), then the first probe ALSO fails — still open, probe
  // timer re-armed. The second probe succeeds and closes it.
  ASSERT_TRUE(
      fp().Arm("store.write", "times(2):error(ResourceExhausted,disk full)").ok());
  EXPECT_TRUE(store->Store(f.Key(), dist).IsResourceExhausted());
  EXPECT_TRUE(store->stats().breaker_open);
  std::this_thread::sleep_for(std::chrono::milliseconds(45));
  EXPECT_TRUE(store->Store(f.Key(), dist).IsResourceExhausted());  // probe #1
  EXPECT_TRUE(store->stats().breaker_open);
  EXPECT_EQ(store->stats().breaker_trips, 1u);  // re-arm, not a second trip
  std::this_thread::sleep_for(std::chrono::milliseconds(45));
  ASSERT_TRUE(store->Store(f.Key(), dist).ok());  // probe #2
  EXPECT_FALSE(store->stats().breaker_open);

  // Closed for good: the probe's frame is durable and round-trips intact.
  auto healed = store->Load(f.Key());
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(healed->MaximaVector(), dist.MaximaVector());
}

TEST_F(StoreFaultTest, LoadInjectionFallsBackToRecomputeNotFailure) {
  TempStoreDir dir("loadfault");
  auto store = dir.OpenOrDie();
  FaultFixture f;

  // Seed the directory with a valid frame, then make every Load error out:
  // the read-through cache treats it as a miss and recomputes — injected
  // read failures can cost simulations, never results.
  ASSERT_TRUE(store->Store(f.Key(), f.Calibration()).ok());
  ASSERT_TRUE(fp().Arm("store.load", "always:error(IOError,read broken)").ok());
  AuditPipeline clean, faulted;
  faulted.cache().AttachStore(store);
  PipelineManifest manifest;
  auto expected = clean.Run(f.requests);
  auto served = faulted.Run(f.requests, &manifest);
  SFA_CHECK_OK(expected.status());
  SFA_CHECK_OK(served.status());
  EXPECT_EQ(manifest.calibrations_loaded, 0u);
  EXPECT_EQ(manifest.calibrations_computed, 1u);
  for (size_t i = 0; i < expected->size(); ++i) {
    SFA_CHECK_OK((*served)[i].status);
    ExpectIdenticalResult((*expected)[i].result, (*served)[i].result,
                          "load-fault " + f.requests[i].id);
  }
}

TEST_F(StoreFaultTest, LostWriteBehindPersistIsAbsorbedAndRecomputedLater) {
  TempStoreDir dir("writebehind");
  FaultFixture f;

  // Process 1 computes with every write-behind persist dropped on the floor.
  ASSERT_TRUE(fp().Arm("cache.write_behind", "always:error(IOError)").ok());
  {
    AuditPipeline p1;
    p1.cache().AttachStore(dir.OpenOrDie());
    auto r = p1.Run(f.requests);
    SFA_CHECK_OK(r.status());
    for (const auto& resp : *r) SFA_CHECK_OK(resp.status);
    p1.cache().FlushStore();
  }
  size_t frames = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    if (entry.path().extension() == ".nulldist") ++frames;
  }
  EXPECT_EQ(frames, 0u);  // nothing landed

  // "Process" 2 finds a cold directory and simply recomputes, byte-identical
  // to a cold run — lost persistence is a performance event, not an outcome.
  fp().DisarmAll();
  AuditPipeline clean, p2;
  p2.cache().AttachStore(dir.OpenOrDie());
  PipelineManifest manifest;
  auto expected = clean.Run(f.requests);
  auto recomputed = p2.Run(f.requests, &manifest);
  SFA_CHECK_OK(expected.status());
  SFA_CHECK_OK(recomputed.status());
  EXPECT_EQ(manifest.calibrations_loaded, 0u);
  EXPECT_EQ(manifest.calibrations_computed, 1u);
  for (size_t i = 0; i < expected->size(); ++i) {
    ExpectIdenticalResult((*expected)[i].result, (*recomputed)[i].result,
                          "lost-write-behind " + f.requests[i].id);
  }
}

TEST_F(StoreFaultTest, SkippedFlushStillLandsPersistsEventually) {
  TempStoreDir dir("flushskip");
  FaultFixture f;
  auto store = dir.OpenOrDie();
  AuditPipeline pipeline;
  pipeline.cache().AttachStore(store);
  auto r = pipeline.Run(f.requests);
  SFA_CHECK_OK(r.status());

  // A skipped flush models dying before fsync: the persist tasks themselves
  // are self-contained, so a later REAL flush still lands them.
  ASSERT_TRUE(fp().Arm("cache.flush", "once:error(Internal,crashed)").ok());
  pipeline.cache().FlushStore();  // skipped — may or may not have landed yet
  fp().DisarmAll();
  pipeline.cache().FlushStore();  // real flush: now it must be on disk
  auto loaded = store->Load(f.Key());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
}

TEST_F(StoreFaultTest, StreamStatsSnapshotCarriesStoreHealth) {
  TempStoreDir dir("health");
  auto store = dir.OpenForBreakerDrill(/*retries=*/1, /*threshold=*/1,
                                       /*probe_after_ms=*/60000.0);
  FaultFixture f;

  // One torn write (quarantined on load), then persistent disk-full trips
  // the breaker; the pipeline's stream_stats snapshot reports all of it.
  ASSERT_TRUE(fp().Arm("store.write", "once:corrupt").ok());
  ASSERT_TRUE(store->Store(f.Key(), f.Calibration()).ok());
  EXPECT_TRUE(store->Load(f.Key()).status().IsNotFound());
  ASSERT_TRUE(
      fp().Arm("store.write", "always:error(ResourceExhausted,disk full)").ok());
  EXPECT_FALSE(store->Store(f.Key(), f.Calibration()).ok());

  AuditPipeline pipeline;
  pipeline.cache().AttachStore(store);
  const StreamStats stats = pipeline.stream_stats();
  EXPECT_EQ(stats.store_quarantined, 1u);
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_TRUE(stats.breaker_open);
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"store_quarantined\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"breaker_open\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"deadline_misses\":0"), std::string::npos) << json;
}

}  // namespace
}  // namespace sfa::core
