// The persistence contract of the CalibrationStore: a pipeline warm-started
// from a store directory reproduces cold-run responses byte-for-byte, and
// every way a frame can go bad — version skew, truncation, corruption, a
// frame for a different key — degrades to recompute, never to a wrong
// result. Labeled `stream` (with test_pipeline_streaming.cc) and run under
// TSan in CI: the concurrent read-through test exercises two pipelines
// sharing one directory.
#include "core/calibration_store.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "core/audit_pipeline.h"
#include "core/bernoulli_statistic.h"
#include "core/calibration_cache.h"
#include "core/grid_family.h"
#include "core/knn_circle_family.h"
#include "core/square_family.h"
#include "testing_util.h"

namespace sfa::core {
namespace {

using core::testing::ExpectIdenticalResult;
using core::testing::MakePlantedCity;

/// A fresh, empty store directory, removed on destruction.
struct TempStoreDir {
  std::filesystem::path path;

  explicit TempStoreDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("sfa_calibration_store_test_" + tag + "_" +
            std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempStoreDir() { std::filesystem::remove_all(path); }

  std::shared_ptr<CalibrationStore> OpenOrDie() const {
    auto store = CalibrationStore::Open({.directory = path.string()});
    SFA_CHECK_OK(store.status());
    return std::shared_ptr<CalibrationStore>(std::move(store).value());
  }
};

/// A small fixture batch: one city, one family, two calibrations (two-sided
/// + low direction) spread over four requests.
struct StoreBatch {
  data::OutcomeDataset city = MakePlantedCity(71, 3000, 0.40);
  std::unique_ptr<GridPartitionFamily> family;
  std::vector<AuditRequest> requests;

  StoreBatch() {
    auto f = GridPartitionFamily::Create(city.locations(), 8, 8);
    SFA_CHECK_OK(f.status());
    family = std::move(f).value();
    for (double alpha : {0.05, 0.01}) {
      for (auto direction :
           {stats::ScanDirection::kTwoSided, stats::ScanDirection::kLow}) {
        AuditRequest r;
        r.id = std::to_string(alpha) + "-" +
               stats::ScanDirectionToString(direction);
        r.dataset = &city;
        r.family = family.get();
        r.options.alpha = alpha;
        r.options.direction = direction;
        r.options.monte_carlo.num_worlds = 99;
        r.options.monte_carlo.seed = 13;
        requests.push_back(r);
      }
    }
  }
};

std::vector<AuditResponse> RunOrDie(AuditPipeline& pipeline,
                                    const std::vector<AuditRequest>& batch,
                                    PipelineManifest* manifest = nullptr) {
  auto responses = pipeline.Run(batch, manifest);
  SFA_CHECK_OK(responses.status());
  for (const AuditResponse& r : *responses) SFA_CHECK_OK(r.status);
  return std::move(responses).value();
}

BernoulliScanStatistic StatisticFor(const StoreBatch& b,
                                    stats::ScanDirection direction) {
  return BernoulliScanStatistic(direction, b.city.size(),
                                b.city.PositiveCount());
}

CalibrationKey KeyFor(const StoreBatch& b, const AuditRequest& req) {
  return MakeCalibrationKey(*b.family, StatisticFor(b, req.options.direction),
                            req.options.monte_carlo);
}

// Persisted frames are found by key, and every key hashes the family
// fingerprint, whose probe worlds are drawn through Labels::SampleBernoulli.
// A drift in the RNG, the Bernoulli sampler or the counting of any family
// would silently orphan every frame already on disk; these pins make it loud.
TEST(CalibrationStore, KeysOfPersistedFramesArePinned) {
  const data::OutcomeDataset city = MakePlantedCity(2024, 600, 0.85);
  const std::vector<geo::Point> centers = {
      {2.0, 2.0}, {7.5, 7.5}, {5.0, 1.0}, {1.0, 8.0}, {8.0, 3.0}};
  auto grid = GridPartitionFamily::Create(city.locations(), 8, 4);
  SquareScanOptions square_options;
  square_options.centers = centers;
  square_options.side_lengths = {1.0, 2.0, 3.5};
  auto squares = SquareScanFamily::Create(city.locations(), square_options);
  KnnCircleOptions knn_options;
  knn_options.centers = centers;
  auto knn = KnnCircleFamily::Create(city.locations(), knn_options);
  ASSERT_TRUE(grid.ok() && squares.ok() && knn.ok());
  MonteCarloOptions options;
  options.num_worlds = 99;
  options.seed = 17;
  const BernoulliScanStatistic statistic(stats::ScanDirection::kHigh,
                                         city.size(), city.PositiveCount());
  const RegionFamily* families[] = {grid->get(), squares->get(), knn->get()};
  const uint64_t fingerprints[] = {0x021474f09c72fb51ULL, 0xbae7e6e35f996022ULL,
                                   0xcd4792b7cb1b3baeULL};
  const uint64_t hashes[] = {0x2b13222cdbcad7d7ULL, 0x997a70baecc7b6cbULL,
                             0xd03c992614462eceULL};
  for (size_t i = 0; i < std::size(families); ++i) {
    SCOPED_TRACE(families[i]->Name());
    EXPECT_EQ(FamilyFingerprint(*families[i]), fingerprints[i]);
    const CalibrationKey key =
        MakeCalibrationKey(*families[i], statistic, options);
    EXPECT_EQ(key.hash, hashes[i]);
  }
}

TEST(CalibrationStore, RoundTripsNullDistributionExactly) {
  TempStoreDir dir("roundtrip");
  auto store = dir.OpenOrDie();
  StoreBatch b;
  const CalibrationKey key = KeyFor(b, b.requests[0]);

  auto simulated =
      SimulateNull(StatisticFor(b, b.requests[0].options.direction), *b.family,
                   b.requests[0].options.monte_carlo);
  ASSERT_TRUE(simulated.ok()) << simulated.status();

  ASSERT_TRUE(store->Store(key, *simulated).ok());
  auto loaded = store->Load(key);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // Bit-exact round trip: doubles survive the binary frame unchanged.
  EXPECT_EQ(loaded->MaximaVector(), simulated->MaximaVector());
  EXPECT_EQ(store->stats().load_hits, 1u);
  EXPECT_EQ(store->stats().stores, 1u);
}

TEST(CalibrationStore, RoundTripsEarlyStopMetadata) {
  // v3 frames append (worlds_requested, stop_reason) after the maxima: an
  // early-stopped adaptive calibration must come back early-stopped — not
  // masquerading as a full run of its truncated length.
  TempStoreDir dir("earlystop");
  auto store = dir.OpenOrDie();
  StoreBatch b;
  const CalibrationKey key = KeyFor(b, b.requests[0]);

  const NullDistribution stopped(std::vector<double>{4.0, 3.0, 2.0, 1.0},
                                 /*worlds_requested=*/99,
                                 McStopReason::kCiAboveAlpha);
  ASSERT_TRUE(stopped.early_stopped());
  ASSERT_TRUE(store->Store(key, stopped).ok());
  auto loaded = store->Load(key);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->MaximaVector(), stopped.MaximaVector());
  EXPECT_EQ(loaded->worlds_requested(), 99u);
  EXPECT_EQ(loaded->stop_reason(), McStopReason::kCiAboveAlpha);
  EXPECT_TRUE(loaded->early_stopped());
}

TEST(CalibrationStore, RejectsFrameWithCorruptStopMetadata) {
  // worlds_requested below the completed count is structurally impossible;
  // a frame claiming it is quarantined into a recompute.
  TempStoreDir dir("badstop");
  auto store = dir.OpenOrDie();
  StoreBatch b;
  const CalibrationKey key = KeyFor(b, b.requests[0]);
  NullDistribution dist(std::vector<double>{3.0, 2.0, 1.0});
  ASSERT_TRUE(store->Store(key, dist).ok());

  const std::string path = store->FilePathFor(key);
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    ASSERT_TRUE(f.good());
    std::ostringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
  }
  // Layout from the trailer backwards: checksum(u64) | stop_reason(u32) |
  // worlds_requested(u64). Claim fewer requested worlds than stored maxima.
  const uint64_t bogus_requested = 1;
  std::memcpy(bytes.data() + bytes.size() - sizeof(uint64_t) -
                  sizeof(uint32_t) - sizeof(uint64_t),
              &bogus_requested, sizeof bogus_requested);
  uint64_t checksum = 0xcbf29ce484222325ULL;  // FNV-1a over all but trailer
  for (size_t i = 0; i + sizeof(uint64_t) < bytes.size(); ++i) {
    checksum ^= static_cast<unsigned char>(bytes[i]);
    checksum *= 0x100000001b3ULL;
  }
  std::memcpy(bytes.data() + bytes.size() - sizeof checksum, &checksum,
              sizeof checksum);
  { std::ofstream(path, std::ios::binary) << bytes; }

  auto loaded = store->Load(key);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound()) << loaded.status();
  EXPECT_EQ(store->stats().load_rejected, 1u);
}

TEST(CalibrationStore, WarmStartedPipelineIsByteIdenticalToColdRun) {
  TempStoreDir dir("warmstart");
  StoreBatch b;

  // Process 1: cold run with write-behind persistence.
  PipelineManifest cold_manifest;
  std::vector<AuditResponse> cold;
  {
    AuditPipeline pipeline;
    pipeline.cache().AttachStore(dir.OpenOrDie());
    cold = RunOrDie(pipeline, b.requests, &cold_manifest);
    pipeline.cache().FlushStore();
    EXPECT_EQ(cold_manifest.calibrations_computed, 2u);
    EXPECT_EQ(cold_manifest.calibrations_loaded, 0u);
    EXPECT_EQ(pipeline.cache().stats().store_writes, 2u);
  }

  // "Process" 2: fresh pipeline + fresh store handle on the same directory —
  // no simulation runs, responses match bit-for-bit.
  PipelineManifest warm_manifest;
  AuditPipeline restarted;
  restarted.cache().AttachStore(dir.OpenOrDie());
  const auto warm = RunOrDie(restarted, b.requests, &warm_manifest);
  EXPECT_EQ(warm_manifest.calibrations_computed, 0u);
  EXPECT_EQ(warm_manifest.calibrations_loaded, 2u);
  EXPECT_EQ(restarted.cache().stats().store_hits, 2u);
  ASSERT_EQ(warm.size(), cold.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    ExpectIdenticalResult(cold[i].result, warm[i].result,
                          "persisted-warm " + b.requests[i].id);
    EXPECT_TRUE(warm[i].cache_hit);
  }
}

TEST(CalibrationStore, RejectsForeignFormatVersion) {
  TempStoreDir dir("version");
  auto store = dir.OpenOrDie();
  StoreBatch b;
  const CalibrationKey key = KeyFor(b, b.requests[0]);
  NullDistribution dist(std::vector<double>{3.0, 2.0, 1.0});
  ASSERT_TRUE(store->Store(key, dist).ok());

  // Bump the version field in place (bytes 8..11, after the 8-byte magic).
  const std::string path = store->FilePathFor(key);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(8);
    const uint32_t foreign = CalibrationStore::kFormatVersion + 1;
    f.write(reinterpret_cast<const char*>(&foreign), sizeof foreign);
  }
  auto loaded = store->Load(key);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound()) << loaded.status();
  EXPECT_EQ(store->stats().load_rejected, 1u);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  SFA_CHECK(out.good());
}

/// The frame trailer's checksum: FNV-1a over every byte before it.
uint64_t FrameChecksum(const std::string& frame) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i + sizeof(uint64_t) < frame.size(); ++i) {
    h ^= static_cast<unsigned char>(frame[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

using LoadEntryPoint =
    Result<NullDistribution> (CalibrationStore::*)(const CalibrationKey&) const;

constexpr std::pair<const char*, LoadEntryPoint> kLoadEntryPoints[] = {
    {"Load", &CalibrationStore::Load},
    {"LoadView", &CalibrationStore::LoadView},
};

// The mutation drill over one small valid v4 frame (short key debug string,
// 16 worlds): every single-bit flip, every truncation and one appended byte
// must be rejected by both entry points — NotFound with the frame
// quarantined, never a served result.
TEST(CalibrationStore, RejectsTruncatedAndCorruptedFrames) {
  TempStoreDir dir("corrupt");
  auto store = dir.OpenOrDie();
  CalibrationKey key;
  key.hash = 0x5fa0c0ffee5eedULL;
  key.debug = "k3";
  std::vector<double> maxima(16);
  for (size_t i = 0; i < maxima.size(); ++i) maxima[i] = 9.5 - 0.375 * i;
  const NullDistribution dist(maxima);
  ASSERT_TRUE(store->Store(key, dist).ok());
  const std::string path = store->FilePathFor(key);
  const std::string frame = ReadFileBytes(path);
  ASSERT_GT(frame.size(), 16 * sizeof(double));

  uint64_t cases = 0;
  const auto expect_rejected = [&](const std::string& mutated,
                                   const std::string& what) {
    for (const auto& [name, load] : kLoadEntryPoints) {
      // Store resets the index vouch, so this first load checksums.
      ASSERT_TRUE(store->Store(key, dist).ok());
      WriteFileBytes(path, mutated);
      auto loaded = (store.get()->*load)(key);
      ASSERT_TRUE(loaded.status().IsNotFound())
          << name << " on " << what << ": " << loaded.status();
      ASSERT_FALSE(std::filesystem::exists(path)) << name << " on " << what;
      ++cases;
    }
  };
  for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::string flipped = frame;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    expect_rejected(flipped, "bit flip " + std::to_string(bit));
  }
  for (size_t keep = 0; keep < frame.size(); ++keep) {
    expect_rejected(frame.substr(0, keep),
                    "truncation to " + std::to_string(keep));
  }
  expect_rejected(frame + '\0', "one trailing byte");

  CalibrationStore::Stats stats = store->stats();
  EXPECT_EQ(stats.load_rejected, cases);
  EXPECT_EQ(stats.quarantined, stats.load_rejected);
  EXPECT_EQ(stats.load_hits, 0u);

  // Maxima stored ascending under a recomputed checksum form a valid frame
  // that a read-only mapping cannot serve: both entry points serve an owned
  // copy, re-sorted and bit-identical to the stored distribution.
  std::string reversed = frame;
  const size_t maxima_offset = frame.size() - sizeof(uint64_t) -
                               sizeof(uint32_t) - sizeof(uint64_t) -
                               maxima.size() * sizeof(double);
  std::vector<double> ascending(maxima.rbegin(), maxima.rend());
  std::memcpy(reversed.data() + maxima_offset, ascending.data(),
              ascending.size() * sizeof(double));
  const uint64_t checksum = FrameChecksum(reversed);
  std::memcpy(reversed.data() + reversed.size() - sizeof checksum, &checksum,
              sizeof checksum);
  for (const auto& [name, load] : kLoadEntryPoints) {
    ASSERT_TRUE(store->Store(key, dist).ok());
    WriteFileBytes(path, reversed);
    for (int hit = 0; hit < 2; ++hit) {
      auto loaded = (store.get()->*load)(key);
      ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status();
      EXPECT_FALSE(loaded->zero_copy()) << name;
      const std::vector<double> got = loaded->MaximaVector();
      ASSERT_EQ(got.size(), maxima.size()) << name;
      EXPECT_EQ(std::memcmp(got.data(), maxima.data(),
                            maxima.size() * sizeof(double)),
                0)
          << name;
      EXPECT_EQ(loaded->worlds_requested(), dist.worlds_requested()) << name;
      EXPECT_EQ(loaded->stop_reason(), dist.stop_reason()) << name;
    }
  }
  stats = store->stats();
  EXPECT_EQ(stats.load_rejected, cases);
  EXPECT_EQ(stats.mmap_loads, 0u);

  // And the pipeline-level fallback: a corrupt store never poisons results —
  // the calibration is recomputed and responses match a store-less run.
  StoreBatch b;
  const CalibrationKey batch_key = KeyFor(b, b.requests[0]);
  ASSERT_TRUE(store->Store(batch_key, dist).ok());
  const std::string batch_path = store->FilePathFor(batch_key);
  std::filesystem::resize_file(batch_path,
                               std::filesystem::file_size(batch_path) / 3);
  AuditPipeline clean, fallback;
  PipelineManifest manifest;
  fallback.cache().AttachStore(store);
  const auto expected = RunOrDie(clean, b.requests);
  const auto recovered = RunOrDie(fallback, b.requests, &manifest);
  EXPECT_EQ(manifest.calibrations_loaded, 0u);
  EXPECT_EQ(manifest.calibrations_computed, 2u);
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectIdenticalResult(expected[i].result, recovered[i].result,
                          "corrupt-fallback " + b.requests[i].id);
  }
}

TEST(CalibrationStore, RejectsFrameBelongingToAnotherKey) {
  TempStoreDir dir("wrongkey");
  auto store = dir.OpenOrDie();
  StoreBatch b;
  const CalibrationKey key_a = KeyFor(b, b.requests[0]);   // two-sided
  const CalibrationKey key_b = KeyFor(b, b.requests[1]);   // low
  ASSERT_NE(key_a, key_b);
  NullDistribution dist(std::vector<double>{2.0, 1.0});
  ASSERT_TRUE(store->Store(key_a, dist).ok());

  // Masquerade key A's frame under key B's filename: the embedded key wins.
  std::filesystem::copy_file(store->FilePathFor(key_a),
                             store->FilePathFor(key_b));
  auto loaded = store->Load(key_b);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound());
  EXPECT_EQ(store->stats().load_rejected, 1u);
}

TEST(CalibrationStore, RejectsPreStatisticLayerV1Frames) {
  // The statistic layer changed what a calibration key MEANS (keys embed the
  // ScanStatistic fingerprint) — v2; the adaptive-stop layer appended stop
  // metadata to the frame body — v3; the zero-copy mmap layer aligned the
  // maxima array — v4. Frames of any other version — written by older
  // builds — must be rejected into a recompute, never adopted.
  ASSERT_EQ(CalibrationStore::kFormatVersion, 4u);
  TempStoreDir dir("v1frame");
  auto store = dir.OpenOrDie();
  StoreBatch b;
  const CalibrationKey key = KeyFor(b, b.requests[0]);
  NullDistribution dist(std::vector<double>{3.0, 2.0, 1.0});
  ASSERT_TRUE(store->Store(key, dist).ok());

  // Rewrite the version field to 1 and re-seal the checksum, simulating a
  // well-formed old-format frame (not mere corruption).
  const std::string path = store->FilePathFor(key);
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    ASSERT_TRUE(f.good());
    std::ostringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
  }
  const uint32_t v1 = 1;
  std::memcpy(bytes.data() + 8, &v1, sizeof v1);
  uint64_t checksum = 0xcbf29ce484222325ULL;  // FNV-1a over all but trailer
  for (size_t i = 0; i + sizeof(uint64_t) < bytes.size(); ++i) {
    checksum ^= static_cast<unsigned char>(bytes[i]);
    checksum *= 0x100000001b3ULL;
  }
  std::memcpy(bytes.data() + bytes.size() - sizeof checksum, &checksum,
              sizeof checksum);
  { std::ofstream(path, std::ios::binary) << bytes; }

  auto loaded = store->Load(key);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound()) << loaded.status();
  EXPECT_EQ(store->stats().load_rejected, 1u);

  // End to end: a pipeline over this directory recomputes instead of
  // adopting the stale frame.
  AuditPipeline pipeline;
  pipeline.cache().AttachStore(store);
  PipelineManifest manifest;
  RunOrDie(pipeline, {b.requests[0]}, &manifest);
  EXPECT_EQ(manifest.calibrations_loaded, 0u);
  EXPECT_EQ(manifest.calibrations_computed, 1u);
}

TEST(CalibrationStore, EvictToBudgetSweepsLeastRecentlyUsedFirst) {
  TempStoreDir dir("evict");
  auto store = dir.OpenOrDie();
  StoreBatch b;

  // Three frames with identical sizes and staggered mtimes (oldest first).
  std::vector<CalibrationKey> keys;
  for (uint64_t seed : {101u, 102u, 103u}) {
    MonteCarloOptions mc = b.requests[0].options.monte_carlo;
    mc.seed = seed;
    keys.push_back(MakeCalibrationKey(
        *b.family, StatisticFor(b, stats::ScanDirection::kTwoSided), mc));
    NullDistribution dist(std::vector<double>{1.0 + static_cast<double>(seed)});
    ASSERT_TRUE(store->Store(keys.back(), dist).ok());
    // Stagger mtimes into the past, first-written oldest (seed 101 → -99h).
    const auto stamp = std::filesystem::file_time_type::clock::now() -
                       std::chrono::hours(200 - seed);
    std::filesystem::last_write_time(store->FilePathFor(keys.back()), stamp);
  }
  const auto frame_size =
      std::filesystem::file_size(store->FilePathFor(keys[0]));

  // Touch the oldest via a Load hit: it becomes the most recent, so the
  // sweep (budget = 2 frames) must evict the key written second instead.
  ASSERT_TRUE(store->Load(keys[0]).ok());
  auto evicted = store->EvictToBudget(2 * frame_size + frame_size / 2);
  ASSERT_TRUE(evicted.ok()) << evicted.status();
  EXPECT_EQ(*evicted, 1u);
  EXPECT_TRUE(store->Load(keys[0]).ok()) << "LRU-touched frame survived";
  EXPECT_FALSE(store->Load(keys[1]).ok()) << "coldest frame evicted";
  EXPECT_TRUE(store->Load(keys[2]).ok());
  EXPECT_EQ(store->stats().evicted_files, 1u);
  EXPECT_GT(store->stats().evicted_bytes, 0u);

  // Budget 0 clears everything; an empty directory sweep is a no-op.
  ASSERT_TRUE(store->EvictToBudget(0).ok());
  EXPECT_FALSE(store->Load(keys[0]).ok());
  EXPECT_FALSE(store->Load(keys[2]).ok());
  auto none = store->EvictToBudget(0);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0u);
}

TEST(CalibrationStore, SweepOnOpenBoundsALongLivedDirectory) {
  TempStoreDir dir("sweepopen");
  StoreBatch b;
  uint64_t frame_size = 0;
  {
    auto store = dir.OpenOrDie();
    for (uint64_t seed : {201u, 202u, 203u, 204u}) {
      MonteCarloOptions mc = b.requests[0].options.monte_carlo;
      mc.seed = seed;
      const CalibrationKey key = MakeCalibrationKey(
          *b.family, StatisticFor(b, stats::ScanDirection::kTwoSided), mc);
      NullDistribution dist(std::vector<double>{0.5});
      ASSERT_TRUE(store->Store(key, dist).ok());
      const auto stamp = std::filesystem::file_time_type::clock::now() -
                         std::chrono::hours(300 - seed);
      std::filesystem::last_write_time(store->FilePathFor(key), stamp);
      frame_size = std::filesystem::file_size(store->FilePathFor(key));
    }
  }
  // sweep_on_open with the default max_bytes=0 ("unbounded") must be a
  // no-op — NOT a wipe of the whole directory.
  auto unbounded = CalibrationStore::Open(
      {.directory = dir.path.string(), .sweep_on_open = true});
  ASSERT_TRUE(unbounded.ok());
  size_t remaining = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    if (entry.path().extension() == ".nulldist") ++remaining;
  }
  EXPECT_EQ(remaining, 4u);
  EXPECT_EQ((*unbounded)->stats().evicted_files, 0u);

  // Reopen with a two-frame budget and the startup sweep enabled.
  auto swept = CalibrationStore::Open({.directory = dir.path.string(),
                                       .max_bytes = 2 * frame_size,
                                       .sweep_on_open = true});
  ASSERT_TRUE(swept.ok()) << swept.status();
  remaining = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    if (entry.path().extension() == ".nulldist") ++remaining;
  }
  EXPECT_EQ(remaining, 2u);
  EXPECT_EQ((*swept)->stats().evicted_files, 2u);
}

TEST(CalibrationStore, OpenRequiresUsableDirectory) {
  TempStoreDir dir("open");
  // A file where the directory should be.
  const auto file_path = dir.path / "not_a_dir";
  { std::ofstream(file_path) << "x"; }
  EXPECT_FALSE(
      CalibrationStore::Open({.directory = file_path.string()}).ok());
  EXPECT_FALSE(CalibrationStore::Open({.directory = ""}).ok());
  // create_if_missing=false on an absent path.
  auto absent = CalibrationStore::Open(
      {.directory = (dir.path / "absent").string(), .create_if_missing = false});
  EXPECT_FALSE(absent.ok());
  EXPECT_TRUE(absent.status().IsNotFound());
  // And the success path creates nested directories.
  EXPECT_TRUE(CalibrationStore::Open(
                  {.directory = (dir.path / "a" / "b").string()})
                  .ok());
}

TEST(CalibrationStore, ConcurrentReadThroughFromTwoPipelinesSharingADirectory) {
  TempStoreDir dir("concurrent");
  StoreBatch b;

  // Baseline without any store.
  AuditPipeline baseline_pipeline;
  const auto baseline = RunOrDie(baseline_pipeline, b.requests);

  // Seed the directory with one of the two calibrations so the concurrent
  // run mixes read-through hits and compute+write-behind misses.
  {
    AuditPipeline seeder;
    seeder.cache().AttachStore(dir.OpenOrDie());
    RunOrDie(seeder, {b.requests[0]});
  }

  // Two pipelines, each with its OWN store handle on the shared directory,
  // running the full batch concurrently.
  AuditPipeline p1, p2;
  p1.cache().AttachStore(dir.OpenOrDie());
  p2.cache().AttachStore(dir.OpenOrDie());
  std::vector<AuditResponse> r1, r2;
  std::thread t1([&] { r1 = RunOrDie(p1, b.requests); });
  std::thread t2([&] { r2 = RunOrDie(p2, b.requests); });
  t1.join();
  t2.join();

  for (size_t i = 0; i < baseline.size(); ++i) {
    ExpectIdenticalResult(baseline[i].result, r1[i].result,
                          "concurrent-p1 " + b.requests[i].id);
    ExpectIdenticalResult(baseline[i].result, r2[i].result,
                          "concurrent-p2 " + b.requests[i].id);
  }
  // Each pipeline served at least the seeded calibration from disk.
  EXPECT_GE(p1.cache().stats().store_hits, 1u);
  EXPECT_GE(p2.cache().stats().store_hits, 1u);
}

TEST(CalibrationStore, OpenCreatesMissingParentDirectories) {
  // Regression: create_if_missing must behave like `mkdir -p` — a deploy
  // pointing at a nested, not-yet-existing path (fresh volume) has no parent
  // to lean on.
  TempStoreDir dir("mkdirp");
  const auto nested = dir.path / "a" / "b" / "c" / "store";
  ASSERT_FALSE(std::filesystem::exists(dir.path / "a"));
  auto store = CalibrationStore::Open({.directory = nested.string()});
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_TRUE(std::filesystem::is_directory(nested));

  // And the created directory is immediately usable end to end.
  StoreBatch b;
  const CalibrationKey key = KeyFor(b, b.requests[0]);
  NullDistribution dist(std::vector<double>{1.0});
  ASSERT_TRUE((*store)->Store(key, dist).ok());
  EXPECT_TRUE((*store)->Load(key).ok());
}

TEST(CalibrationStore, EvictSweepRacingConcurrentLoadsAndStoresStaysSafe) {
  // An eviction sweep racing writers and readers on the same directory must
  // never produce a wrong result — only extra misses (evicted frame →
  // recompute) or benign raced removals. Exercises the entry_ec/remove_ec
  // tolerance paths in EvictToBudget under real contention.
  TempStoreDir dir("evictrace");
  auto store = dir.OpenOrDie();
  StoreBatch b;
  std::vector<CalibrationKey> keys;
  std::vector<NullDistribution> dists;
  for (uint64_t seed = 900; seed < 916; ++seed) {
    MonteCarloOptions mc = b.requests[0].options.monte_carlo;
    mc.seed = seed;
    keys.push_back(MakeCalibrationKey(
        *b.family, StatisticFor(b, stats::ScanDirection::kTwoSided), mc));
    dists.emplace_back(
        std::vector<double>{static_cast<double>(seed), 1.0, 0.5});
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> wrong_payloads{0};
  std::thread writer([&] {
    for (int round = 0; round < 40; ++round) {
      for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_TRUE(store->Store(keys[i], dists[i]).ok());
      }
    }
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      for (size_t i = 0; i < keys.size(); ++i) {
        auto loaded = store->Load(keys[i]);
        if (loaded.ok() && loaded->MaximaVector() != dists[i].MaximaVector()) {
          wrong_payloads.fetch_add(1);
        }
      }
    }
  });
  std::thread evictor([&] {
    while (!stop.load()) {
      auto swept = store->EvictToBudget(0);  // max pressure: evict everything
      ASSERT_TRUE(swept.ok()) << swept.status();
    }
  });
  writer.join();
  reader.join();
  evictor.join();

  EXPECT_EQ(wrong_payloads.load(), 0u);
  // Zero corrupt frames were ever observed: every load either hit a complete
  // frame or missed; nothing was quarantined by the race.
  EXPECT_EQ(store->stats().load_rejected, 0u);
  EXPECT_EQ(store->stats().store_failures, 0u);

  // The directory still works after the storm.
  ASSERT_TRUE(store->Store(keys[0], dists[0]).ok());
  EXPECT_TRUE(store->Load(keys[0]).ok());
}

TEST(CalibrationStore, OrphanedTempsAreReapedButInFlightWritesSurvive) {
  // Regression: a writer killed between fopen and rename used to leak its
  // .tmp.* file forever — invisible to the byte accounting, never swept.
  TempStoreDir dir("orphantemp");
  StoreBatch b;
  {
    auto store = dir.OpenOrDie();
    NullDistribution dist(std::vector<double>{0.5});
    ASSERT_TRUE(store->Store(KeyFor(b, b.requests[0]), dist).ok());
  }

  // A dead writer's temp (embedded pid provably dead: a reaped child), and
  // a LIVE writer's fresh temp (our own pid, inside the grace window).
  const pid_t dead = ::fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) ::_exit(0);
  { int status = 0; ::waitpid(dead, &status, 0); }
  const auto orphan =
      dir.path / ("deadbeef.nulldist.tmp." + std::to_string(dead) + ".1");
  const auto in_flight =
      dir.path / ("cafef00d.nulldist.tmp." + std::to_string(::getpid()) + ".2");
  { std::ofstream(orphan) << "partial frame of a killed writer"; }
  { std::ofstream(in_flight) << "partial frame of a live writer"; }

  // Reopen: the recovery sweep must reap the orphan (dead pid — no grace
  // wait) and must NOT touch the live writer's in-grace temp.
  auto store = CalibrationStore::Open({.directory = dir.path.string()});
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_FALSE(std::filesystem::exists(orphan));
  EXPECT_TRUE(std::filesystem::exists(in_flight));
  EXPECT_EQ((*store)->stats().temps_reaped, 1u);

  // Age the live temp past the grace window: EvictToBudget's sweep reaps it
  // even though its writer is alive (a wedged writer must not leak forever).
  std::filesystem::last_write_time(
      in_flight,
      std::filesystem::file_time_type::clock::now() - std::chrono::hours(2));
  ASSERT_TRUE((*store)->EvictToBudget(1u << 30).ok());
  EXPECT_FALSE(std::filesystem::exists(in_flight));
  EXPECT_EQ((*store)->stats().temps_reaped, 2u);
  // The published frame was never collateral damage.
  EXPECT_TRUE((*store)->Load(KeyFor(b, b.requests[0])).ok());
}

TEST(CalibrationStore, QuarantineIsBoundedByBytesOldestFirst) {
  TempStoreDir dir("quarbudget");

  // Three quarantined frames of 100 bytes each, staggered mtimes.
  const auto qdir = dir.path / "quarantine";
  std::filesystem::create_directories(qdir);
  const std::string payload(100, 'x');
  for (int i = 0; i < 3; ++i) {
    const auto path = qdir / ("bad" + std::to_string(i) + ".nulldist");
    { std::ofstream(path) << payload; }
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now() -
                  std::chrono::hours(30 - i));
  }

  // Budget 0 = unbounded: open must keep all three.
  {
    auto store = CalibrationStore::Open({.directory = dir.path.string()});
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->stats().quarantine_evicted_files, 0u);
  }
  // Budget for two frames: the oldest goes, newest two stay.
  auto store = CalibrationStore::Open(
      {.directory = dir.path.string(), .quarantine_max_bytes = 250});
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->stats().quarantine_evicted_files, 1u);
  EXPECT_EQ((*store)->stats().quarantine_evicted_bytes, 100u);
  EXPECT_FALSE(std::filesystem::exists(qdir / "bad0.nulldist"));
  EXPECT_TRUE(std::filesystem::exists(qdir / "bad1.nulldist"));
  EXPECT_TRUE(std::filesystem::exists(qdir / "bad2.nulldist"));

  // RecoverySweep re-enforces the budget as quarantine grows at runtime.
  const auto late = qdir / "bad3.nulldist";
  { std::ofstream(late) << payload << payload; }  // 200 bytes, newest
  (*store)->RecoverySweep();
  uint64_t remaining_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(qdir)) {
    remaining_bytes += std::filesystem::file_size(entry.path());
  }
  EXPECT_LE(remaining_bytes, 250u);
  EXPECT_TRUE(std::filesystem::exists(late)) << "newest must survive";
}

}  // namespace
}  // namespace sfa::core
