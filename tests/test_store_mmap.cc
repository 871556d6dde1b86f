// The zero-copy warm path of the CalibrationStore: mmap'd frame views must
// stay valid and byte-identical while eviction, recovery sweeps, and
// re-Stores unlink or rewrite the frames under them (POSIX keeps mapped
// pages alive until the last munmap); the in-memory index must answer warm
// hits without re-validating unchanged frames and must detect foreign
// rewrites by signature; and when a mapping fails — injected through the
// `store.mmap` failpoint — LoadView must serve the copy Load serves, with
// bit-identical results. Run under TSan in CI alongside the other store
// suites.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/random.h"
#include "core/calibration_store.h"

namespace sfa::core {
namespace {

/// A fresh, empty store directory, removed on destruction.
struct TempStoreDir {
  std::filesystem::path path;

  explicit TempStoreDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("sfa_store_mmap_test_" + tag + "_" + std::to_string(::getpid()));
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
};

CalibrationKey MakeKey(uint64_t n) {
  CalibrationKey key;
  key.hash = 0x9e3779b97f4a7c15ULL * (n + 1);
  key.debug = "mmap-test-key-" + std::to_string(n);
  return key;
}

/// A deterministic synthetic calibration; distinct seeds give frames whose
/// maxima differ in (almost) every double — a torn or mixed read of two
/// generations cannot masquerade as either.
NullDistribution MakeDistribution(uint64_t seed, size_t worlds = 512) {
  Rng rng(seed);
  std::vector<double> maxima(worlds);
  for (double& m : maxima) m = rng.Uniform(0.0, 20.0);
  return NullDistribution(std::move(maxima));
}

class StoreMmapTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Instance().DisarmAll(); }
  void TearDown() override { Failpoints::Instance().DisarmAll(); }

  Failpoints& fp() { return Failpoints::Instance(); }
};

TEST_F(StoreMmapTest, LoadViewServesZeroCopyByteIdenticalToLoad) {
  TempStoreDir dir("zero_copy");
  auto store = dir.OpenOrDie();
  const CalibrationKey key = MakeKey(1);
  const NullDistribution dist = MakeDistribution(10);
  ASSERT_TRUE(store->Store(key, dist).ok());

  auto view = store->LoadView(key);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_TRUE(view->zero_copy());
  EXPECT_EQ(view->MaximaVector(), dist.MaximaVector());
  EXPECT_EQ(view->worlds_requested(), dist.worlds_requested());
  EXPECT_EQ(view->stop_reason(), dist.stop_reason());

  auto copy = store->Load(key);
  ASSERT_TRUE(copy.ok()) << copy.status();
  EXPECT_FALSE(copy->zero_copy());
  EXPECT_EQ(copy->MaximaVector(), view->MaximaVector());

  const CalibrationStore::Stats stats = store->stats();
  EXPECT_EQ(stats.mmap_loads, 1u);
  EXPECT_EQ(stats.mmap_frames, 1u);
  EXPECT_GT(stats.mmap_bytes, 0u);
  EXPECT_EQ(stats.load_hits, 2u);  // the view and the copy both count
}

TEST_F(StoreMmapTest, WarmHitsAreAnsweredByTheIndexWithoutRevalidation) {
  TempStoreDir dir("index_gate");
  auto store = dir.OpenOrDie();
  const CalibrationKey key = MakeKey(2);
  ASSERT_TRUE(store->Store(key, MakeDistribution(20)).ok());

  // First load earns the checksum (a Store never pre-validates its own
  // frame — torn bytes that land on disk must fail the first read).
  ASSERT_TRUE(store->Load(key).ok());
  EXPECT_EQ(store->stats().index_hits, 0u);

  // Warm copy-path hit: unchanged (size, mtime, generation) signature —
  // answered on the index's word, no re-checksum.
  ASSERT_TRUE(store->Load(key).ok());
  EXPECT_EQ(store->stats().index_hits, 1u);

  // The first LoadView maps the frame and earns ITS one-time validation of
  // the mapped generation (not an index-answered hit); every later view is.
  ASSERT_TRUE(store->LoadView(key).ok());
  EXPECT_EQ(store->stats().index_hits, 1u);
  ASSERT_TRUE(store->LoadView(key).ok());
  EXPECT_EQ(store->stats().index_hits, 2u);
  EXPECT_EQ(store->stats().mmap_loads, 2u);
}

TEST_F(StoreMmapTest, ViewsSurviveEvictionOfTheirFrame) {
  TempStoreDir dir("evict");
  auto store = dir.OpenOrDie();
  const CalibrationKey key = MakeKey(3);
  const NullDistribution dist = MakeDistribution(30);
  ASSERT_TRUE(store->Store(key, dist).ok());

  auto view = store->LoadView(key);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(store->stats().mmap_frames, 1u);

  // Evict everything: the file is unlinked while the view still maps it.
  auto evicted = store->EvictToBudget(0);
  ASSERT_TRUE(evicted.ok()) << evicted.status();
  EXPECT_FALSE(std::filesystem::exists(store->FilePathFor(key)));
  // The index dropped its mapping (gauge back to zero)...
  EXPECT_EQ(store->stats().mmap_frames, 0u);
  EXPECT_EQ(store->stats().mmap_bytes, 0u);
  // ...but the outstanding view still pins the pages, byte-identical.
  EXPECT_EQ(view->MaximaVector(), dist.MaximaVector());

  // A fresh load honestly misses now.
  EXPECT_TRUE(store->LoadView(key).status().IsNotFound());
}

TEST_F(StoreMmapTest, ViewsSurviveReStoreAndNewLoadsSeeTheNewGeneration) {
  TempStoreDir dir("restore");
  auto store = dir.OpenOrDie();
  const CalibrationKey key = MakeKey(4);
  const NullDistribution gen_a = MakeDistribution(40);
  const NullDistribution gen_b = MakeDistribution(41);
  ASSERT_TRUE(store->Store(key, gen_a).ok());

  auto view_a = store->LoadView(key);
  ASSERT_TRUE(view_a.ok()) << view_a.status();

  // Re-Store rewrites the frame via rename-over; the old mapping is
  // dropped from the index, but view_a's pages live on.
  ASSERT_TRUE(store->Store(key, gen_b).ok());
  EXPECT_EQ(view_a->MaximaVector(), gen_a.MaximaVector());

  auto view_b = store->LoadView(key);
  ASSERT_TRUE(view_b.ok()) << view_b.status();
  EXPECT_EQ(view_b->MaximaVector(), gen_b.MaximaVector());
  // Both generations remain simultaneously readable.
  EXPECT_EQ(view_a->MaximaVector(), gen_a.MaximaVector());
}

TEST_F(StoreMmapTest, ForeignRewriteIsDetectedAndRemapped) {
  TempStoreDir dir("foreign");
  auto local = dir.OpenOrDie();
  auto foreign = dir.OpenOrDie();  // a second process in spirit
  const CalibrationKey key = MakeKey(5);
  const NullDistribution gen_a = MakeDistribution(50, 512);
  const NullDistribution gen_b = MakeDistribution(51, 768);  // different size
  ASSERT_TRUE(local->Store(key, gen_a).ok());

  auto view_a = local->LoadView(key);
  ASSERT_TRUE(view_a.ok()) << view_a.status();
  EXPECT_EQ(local->stats().remap_races, 0u);

  // The foreign writer replaces the frame behind local's back: local's
  // index still vouches for the OLD signature, so the next hit must notice
  // the mismatch, count a remap race, re-validate, and serve the new bytes.
  ASSERT_TRUE(foreign->Store(key, gen_b).ok());
  auto view_b = local->LoadView(key);
  ASSERT_TRUE(view_b.ok()) << view_b.status();
  EXPECT_EQ(view_b->MaximaVector(), gen_b.MaximaVector());
  EXPECT_EQ(local->stats().remap_races, 1u);
  // The pinned old view is unaffected.
  EXPECT_EQ(view_a->MaximaVector(), gen_a.MaximaVector());
}

TEST_F(StoreMmapTest, MmapFailpointDegradesToIdenticalCopyPath) {
  TempStoreDir dir("failpoint");
  auto store = dir.OpenOrDie();
  const CalibrationKey key = MakeKey(8);
  const NullDistribution dist = MakeDistribution(80);
  ASSERT_TRUE(store->Store(key, dist).ok());

  ASSERT_TRUE(
      fp().Arm("store.mmap", "always:error(IOError,mmap broken)").ok());
  auto view = store->LoadView(key);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_FALSE(view->zero_copy());
  EXPECT_EQ(view->MaximaVector(), dist.MaximaVector());
  EXPECT_EQ(store->stats().mmap_loads, 0u);
  EXPECT_EQ(store->stats().load_hits, 1u);

  // Once the condition clears, the next hit maps as usual.
  fp().DisarmAll();
  auto mapped = store->LoadView(key);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE(mapped->zero_copy());
  EXPECT_EQ(mapped->MaximaVector(), dist.MaximaVector());
}

TEST_F(StoreMmapTest, TouchFailureDegradesToInMemoryRecencyAndLruSurvives) {
  TempStoreDir dir("touch");
  auto store = dir.OpenOrDie();
  const CalibrationKey key_old = MakeKey(90);
  const CalibrationKey key_new = MakeKey(91);
  ASSERT_TRUE(store->Store(key_old, MakeDistribution(90)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(store->Store(key_new, MakeDistribution(91)).ok());

  // A read-only filesystem: the LRU mtime touch cannot land. The hit still
  // succeeds, the condition is counted, and recency is tracked in memory.
  ASSERT_TRUE(
      fp().Arm("store.touch", "always:error(IOError,read-only fs)").ok());
  ASSERT_TRUE(store->Load(key_old).ok());
  EXPECT_EQ(store->stats().touch_failures, 1u);
  fp().DisarmAll();

  // LRU still works off the in-memory recency: key_old was just used, so
  // eviction to a one-frame budget must sweep key_new (older by
  // max(mtime, last_used)) and keep key_old — with mtime alone, key_old
  // (the older file) would have been the victim.
  const auto budget =
      std::filesystem::file_size(store->FilePathFor(key_old));
  auto evicted = store->EvictToBudget(budget);
  ASSERT_TRUE(evicted.ok()) << evicted.status();
  EXPECT_TRUE(std::filesystem::exists(store->FilePathFor(key_old)));
  EXPECT_FALSE(std::filesystem::exists(store->FilePathFor(key_new)));
}

// The mutation-vs-readers drill (TSan-relevant): reader threads hold and
// re-verify views while the main thread alternates generations, evicts to
// zero, and runs recovery sweeps over the same key. Every view a reader
// ever observes must be EXACTLY one generation's bytes — a mix, a tear, or
// a dangling page would either mismatch or crash — and views pinned before
// a mutation must stay byte-stable after it.
TEST_F(StoreMmapTest, ConcurrentViewersSurviveEvictionSweepsAndRewrites) {
  TempStoreDir dir("concurrent");
  auto store = dir.OpenOrDie();
  const CalibrationKey key = MakeKey(100);
  const NullDistribution gen_a = MakeDistribution(100);
  const NullDistribution gen_b = MakeDistribution(101);
  const std::vector<double> bytes_a = gen_a.MaximaVector();
  const std::vector<double> bytes_b = gen_b.MaximaVector();
  ASSERT_TRUE(store->Store(key, gen_a).ok());

  std::atomic<bool> stop{false};
  std::atomic<size_t> views_checked{0};
  std::atomic<size_t> generation_mixups{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      NullDistributionView pinned;  // longest-held view so far
      std::vector<double> pinned_bytes;
      while (!stop.load(std::memory_order_relaxed)) {
        auto view = store->LoadView(key);
        if (!view.ok()) continue;  // a miss between evict and re-store
        const std::vector<double> got = view->MaximaVector();
        if (got != bytes_a && got != bytes_b) {
          ++generation_mixups;
        }
        if (pinned_bytes.empty()) {
          pinned = *view;
          pinned_bytes = got;
        } else if (pinned.MaximaVector() != pinned_bytes) {
          // A held view changed under us: the mapping was torn down.
          ++generation_mixups;
        }
        ++views_checked;
      }
    });
  }

  for (int round = 0; round < 60; ++round) {
    const NullDistribution& gen = round % 2 == 0 ? gen_b : gen_a;
    ASSERT_TRUE(store->Store(key, gen).ok());
    if (round % 5 == 0) {
      auto evicted = store->EvictToBudget(0);
      ASSERT_TRUE(evicted.ok()) << evicted.status();
      ASSERT_TRUE(store->Store(key, gen).ok());
    }
    if (round % 7 == 0) store->RecoverySweep();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(views_checked.load(), 0u);
  EXPECT_EQ(generation_mixups.load(), 0u);
  // The store survives the drill in a consistent state.
  auto final_view = store->LoadView(key);
  ASSERT_TRUE(final_view.ok()) << final_view.status();
  const std::vector<double> final_bytes = final_view->MaximaVector();
  EXPECT_TRUE(final_bytes == bytes_a || final_bytes == bytes_b);
}

}  // namespace
}  // namespace sfa::core
