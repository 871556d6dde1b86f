// kill -9 chaos drills for the multi-process calibration fabric: real forked
// worker processes (fork + exec of this binary, so the drills are
// TSan-clean) are SIGKILLed at failpoint-chosen moments — mid frame write,
// between temp write and rename, while holding a lease — and the suite
// asserts the fabric's recovery contract:
//
//   * no torn frame is ever served (Load after the crash is a clean miss),
//   * the recovery sweep on the next Open reaps every leaked temp, lease,
//     and tombstone the victim left behind,
//   * a post-crash recompute is byte-identical to an undisturbed reference,
//   * two processes racing one expired lease elect exactly one winner, and
//     the loser serves the winner's persisted frame instead of simulating.
//
// This file has its own main(): re-invoked as `--crash-child=compute` it
// becomes a worker process instead of a test runner (exec gives the child a
// clean single-threaded address space, which is what makes the drills safe
// under ThreadSanitizer). The sharded-driver smoke (`--sim=<path>`, wired by
// CMake when examples are built) drives the full example_audit_server_sim
// fabric: 3 shards over one store, with and without a chaos kill.
// Labeled `fault` and run in the plain and TSan CI jobs.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "core/bernoulli_statistic.h"
#include "core/calibration_cache.h"
#include "core/calibration_store.h"
#include "core/grid_family.h"
#include "core/significance.h"
#include "testing_util.h"

namespace sfa::core {
namespace {

using core::testing::MakePlantedCity;

std::string g_sim_path;  // --sim=<example_audit_server_sim>, may be empty

// ------------------------------------------------------------- the fixture --
// Parent and exec'd children rebuild this identically from constants; the
// calibration key (content-hashed) is therefore the same in every process.

struct Fixture {
  data::OutcomeDataset city = MakePlantedCity(71, 2500, 0.40);
  std::unique_ptr<GridPartitionFamily> family;
  MonteCarloOptions mc;
  CalibrationKey key;

  Fixture() {
    auto f = GridPartitionFamily::Create(city.locations(), 8, 8);
    SFA_CHECK_OK(f.status());
    family = std::move(f).value();
    mc.num_worlds = 149;
    mc.seed = 13;
    key = MakeCalibrationKey(*family, Statistic(), mc);
  }

  BernoulliScanStatistic Statistic() const {
    return BernoulliScanStatistic(stats::ScanDirection::kTwoSided, city.size(),
                                  city.PositiveCount());
  }

  Result<NullDistribution> Simulate(const ComputeContext& context) const {
    MonteCarloOptions options = mc;
    options.heartbeat = context.heartbeat;  // execution-only: key-invisible
    return SimulateNull(Statistic(), *family, options);
  }
};

CalibrationStore::Options FabricOptions(const std::string& dir) {
  CalibrationStore::Options options;
  options.directory = dir;
  options.lease_ttl_ms = 2'000.0;
  options.lease_heartbeat_interval_ms = 20.0;
  return options;
}

std::vector<std::string> MaximaLines(const NullDistribution& dist) {
  std::vector<std::string> lines;
  lines.reserve(dist.sorted_max().size());
  for (const double m : dist.sorted_max()) {
    lines.push_back(StrFormat("%.17g", m));
  }
  return lines;
}

// ------------------------------------------------------------ child worker --

/// The worker process body: open the shared store with leases enabled, serve
/// the fixture key through the calibration cache (heartbeating through the
/// lease at every world batch), and record the outcome. A parent-armed
/// failpoint spec stalls it at the chosen crash site; the parent kills it
/// there.
int RunComputeChild(const std::string& store_dir, const std::string& out_path,
                    const std::string& failpoints) {
  if (!failpoints.empty()) {
    SFA_CHECK_OK(Failpoints::Instance().ArmFromSpec(failpoints));
  }
  const Fixture fixture;
  auto store = CalibrationStore::Open(FabricOptions(store_dir));
  SFA_CHECK_OK(store.status());
  CalibrationCache cache;
  cache.AttachStore(std::shared_ptr<CalibrationStore>(std::move(*store)));

  CalibrationCache::Source source = CalibrationCache::Source::kComputed;
  auto dist = cache.GetOrCompute(
      fixture.key,
      [&fixture](const ComputeContext& context) {
        return fixture.Simulate(context);
      },
      &source);
  if (!dist.ok()) {
    std::fprintf(stderr, "child compute failed: %s\n",
                 dist.status().ToString().c_str());
    return 1;
  }

  std::FILE* out = std::fopen(out_path.c_str(), "wb");
  SFA_CHECK_MSG(out != nullptr, "child cannot open out file");
  const char* source_name = source == CalibrationCache::Source::kComputed
                                ? "computed"
                                : source == CalibrationCache::Source::kStore
                                      ? "store"
                                      : "memory";
  std::fprintf(out, "%s\n", source_name);
  for (const std::string& line : MaximaLines(**dist)) {
    std::fprintf(out, "%s\n", line.c_str());
  }
  std::fclose(out);
  return 0;
}

// -------------------------------------------------------- process plumbing --

std::string SelfExe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  SFA_CHECK_MSG(n > 0, "cannot resolve /proc/self/exe");
  buf[n] = '\0';
  return buf;
}

pid_t SpawnComputeChild(const std::string& store_dir,
                        const std::string& out_path,
                        const std::string& failpoints) {
  const std::string exe = SelfExe();
  const std::string store_arg = "--store=" + store_dir;
  const std::string out_arg = "--out=" + out_path;
  const std::string fp_arg = "--failpoints=" + failpoints;
  const pid_t pid = ::fork();
  SFA_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    // exec immediately: between fork and exec only async-signal-safe calls.
    const char* argv[] = {exe.c_str(),       "--crash-child=compute",
                          store_arg.c_str(), out_arg.c_str(),
                          fp_arg.c_str(),    nullptr};
    ::execv(exe.c_str(), const_cast<char**>(argv));
    ::_exit(127);
  }
  return pid;
}

int WaitChild(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

/// Polls `dir` (recursively) until a filename containing `token` appears.
bool WaitForFileContaining(const std::filesystem::path& dir,
                           const std::string& token, double timeout_s = 20.0) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < until) {
    std::error_code ec;
    for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (it->path().filename().string().find(token) != std::string::npos) {
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

/// Polls `dir` (recursively) until a `.lease` file whose identity line has
/// landed appears. Matching on the filename alone would race the holder's
/// identity write: a kill between the O_EXCL create and the write() leaves
/// an unparseable lease that is (by design) live until the TTL expires,
/// which is not the scenario this suite drills. The identity is one write()
/// syscall, so a non-empty lease is a fully-written one.
bool WaitForHeldLease(const std::filesystem::path& dir,
                      double timeout_s = 20.0) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < until) {
    std::error_code ec;
    for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (it->path().extension() != ".lease") continue;
      std::error_code size_ec;
      const auto size = std::filesystem::file_size(it->path(), size_ec);
      if (!size_ec && size > 0) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

std::vector<std::string> DebrisIn(const std::filesystem::path& dir) {
  std::vector<std::string> debris;
  std::error_code ec;
  for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.find(".tmp.") != std::string::npos ||
        name.find(".reap.") != std::string::npos ||
        it->path().extension() == ".lease") {
      debris.push_back(it->path().string());
    }
  }
  return debris;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

struct TempFabricDir {
  std::filesystem::path path;

  explicit TempFabricDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("sfa_crash_fabric_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempFabricDir() { std::filesystem::remove_all(path); }

  std::string store() const { return (path / "store").string(); }
  std::string out(int i) const {
    return (path / StrFormat("out-%d.txt", i)).string();
  }
};

/// The undisturbed reference: what the calibration is when nothing crashes.
std::vector<std::string> ReferenceMaxima(const Fixture& fixture) {
  auto dist = fixture.Simulate(ComputeContext{});
  SFA_CHECK_OK(dist.status());
  return MaximaLines(*dist);
}

// ------------------------------------------------------------------ drills --

/// Kill -9 between temp write and rename (the `store.rename` failpoint
/// stalls the worker with the fully-written temp on disk and the lease
/// held). The canonical torn-publish crash.
TEST(CrashFabric, KillBetweenTempWriteAndRenameLeaksNothingDurable) {
  const Fixture fixture;
  TempFabricDir dir("rename");

  const pid_t pid = SpawnComputeChild(dir.store(), dir.out(0),
                                      "store.rename=once:delay(30000)");
  // The failpoint fires after the temp is written and flushed, so once a
  // temp is visible the worker is provably inside the stall window.
  ASSERT_TRUE(WaitForFileContaining(dir.path, ".tmp."))
      << "worker never reached the rename failpoint";
  ::kill(pid, SIGKILL);
  EXPECT_EQ(WaitChild(pid), 128 + SIGKILL);

  // The victim's wreckage: a temp and a lease, no published frame.
  EXPECT_FALSE(DebrisIn(dir.path).empty());

  // Recovery: reopening the store sweeps it all (dead writer pid and dead
  // lease holder reap immediately, no TTL wait), and the frame is a clean
  // miss — a torn calibration is never served.
  auto reopened = CalibrationStore::Open(FabricOptions(dir.store()));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const CalibrationStore::Stats stats = (*reopened)->stats();
  EXPECT_GE(stats.temps_reaped, 1u);
  EXPECT_GE(stats.leases_reclaimed, 1u);
  EXPECT_EQ(DebrisIn(dir.path), std::vector<std::string>{});
  EXPECT_FALSE((*reopened)->Load(fixture.key).ok());
  reopened->reset();  // release the directory before the recompute worker

  // Recompute from scratch: byte-identical to the undisturbed reference.
  const pid_t retry = SpawnComputeChild(dir.store(), dir.out(1), "");
  EXPECT_EQ(WaitChild(retry), 0);
  const std::vector<std::string> lines = ReadLines(dir.out(1));
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0], "computed");
  EXPECT_EQ(std::vector<std::string>(lines.begin() + 1, lines.end()),
            ReferenceMaxima(fixture));
}

/// Kill -9 while the lease is held and the frame write has not begun (the
/// `store.write` failpoint stalls before the temp is created — the same
/// window as dying anywhere mid-simulation).
TEST(CrashFabric, KillWithLeaseHeldMidWriteIsSweptAndRecomputed) {
  const Fixture fixture;
  TempFabricDir dir("write");

  const pid_t pid = SpawnComputeChild(dir.store(), dir.out(0),
                                      "store.write=once:delay(30000)");
  ASSERT_TRUE(WaitForHeldLease(dir.path))
      << "worker never acquired its lease";
  ::kill(pid, SIGKILL);
  EXPECT_EQ(WaitChild(pid), 128 + SIGKILL);
  EXPECT_FALSE(DebrisIn(dir.path).empty());  // at least the leaked lease

  auto reopened = CalibrationStore::Open(FabricOptions(dir.store()));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GE((*reopened)->stats().leases_reclaimed, 1u);
  EXPECT_EQ(DebrisIn(dir.path), std::vector<std::string>{});
  EXPECT_FALSE((*reopened)->Load(fixture.key).ok());
  reopened->reset();

  const pid_t retry = SpawnComputeChild(dir.store(), dir.out(1), "");
  EXPECT_EQ(WaitChild(retry), 0);
  const std::vector<std::string> lines = ReadLines(dir.out(1));
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0], "computed");
  EXPECT_EQ(std::vector<std::string>(lines.begin() + 1, lines.end()),
            ReferenceMaxima(fixture));
}

/// Two real processes race one EXPIRED lease (its holder long dead): exactly
/// one wins the takeover and simulates; the other must serve the winner's
/// persisted frame, byte-identical, without ever computing.
TEST(CrashFabric, TwoProcessesRacingAnExpiredLeaseElectOneComputer) {
  const Fixture fixture;
  TempFabricDir dir("race");

  // Plant the expired lease exactly where the store will look for this key.
  {
    auto store = CalibrationStore::Open(FabricOptions(dir.store()));
    ASSERT_TRUE(store.ok());
    std::filesystem::create_directories((*store)->LeaseDir());
    const std::string lease_path = (*store)->LeasePathFor(fixture.key);
    const pid_t dead = ::fork();
    SFA_CHECK_MSG(dead >= 0, "fork failed");
    if (dead == 0) ::_exit(0);
    int status = 0;
    ::waitpid(dead, &status, 0);
    std::FILE* f = std::fopen(lease_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "pid=%d nonce=%016llx start_unix_ms=%lld\n",
                 static_cast<int>(dead), 0xdeadULL, 0LL);
    std::fclose(f);
  }

  const pid_t a = SpawnComputeChild(dir.store(), dir.out(0), "");
  const pid_t b = SpawnComputeChild(dir.store(), dir.out(1), "");
  EXPECT_EQ(WaitChild(a), 0);
  EXPECT_EQ(WaitChild(b), 0);

  const std::vector<std::string> lines_a = ReadLines(dir.out(0));
  const std::vector<std::string> lines_b = ReadLines(dir.out(1));
  ASSERT_FALSE(lines_a.empty());
  ASSERT_FALSE(lines_b.empty());
  const int computers =
      (lines_a[0] == "computed" ? 1 : 0) + (lines_b[0] == "computed" ? 1 : 0);
  EXPECT_EQ(computers, 1) << "a=" << lines_a[0] << " b=" << lines_b[0];
  EXPECT_EQ(lines_a[0] == "computed" ? lines_b[0] : lines_a[0], "store");

  // Byte-identical either way, and equal to the undisturbed reference.
  const auto reference = ReferenceMaxima(fixture);
  EXPECT_EQ(std::vector<std::string>(lines_a.begin() + 1, lines_a.end()),
            reference);
  EXPECT_EQ(std::vector<std::string>(lines_b.begin() + 1, lines_b.end()),
            reference);

  // Clean exit releases every lease: no debris without any recovery sweep.
  EXPECT_EQ(DebrisIn(dir.path), std::vector<std::string>{});
}

// ---------------------------------------------- sharded-driver smoke tests --

int RunSim(const std::string& args) {
  // die_after_fork=0 lets the TSan-built sim fork its shard workers; the
  // setting is inert everywhere else.
  const std::string cmd = "env SFA_QUICK=1 TSAN_OPTIONS=die_after_fork=0 '" +
                          g_sim_path + "' " + args + " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : 128;
}

/// A 3-shard fabric run must replay byte-identically in one process (the
/// sim's own exit code asserts record-vs-replay equality, zero leftover
/// files, and a fully warm replay).
TEST(CrashFabric, ThreeShardFabricRunReplaysIdenticallySingleProcess) {
  if (g_sim_path.empty()) {
    GTEST_SKIP() << "example_audit_server_sim not built (--sim not passed)";
  }
  EXPECT_EQ(RunSim("--shards=3"), 0);
}

/// Same, with shard 1 SIGKILLed mid-flight: surviving shards finish, the
/// parent's recovery sweep leaves nothing, and the replay recomputes the
/// victim's lost calibrations byte-identically.
TEST(CrashFabric, ThreeShardFabricSurvivesAChaosKill) {
  if (g_sim_path.empty()) {
    GTEST_SKIP() << "example_audit_server_sim not built (--sim not passed)";
  }
  EXPECT_EQ(RunSim("--shards=3 --chaos-kill=1"), 0);
}

}  // namespace
}  // namespace sfa::core

int main(int argc, char** argv) {
  // Child mode: this same binary re-exec'd as a fabric worker process.
  std::string store_dir, out_path, failpoints;
  bool is_child = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--crash-child=compute") is_child = true;
    if (arg.rfind("--store=", 0) == 0) store_dir = arg.substr(8);
    if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
    if (arg.rfind("--failpoints=", 0) == 0) failpoints = arg.substr(13);
    if (arg.rfind("--sim=", 0) == 0) sfa::core::g_sim_path = arg.substr(6);
  }
  if (is_child) {
    return sfa::core::RunComputeChild(store_dir, out_path, failpoints);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
