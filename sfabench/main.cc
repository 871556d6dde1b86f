// Entry point of the sfa end-to-end benchmark:
//
//   sfabench --workload <cold_calibrate|warm_serve|restart_store>
//            --seed <n> --seconds <s> --trace <0|1>
//            --work-dir <dir> [--trace-out <file>]
//
// Prints an environment stamp, one line per measured metric (name, value,
// unit, sample count) and, as the last line, the JSON result. Exits 1 when
// an output check failed, 2 on bad arguments or a refused environment.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench.h"
#include "common/thread_pool.h"
#include "spatial/simd_popcount.h"

namespace {

using namespace sfabench;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_path = value;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0;
}

/// Knobs that would silently change what is measured: the popcount kernel
/// override, the store's mmap escape hatch and armed failpoints.
bool RefuseEnvironmentKnobs() {
  bool refused = false;
  for (const char* knob :
       {"SFA_SIMD_POPCOUNT", "SFA_STORE_MMAP", "SFA_FAILPOINTS"}) {
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr, "error: %s is set; unset it to benchmark\n", knob);
      refused = true;
    }
  }
  return refused;
}

/// Aggregate CPU time counters from /proc/stat (user .. steal, in ticks).
std::vector<uint64_t> CpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  std::vector<uint64_t> ticks(8, 0);
  for (uint64_t& t : ticks) stat >> t;
  return ticks;
}

/// Share of CPU time the hypervisor stole since `start`: runs on a shared
/// virtualized host slow down while it is high, so it is stamped with the
/// results.
double StealPercent(const std::vector<uint64_t>& start) {
  const std::vector<uint64_t> end = CpuTicks();
  uint64_t total = 0;
  for (size_t i = 0; i < end.size(); ++i) total += end[i] - start[i];
  return total == 0 ? 0.0 : 100.0 * (end[7] - start[7]) / total;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sfabench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir> [--trace-out <file>]\n");
    return 2;
  }
  if (RefuseEnvironmentKnobs()) return 2;

  std::printf(
      "env workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
      "pool_threads=%zu popcount_kernel=%s build_type=%s compiler=\"%s\"\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      sfa::DefaultThreadPool().num_threads(),
      sfa::spatial::PopcountKernelName(sfa::spatial::ActivePopcountKernel()),
      SFABENCH_BUILD_TYPE, SFABENCH_COMPILER);

  // The per-process scratch directory: store directories live here, and it
  // is removed when the run ends.
  args.work_dir += "/run-" + std::to_string(::getpid());
  std::filesystem::create_directories(args.work_dir);

  const std::vector<uint64_t> ticks_at_start = CpuTicks();
  Tracer tracer(args.trace);
  Report report;
  Outcome outcome;
  if (args.workload == "cold_calibrate") {
    outcome = RunColdCalibrate(args, &tracer, &report);
  } else if (args.workload == "warm_serve") {
    outcome = RunWarmServe(args, &tracer, &report);
  } else if (args.workload == "restart_store") {
    outcome = RunRestartStore(args, &tracer, &report);
  } else {
    std::fprintf(stderr, "error: unknown workload %s\n", args.workload.c_str());
    std::filesystem::remove_all(args.work_dir);
    return 2;
  }
  std::filesystem::remove_all(args.work_dir);

  report.Set("peak_rss_mb", PeakRssMb(), "MB", 1);
  report.Set("host_steal_pct", StealPercent(ticks_at_start), "%", 1);
  report.Set("fail_ratio",
             outcome.attempted == 0
                 ? 1.0
                 : static_cast<double>(outcome.failed) /
                       static_cast<double>(outcome.attempted),
             "ratio", outcome.attempted);
  if (args.trace && !args.trace_path.empty()) {
    if (tracer.WriteJsonLines(args.trace_path)) {
      report.Note("trace " + std::to_string(tracer.Snapshot().size()) +
                  " spans written to " + args.trace_path);
    } else {
      std::fprintf(stderr, "warning: could not write %s\n",
                   args.trace_path.c_str());
    }
  }
  const bool complete = report.Print(args.trace, outcome.correct,
                                     outcome.attempted, outcome.failed);
  if (!outcome.correct) {
    std::fprintf(stderr, "error: %llu of %llu audits failed their checks\n",
                 static_cast<unsigned long long>(outcome.failed),
                 static_cast<unsigned long long>(outcome.attempted));
  }
  return outcome.correct && complete && outcome.attempted > 0 ? 0 : 1;
}
