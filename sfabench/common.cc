#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.h"
#include "common/macros.h"
#include "common/random.h"
#include "core/grid_family.h"
#include "core/knn_circle_family.h"
#include "core/square_family.h"
#include "stats/kmeans.h"

namespace sfabench {

using namespace sfa;
using namespace sfa::core;

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void ReportClosedLoop(const std::vector<double>& op_ms,
                      const std::vector<double>& op_cpu_ms,
                      size_t audits_per_op, const std::string& prefix,
                      Report* report) {
  const size_t n = op_ms.size();
  double total_ms = 0.0;
  for (double ms : op_ms) total_ms += ms;
  report->Set(prefix + "_audits_per_s",
              total_ms > 0 ? n * audits_per_op / (total_ms / 1e3) : 0.0, "1/s",
              n);
  report->Set(prefix + "_round_ms_p50", Median(op_ms), "ms", n);
  report->Set(prefix + "_round_ms_p90", Quantile(op_ms, 0.9), "ms", n);
  report->Set("cpu_ms_per_audit", Median(op_cpu_ms) / audits_per_op, "ms",
              op_cpu_ms.size());
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------- report --

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {
      "setup_s", "peak_rss_mb", "cpu_ms_per_audit"};
  return names;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const char* f : {"grid", "squares", "knn", "squares_k3"}) {
      n.push_back(std::string("count.ns_per_world.") + f);
    }
    for (const char* f : {"grid_perm", "squares", "knn", "squares_k3"}) {
      n.push_back(std::string("count.share.") + f);
    }
    for (const char* m :
         {"mc.setup_ms.", "mc.worlds_per_s.", "mc.sample_llr_ns_per_world."}) {
      for (const char* f : {"grid", "grid_perm", "squares", "knn",
                            "squares_k3"}) {
        n.push_back(std::string(m) + f);
      }
    }
    for (const char* m : {"key.fingerprint_us.", "scan.observed_us.",
                          "assemble.us.", "evidence.us."}) {
      for (const char* f : {"grid", "squares", "knn"}) {
        n.push_back(std::string(m) + f);
      }
    }
    for (const char* m :
         {"key.build_us", "view.build_us", "cache.lookup_us", "cache.hit_ratio",
          "admit.submit_us_p50", "admit.submit_us_p99", "queue.wait_ms_p50",
          "queue.wait_ms_p99", "assemble.ms_p50", "assemble.ms_p99",
          "stream.max_queue_depth", "dispatch.unattributed_us",
          "op.unattributed_ms", "trace.overhead_ms_p50", "store.open_ms",
          "store.loadview_us_p50", "store.loadview_us_p99",
          "store.load_us_p50", "store.store_us_p50", "store.flush_ms",
          "store.hit_ratio", "store.mmap_ratio", "store.index_hit_ratio",
          "store.evicted_files"}) {
      n.push_back(m);
    }
    for (const char* layer :
         {"spatial", "mc_engine", "calibration_cache", "measure",
          "calibration_store", "audit", "unattributed"}) {
      n.push_back(std::string("op.share.") + layer);
    }
    return n;
  }();
  return names;
}

void Report::Set(const std::string& name, double value, const std::string& unit,
                 size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

double Report::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

bool Report::Print(bool trace, bool correct, uint64_t attempted,
                   uint64_t failed) const {
  for (const std::string& note : notes_) std::printf("%s\n", note.c_str());
  for (const auto& [name, m] : metrics_) {
    std::printf("metric %-32s %.6g %s (n=%zu)\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  bool complete = true;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  const auto& names = trace ? PerLayerMetricNames() : EndToEndMetricNames();
  for (size_t i = 0; i < names.size(); ++i) {
    auto it = metrics_.find(names[i]);
    if (it == metrics_.end() || !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "error: metric %s was not measured\n",
                   names[i].c_str());
      complete = false;
      continue;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", it->second.value);
    if (json.back() != '{') json += ", ";
    json += "\"" + names[i] + "\": {\"value\": " + buf + ", \"unit\": \"" +
            it->second.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return complete;
}

// ----------------------------------------------------------------- trace --

namespace {
thread_local std::vector<int64_t> open_spans;
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int64_t Tracer::Open(const char* layer, std::string name, uint64_t op) {
  Span span;
  span.layer = layer;
  span.name = std::move(name);
  span.op = op;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.start_us = UsBetween(origin_, Clock::now());
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(span));
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::Close(int64_t id) {
  const double end = UsBetween(origin_, Clock::now());
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_us = end;
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : Snapshot()) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "\"start_us\": %.3f, \"end_us\": %.3f, \"parent\": %lld, "
                  "\"op\": %llu}\n",
                  s.start_us, s.end_us, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.op));
    out << "{\"layer\": \"" << s.layer << "\", \"name\": \"" << s.name
        << "\", " << buf;
  }
  return static_cast<bool>(out);
}

std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.end_us - s.start_us);
  }
  return out;
}

// ---------------------------------------------------------------- inputs --

City MakeCity(uint64_t seed, size_t n) {
  // Base rates outside a planted zone, shifted inside it: the binary audit
  // finds an unfair zone, the K-class audit a shifted class mix.
  Rng rng(seed);
  City city{data::OutcomeDataset("city-" + std::to_string(seed)),
            data::OutcomeDataset("city-" + std::to_string(seed) + "-k3")};
  const geo::Rect zone(6.0, 6.0, 9.0, 9.0);
  const std::vector<double> base = {0.5, 0.3, 0.2};
  const std::vector<double> shifted = {0.25, 0.3, 0.45};
  for (size_t i = 0; i < n; ++i) {
    const geo::Point loc(rng.Uniform(0, 10), rng.Uniform(0, 10));
    const bool in_zone = zone.Contains(loc);
    city.binary.Add(loc, rng.Bernoulli(in_zone ? 0.40 : 0.55) ? 1 : 0,
                    rng.Bernoulli(0.5) ? 1 : 0);
    city.classes.Add(
        loc, static_cast<uint8_t>(rng.Categorical(in_zone ? shifted : base)));
  }
  return city;
}

std::unique_ptr<RegionFamily> MakeGrid(const std::vector<geo::Point>& points,
                                       uint32_t gx, uint32_t gy) {
  auto family = GridPartitionFamily::Create(points, gx, gy);
  SFA_CHECK_OK(family.status());
  return std::move(family).value();
}

std::vector<geo::Point> KMeansCenters(const std::vector<geo::Point>& points,
                                      uint32_t k, uint64_t seed) {
  stats::KMeansOptions options;
  options.k = k;
  options.seed = seed;
  auto result = stats::KMeans(points, options);
  SFA_CHECK_OK(result.status());
  return result->centers;
}

std::unique_ptr<RegionFamily> MakeSquares(
    const std::vector<geo::Point>& points,
    const std::vector<geo::Point>& centers, uint32_t num_sides) {
  SquareScanOptions options;
  options.centers = centers;
  options.side_lengths =
      SquareScanOptions::DefaultSideLengths(0.1, 2.0, num_sides);
  auto family = SquareScanFamily::Create(points, options);
  SFA_CHECK_OK(family.status());
  return std::move(family).value();
}

std::unique_ptr<RegionFamily> MakeKnn(const std::vector<geo::Point>& points,
                                      const std::vector<geo::Point>& centers) {
  KnnCircleOptions options;
  options.centers = centers;
  auto family = KnnCircleFamily::Create(points, options);
  SFA_CHECK_OK(family.status());
  return std::move(family).value();
}

AuditRequest MakeRequest(std::string id, const data::OutcomeDataset* dataset,
                         const RegionFamily* family, double alpha,
                         uint64_t seed, StatisticKind statistic,
                         NullModel null_model, FairnessMeasure measure) {
  AuditRequest req;
  req.id = std::move(id);
  req.dataset = dataset;
  req.family = family;
  req.dataset_is_view = measure == FairnessMeasure::kStatisticalParity;
  req.options.alpha = alpha;
  req.options.measure = measure;
  req.options.statistic = statistic;
  if (statistic == StatisticKind::kMultinomial) {
    req.options.num_classes = kNumClasses;
  }
  req.options.monte_carlo.num_worlds = kNumWorlds;
  req.options.monte_carlo.null_model = null_model;
  req.options.monte_carlo.seed = seed;
  return req;
}

uint64_t FrameBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".nulldist") {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

std::string FamilyShape(const RegionFamily& family) {
  if (dynamic_cast<const GridPartitionFamily*>(&family)) return "grid";
  if (dynamic_cast<const SquareScanFamily*>(&family)) return "squares";
  if (dynamic_cast<const KnnCircleFamily*>(&family)) return "knn";
  return "other";
}

}  // namespace sfabench
