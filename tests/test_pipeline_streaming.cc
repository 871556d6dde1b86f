// Stress and determinism coverage of the pipeline's streaming path. The
// headline assertions mirror the batch determinism contract: for the same
// request set (seeds included), the streamed response set is byte-identical
// to batch Run(), under producer contention, tiny bounded queues, priority
// mixing, and persistent-store warm starts. Admission behavior is pinned
// where it is deterministic by design: with dispatch paused, a capacity-C
// queue admits exactly C requests no matter how many producers race, and a
// single resumed worker drains strictly in priority order. Labeled `stream`
// (with test_calibration_store.cc) and run under TSan in CI.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "core/audit.h"
#include "core/audit_pipeline.h"
#include "core/calibration_cache.h"
#include "core/calibration_store.h"
#include "core/grid_family.h"
#include "testing_util.h"

namespace sfa::core {
namespace {

using core::testing::ExpectIdenticalResult;
using core::testing::MakePlantedCity;

/// Fixture: two cities × two families, mixed seeds/directions — enough key
/// diversity that streams exercise both cache sharing and fresh simulation.
struct StreamFixture {
  data::OutcomeDataset city_a = MakePlantedCity(311, 2000, 0.40, 0.55, "sa");
  data::OutcomeDataset city_b = MakePlantedCity(322, 1500, 0.55, 0.55, "sb");
  std::unique_ptr<GridPartitionFamily> family_a;
  std::unique_ptr<GridPartitionFamily> family_b;

  StreamFixture() {
    auto fa = GridPartitionFamily::Create(city_a.locations(), 7, 7);
    auto fb = GridPartitionFamily::Create(city_b.locations(), 6, 9);
    SFA_CHECK_OK(fa.status());
    SFA_CHECK_OK(fb.status());
    family_a = std::move(fa).value();
    family_b = std::move(fb).value();
  }

  /// `count` requests cycling over (city, direction, seed-class): heavy key
  /// collision by design, but more than one unique calibration.
  std::vector<AuditRequest> MakeRequests(size_t count) const {
    std::vector<AuditRequest> requests;
    requests.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      AuditRequest r;
      r.id = "req-" + std::to_string(i);
      const bool use_a = (i % 3) != 2;
      r.dataset = use_a ? &city_a : &city_b;
      r.family = use_a ? family_a.get() : family_b.get();
      r.options.alpha = (i % 2 == 0) ? 0.05 : 0.01;
      r.options.direction = (i % 4 == 1) ? stats::ScanDirection::kLow
                                         : stats::ScanDirection::kTwoSided;
      r.options.monte_carlo.num_worlds = 49;
      r.options.monte_carlo.seed = 17 + (i % 2);
      requests.push_back(r);
    }
    return requests;
  }
};

std::vector<AuditResponse> RunBatchOrDie(
    AuditPipeline& pipeline, const std::vector<AuditRequest>& batch) {
  auto responses = pipeline.Run(batch);
  SFA_CHECK_OK(responses.status());
  for (const AuditResponse& r : *responses) SFA_CHECK_OK(r.status);
  return std::move(responses).value();
}

TEST(PipelineStreaming, StreamedResponsesAreByteIdenticalToBatchRun) {
  StreamFixture f;
  const auto requests = f.MakeRequests(12);

  AuditPipeline batch_pipeline;
  const auto batch = RunBatchOrDie(batch_pipeline, requests);

  AuditPipeline streaming;
  StreamOptions opts;
  opts.queue_capacity = 4;  // smaller than the request count: forces cycling
  opts.num_workers = 3;
  opts.block_when_full = true;
  ASSERT_TRUE(streaming.StartStream(opts).ok());
  std::vector<std::shared_ptr<AuditTicket>> tickets;
  for (size_t i = 0; i < requests.size(); ++i) {
    const RequestPriority priority =
        static_cast<RequestPriority>(i % kNumRequestPriorities);
    auto ticket = streaming.Submit(requests[i], priority);
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    tickets.push_back(*ticket);
  }
  ASSERT_TRUE(streaming.FinishStream().ok());

  for (size_t i = 0; i < requests.size(); ++i) {
    const AuditResponse& streamed = tickets[i]->Get();
    ASSERT_TRUE(streamed.status.ok()) << streamed.status;
    EXPECT_EQ(streamed.id, requests[i].id);
    EXPECT_EQ(streamed.calibration_key, batch[i].calibration_key);
    ExpectIdenticalResult(batch[i].result, streamed.result,
                          "streamed-vs-batch " + requests[i].id);
  }
  const StreamStats stats = streaming.stream_stats();
  EXPECT_EQ(stats.submitted, requests.size());
  EXPECT_EQ(stats.admitted, requests.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.completed, requests.size());
  EXPECT_EQ(stats.failed + stats.cancelled, 0u);
}

TEST(PipelineStreaming, ManyProducersAgainstASmallQueueNeverDeadlock) {
  StreamFixture f;
  constexpr size_t kProducers = 4;
  constexpr size_t kPerProducer = 12;
  const auto requests = f.MakeRequests(kProducers * kPerProducer);

  AuditPipeline batch_pipeline;
  const auto batch = RunBatchOrDie(batch_pipeline, requests);

  AuditPipeline streaming;
  StreamOptions opts;
  opts.queue_capacity = 3;  // deliberately tiny: producers must block
  opts.num_workers = 2;
  opts.block_when_full = true;
  ASSERT_TRUE(streaming.StartStream(opts).ok());

  std::atomic<size_t> callbacks{0};
  std::vector<std::shared_ptr<AuditTicket>> tickets(requests.size());
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t j = 0; j < kPerProducer; ++j) {
        const size_t i = p * kPerProducer + j;
        const RequestPriority priority =
            static_cast<RequestPriority>(i % kNumRequestPriorities);
        auto ticket = streaming.Submit(
            requests[i], priority,
            [&callbacks](const AuditResponse&) { ++callbacks; });
        SFA_CHECK_OK(ticket.status());  // block policy: never rejected
        tickets[i] = *ticket;
      }
    });
  }
  for (std::thread& t : producers) t.join();
  ASSERT_TRUE(streaming.FinishStream().ok());

  EXPECT_EQ(callbacks.load(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const AuditResponse& streamed = tickets[i]->Get();
    ASSERT_TRUE(streamed.status.ok()) << streamed.status;
    ExpectIdenticalResult(batch[i].result, streamed.result,
                          "contended " + requests[i].id);
    EXPECT_GE(streamed.queue_wait_ms, 0.0);
    EXPECT_GE(streamed.queue_depth, 1u);
    EXPECT_LE(streamed.queue_depth, opts.queue_capacity + kProducers);
  }
  const StreamStats stats = streaming.stream_stats();
  EXPECT_EQ(stats.completed, requests.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_LE(stats.max_queue_depth, opts.queue_capacity);
}

TEST(PipelineStreaming, BackpressureRejectionCountIsDeterministic) {
  StreamFixture f;
  constexpr size_t kCapacity = 6;
  constexpr size_t kProducers = 4;
  constexpr size_t kPerProducer = 5;  // 20 submissions against capacity 6
  const auto requests = f.MakeRequests(kProducers * kPerProducer);

  AuditPipeline streaming;
  StreamOptions opts;
  opts.queue_capacity = kCapacity;
  opts.num_workers = 2;
  opts.block_when_full = false;  // reject policy
  opts.start_paused = true;      // workers held: admissions are deterministic
  ASSERT_TRUE(streaming.StartStream(opts).ok());

  std::atomic<size_t> rejected{0};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t j = 0; j < kPerProducer; ++j) {
        auto ticket = streaming.Submit(requests[p * kPerProducer + j]);
        if (!ticket.ok()) {
          SFA_CHECK(ticket.status().IsResourceExhausted());
          ++rejected;
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();

  // With dispatch paused, EXACTLY capacity admissions succeed — independent
  // of producer interleaving.
  EXPECT_EQ(rejected.load(), requests.size() - kCapacity);
  StreamStats stats = streaming.stream_stats();
  EXPECT_EQ(stats.submitted, requests.size());
  EXPECT_EQ(stats.admitted, kCapacity);
  EXPECT_EQ(stats.rejected, requests.size() - kCapacity);
  EXPECT_EQ(stats.max_queue_depth, kCapacity);

  streaming.ResumeDispatch();
  ASSERT_TRUE(streaming.FinishStream().ok());
  stats = streaming.stream_stats();
  EXPECT_EQ(stats.completed, kCapacity);
  EXPECT_EQ(stats.failed + stats.cancelled, 0u);
}

TEST(PipelineStreaming, PriorityOrderingUnderContention) {
  StreamFixture f;
  const auto requests = f.MakeRequests(12);

  AuditPipeline streaming;
  StreamOptions opts;
  opts.queue_capacity = requests.size();
  opts.num_workers = 1;     // one worker: completion order == dispatch order
  opts.start_paused = true; // the whole mix is queued before dispatch starts
  ASSERT_TRUE(streaming.StartStream(opts).ok());

  // Submit in an adversarial interleaving: bulk first, interactive last.
  std::mutex order_mu;
  std::vector<std::pair<RequestPriority, std::string>> completion_order;
  const RequestPriority submit_pattern[3] = {RequestPriority::kBulk,
                                             RequestPriority::kNormal,
                                             RequestPriority::kInteractive};
  for (size_t i = 0; i < requests.size(); ++i) {
    const RequestPriority priority = submit_pattern[i % 3];
    auto ticket = streaming.Submit(
        requests[i], priority,
        [&order_mu, &completion_order](const AuditResponse& response) {
          std::unique_lock<std::mutex> lock(order_mu);
          completion_order.emplace_back(response.priority, response.id);
        });
    ASSERT_TRUE(ticket.ok()) << ticket.status();
  }
  streaming.ResumeDispatch();
  ASSERT_TRUE(streaming.FinishStream().ok());

  ASSERT_EQ(completion_order.size(), requests.size());
  // All interactive before all normal before all bulk; FIFO within a class.
  std::map<RequestPriority, std::vector<std::string>> by_class;
  for (size_t i = 1; i < completion_order.size(); ++i) {
    EXPECT_LE(static_cast<int>(completion_order[i - 1].first),
              static_cast<int>(completion_order[i].first))
        << "priority inversion at completion " << i;
  }
  for (const auto& [priority, id] : completion_order) {
    by_class[priority].push_back(id);
  }
  for (const auto& [priority, ids] : by_class) {
    for (size_t i = 1; i < ids.size(); ++i) {
      const int prev = std::stoi(ids[i - 1].substr(4));
      const int cur = std::stoi(ids[i].substr(4));
      EXPECT_LT(prev, cur) << "FIFO violated within "
                           << RequestPriorityToString(priority);
    }
  }
}

TEST(PipelineStreaming, StreamWarmStartedFromPersistedStoreMatchesBatch) {
  StreamFixture f;
  const auto requests = f.MakeRequests(8);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("sfa_stream_store_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  AuditPipeline batch_pipeline;
  const auto batch = RunBatchOrDie(batch_pipeline, requests);

  // Process 1 streams cold and persists.
  {
    AuditPipeline streaming;
    auto store = CalibrationStore::Open({.directory = dir.string()});
    ASSERT_TRUE(store.ok()) << store.status();
    streaming.cache().AttachStore(
        std::shared_ptr<CalibrationStore>(std::move(*store)));
    ASSERT_TRUE(streaming.StartStream({.queue_capacity = 8}).ok());
    std::vector<std::shared_ptr<AuditTicket>> tickets;
    for (const AuditRequest& r : requests) {
      auto ticket = streaming.Submit(r);
      ASSERT_TRUE(ticket.ok());
      tickets.push_back(*ticket);
    }
    ASSERT_TRUE(streaming.FinishStream().ok());  // flushes write-behind
    for (size_t i = 0; i < requests.size(); ++i) {
      ExpectIdenticalResult(batch[i].result, tickets[i]->Get().result,
                            "cold-stream " + requests[i].id);
    }
  }

  // Process 2 warm-starts from the directory: zero simulations, identical
  // bytes, every response a cache hit.
  {
    AuditPipeline restarted;
    auto store = CalibrationStore::Open({.directory = dir.string()});
    ASSERT_TRUE(store.ok());
    restarted.cache().AttachStore(
        std::shared_ptr<CalibrationStore>(std::move(*store)));
    ASSERT_TRUE(restarted.StartStream({.queue_capacity = 8}).ok());
    std::vector<std::shared_ptr<AuditTicket>> tickets;
    for (const AuditRequest& r : requests) {
      auto ticket = restarted.Submit(r);
      ASSERT_TRUE(ticket.ok());
      tickets.push_back(*ticket);
    }
    ASSERT_TRUE(restarted.FinishStream().ok());
    for (size_t i = 0; i < requests.size(); ++i) {
      const AuditResponse& response = tickets[i]->Get();
      ASSERT_TRUE(response.status.ok());
      EXPECT_TRUE(response.cache_hit);
      ExpectIdenticalResult(batch[i].result, response.result,
                            "persisted-warm-stream " + requests[i].id);
    }
    EXPECT_GT(restarted.cache().stats().store_hits, 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(PipelineStreaming, AbortFailsQueuedRequestsButTicketsAlwaysComplete) {
  StreamFixture f;
  const auto requests = f.MakeRequests(6);

  AuditPipeline streaming;
  StreamOptions opts;
  opts.queue_capacity = requests.size();
  opts.num_workers = 2;
  opts.start_paused = true;
  ASSERT_TRUE(streaming.StartStream(opts).ok());
  std::vector<std::shared_ptr<AuditTicket>> tickets;
  for (const AuditRequest& r : requests) {
    auto ticket = streaming.Submit(r);
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  streaming.AbortStream();  // never resumed: nothing was dispatched

  for (const auto& ticket : tickets) {
    EXPECT_TRUE(ticket->done());
    EXPECT_FALSE(ticket->Get().status.ok());
    EXPECT_TRUE(ticket->Get().status.IsFailedPrecondition());
  }
  const StreamStats stats = streaming.stream_stats();
  EXPECT_EQ(stats.cancelled, requests.size());
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_FALSE(streaming.streaming());
}

TEST(PipelineStreaming, AbortWhileProducerBlockedOnFullQueueIsSafe) {
  // Regression: a producer blocked inside Submit's blocking Push is woken by
  // teardown's queue close and must still find the session state alive to
  // record its rejection (the Stream is shared, not owned solely by the
  // pipeline). Run under TSan in CI.
  StreamFixture f;
  const auto requests = f.MakeRequests(3);

  AuditPipeline streaming;
  StreamOptions opts;
  opts.queue_capacity = 1;
  opts.num_workers = 1;
  opts.block_when_full = true;
  opts.start_paused = true;  // nothing drains: the queue stays full
  ASSERT_TRUE(streaming.StartStream(opts).ok());
  auto admitted = streaming.Submit(requests[0]);
  ASSERT_TRUE(admitted.ok());

  std::atomic<bool> blocked_done{false};
  std::thread producer([&] {
    // Blocks on the full queue until the abort closes it.
    auto late = streaming.Submit(requests[1]);
    EXPECT_FALSE(late.ok());
    EXPECT_TRUE(late.status().IsFailedPrecondition()) << late.status();
    blocked_done.store(true);
  });
  // Give the producer a moment to actually block (best-effort; the test is
  // correct either way, it just covers more when the sleep wins the race).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  streaming.AbortStream();
  producer.join();
  EXPECT_TRUE(blocked_done.load());
  EXPECT_TRUE((*admitted)->done());
  EXPECT_FALSE((*admitted)->Get().status.ok());

  // The snapshot is taken only after in-flight Submits drain, so the
  // header's invariants hold exactly: the blocked producer either recorded
  // a closed-queue rejection (it entered Push before the teardown cleared
  // the accepting gate) or failed fast without counting as submitted.
  const StreamStats stats = streaming.stream_stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.admitted + stats.rejected, stats.submitted);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_GE(stats.submitted, 1u);
  EXPECT_LE(stats.submitted, 2u);
}

TEST(PipelineStreaming, CancelRemovesQueuedRequestsDeterministically) {
  // With dispatch paused, every admission stays queued, so the Cancel
  // outcome is a deterministic function of the Submit/Cancel sequence:
  // cancel k of M queued tickets, resume, drain — exactly k cancelled and
  // M-k completed, and the cancelled tickets resolve with kCancelled
  // without consuming simulation work.
  StreamFixture f;
  const auto requests = f.MakeRequests(8);

  AuditPipeline pipeline;
  StreamOptions opts;
  opts.queue_capacity = requests.size();
  opts.num_workers = 2;
  opts.start_paused = true;
  ASSERT_TRUE(pipeline.StartStream(opts).ok());

  std::vector<std::shared_ptr<AuditTicket>> tickets;
  for (const AuditRequest& request : requests) {
    auto ticket = pipeline.Submit(request);
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }

  // Cancel three queued tickets (front, middle, back of the FIFO).
  const std::vector<size_t> cancelled_idx = {0, 3, 7};
  for (size_t i : cancelled_idx) {
    ASSERT_TRUE(pipeline.Cancel(tickets[i]).ok()) << i;
    ASSERT_TRUE(tickets[i]->done());
    const AuditResponse& response = tickets[i]->Get();
    EXPECT_TRUE(response.status.IsCancelled()) << response.status;
    EXPECT_EQ(response.id, requests[i].id);
  }
  // A second Cancel of the same ticket finds nothing to remove.
  EXPECT_TRUE(pipeline.Cancel(tickets[0]).IsNotFound());
  EXPECT_TRUE(pipeline.Cancel(nullptr).IsInvalidArgument());

  pipeline.ResumeDispatch();
  ASSERT_TRUE(pipeline.FinishStream().ok());

  const StreamStats stats = pipeline.stream_stats();
  EXPECT_EQ(stats.submitted, requests.size());
  EXPECT_EQ(stats.admitted, requests.size());
  EXPECT_EQ(stats.cancelled, cancelled_idx.size());
  EXPECT_EQ(stats.completed, requests.size() - cancelled_idx.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.completed + stats.failed + stats.cancelled, stats.admitted);
  // Survivors completed normally; a finished ticket can no longer be
  // cancelled.
  for (size_t i = 0; i < tickets.size(); ++i) {
    if (std::find(cancelled_idx.begin(), cancelled_idx.end(), i) !=
        cancelled_idx.end()) {
      continue;
    }
    EXPECT_TRUE(tickets[i]->Get().status.ok()) << i;
  }
  // JSON rendering of the final counters (the manifest/stats endpoint).
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"cancelled\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"completed\":5"), std::string::npos) << json;
}

TEST(PipelineStreaming, CancelFreesQueueCapacityForNewAdmissions) {
  // Reject-policy queue of capacity 2, dispatch paused: after two
  // admissions the third rejects; cancelling one frees the slot and the
  // retry admits. Deterministic because nothing drains while paused.
  StreamFixture f;
  const auto requests = f.MakeRequests(3);

  AuditPipeline pipeline;
  StreamOptions opts;
  opts.queue_capacity = 2;
  opts.num_workers = 1;
  opts.start_paused = true;
  opts.block_when_full = false;
  ASSERT_TRUE(pipeline.StartStream(opts).ok());

  auto first = pipeline.Submit(requests[0]);
  auto second = pipeline.Submit(requests[1]);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_TRUE(pipeline.Submit(requests[2]).status().IsResourceExhausted());

  ASSERT_TRUE(pipeline.Cancel(*first).ok());
  auto retry = pipeline.Submit(requests[2]);
  ASSERT_TRUE(retry.ok()) << retry.status();

  pipeline.ResumeDispatch();
  ASSERT_TRUE(pipeline.FinishStream().ok());
  EXPECT_TRUE((*second)->Get().status.ok());
  EXPECT_TRUE((*retry)->Get().status.ok());
  const StreamStats stats = pipeline.stream_stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST(PipelineStreaming, LifecycleMisuseIsRejected) {
  StreamFixture f;
  const auto requests = f.MakeRequests(1);
  AuditPipeline pipeline;

  // Submit/Finish without a session.
  EXPECT_TRUE(pipeline.Submit(requests[0]).status().IsFailedPrecondition());
  EXPECT_TRUE(pipeline.FinishStream().IsFailedPrecondition());

  ASSERT_TRUE(pipeline.StartStream({.queue_capacity = 2}).ok());
  // Double start and batch Run during a session.
  EXPECT_TRUE(pipeline.StartStream({}).IsFailedPrecondition());
  EXPECT_TRUE(pipeline.Run(requests).status().IsFailedPrecondition());
  // Null pointers fail per-request (the ticket completes with the error).
  AuditRequest null_request;
  null_request.id = "null";
  auto ticket = pipeline.Submit(null_request);
  ASSERT_TRUE(ticket.ok());
  EXPECT_TRUE((*ticket)->Get().status.IsInvalidArgument());
  ASSERT_TRUE(pipeline.FinishStream().ok());

  // The same pipeline can stream again, then serve a batch.
  ASSERT_TRUE(pipeline.StartStream({}).ok());
  ASSERT_TRUE(pipeline.FinishStream().ok());
  EXPECT_TRUE(pipeline.Run(requests).ok());
}

/// Eight equal-count stripes of the points, ranked along x or along y: the
/// two orientations share Name(), N and every n(R) and differ only in
/// membership, so only the probe counts of the fingerprint tell them apart.
class StripeFamily : public RegionFamily {
 public:
  static constexpr size_t kStripes = 8;

  StripeFamily(const std::vector<geo::Point>& points, bool along_y)
      : stripe_of_point_(points.size()) {
    std::vector<uint32_t> order(points.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<uint32_t>(i);
    }
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return along_y ? points[a].y < points[b].y : points[a].x < points[b].x;
    });
    for (size_t rank = 0; rank < order.size(); ++rank) {
      const size_t stripe = rank * kStripes / order.size();
      stripe_of_point_[order[rank]] = static_cast<uint32_t>(stripe);
      ++counts_[stripe];
    }
  }

  size_t num_regions() const override { return kStripes; }
  size_t num_points() const override { return stripe_of_point_.size(); }
  RegionDescriptor Describe(size_t r) const override {
    RegionDescriptor desc;
    desc.label = "stripe " + std::to_string(r);
    desc.group = static_cast<uint32_t>(r);
    return desc;
  }
  uint64_t PointCount(size_t r) const override { return counts_[r]; }
  void CountPositives(const Labels& labels,
                      std::vector<uint64_t>* out) const override {
    const std::vector<uint8_t>& bytes = labels.bytes();
    out->assign(kStripes, 0);
    for (size_t i = 0; i < bytes.size(); ++i) {
      (*out)[stripe_of_point_[i]] += bytes[i];
    }
  }
  std::string Name() const override { return "8 equal-count stripes"; }

 private:
  std::vector<uint32_t> stripe_of_point_;
  std::array<uint64_t, kStripes> counts_{};
};

// A calibration may only be shared between audits of the same family. Here
// one family is destroyed mid-session and a different one, with the same
// Name(), N and n(R), is built at the same address: its audit must be keyed
// and calibrated as its own, exactly as a fresh Auditor would.
TEST(PipelineStreaming, FamilyRebuiltAtTheSameAddressGetsItsOwnCalibration) {
  const data::OutcomeDataset city =
      MakePlantedCity(333, 1600, 0.40, 0.60, "same-address");
  AuditRequest request;
  request.dataset = &city;
  request.options.monte_carlo.num_worlds = 99;
  request.options.monte_carlo.seed = 5;

  alignas(StripeFamily) unsigned char buffer[sizeof(StripeFamily)];
  AuditPipeline pipeline;
  ASSERT_TRUE(pipeline.StartStream({.num_workers = 1}).ok());

  auto* by_x = new (buffer) StripeFamily(city.locations(), /*along_y=*/false);
  request.id = "by-x";
  request.family = by_x;
  auto first = pipeline.Submit(request);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE((*first)->Get().status.ok()) << (*first)->Get().status;
  by_x->~StripeFamily();

  auto* by_y = new (buffer) StripeFamily(city.locations(), /*along_y=*/true);
  request.id = "by-y";
  request.family = by_y;
  auto second = pipeline.Submit(request);
  ASSERT_TRUE(second.ok()) << second.status();
  const AuditResponse& response = (*second)->Get();
  ASSERT_TRUE(response.status.ok()) << response.status;

  auto statistic = MakeScanStatistic(request.options, city);
  ASSERT_TRUE(statistic.ok()) << statistic.status();
  EXPECT_EQ(response.calibration_key,
            MakeCalibrationKey(*by_y, **statistic, request.options.monte_carlo)
                .debug);
  auto fresh = Auditor(request.options).Audit(city, *by_y);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_TRUE(ResultsBitIdentical(response.result, *fresh));

  ASSERT_TRUE(pipeline.FinishStream().ok());
  by_y->~StripeFamily();
}

}  // namespace
}  // namespace sfa::core
