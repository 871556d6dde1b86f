// Units for the deterministic fault-injection registry: spec parsing,
// trigger semantics (one-shot / times / every-Nth / seeded probability),
// action payloads, the zero-cost disarmed gate, and payload mutation.
// Labeled `fault` (with the store and deadline drills) — the suite the CI
// tier-1 matrix and the TSan job both run.
#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "testing_util.h"

namespace sfa {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Instance().DisarmAll(); }
  void TearDown() override { Failpoints::Instance().DisarmAll(); }

  Failpoints& fp() { return Failpoints::Instance(); }
};

TEST_F(FailpointTest, DisarmedRegistryFiresNothing) {
  EXPECT_FALSE(Failpoints::AnyArmed());
  EXPECT_FALSE(fp().Evaluate("store.write").fired());
  EXPECT_EQ(fp().HitCount("store.write"), 0u);  // never armed: not even counted
}

TEST_F(FailpointTest, ArmCountsAndDisarmRestoresZeroCostGate) {
  ASSERT_TRUE(fp().Arm("a.site", "error(IOError)").ok());
  ASSERT_TRUE(fp().Arm("b.site", "delay(1)").ok());
  EXPECT_TRUE(Failpoints::AnyArmed());
  EXPECT_EQ(fp().armed(), (std::vector<std::string>{"a.site", "b.site"}));
  fp().Disarm("a.site");
  EXPECT_TRUE(Failpoints::AnyArmed());
  fp().DisarmAll();
  EXPECT_FALSE(Failpoints::AnyArmed());
  EXPECT_TRUE(fp().armed().empty());
}

TEST_F(FailpointTest, ErrorActionCarriesCodeAndMessage) {
  ASSERT_TRUE(fp().Arm("s", "error(ResourceExhausted,disk full)").ok());
  const FailpointAction action = fp().Evaluate("s");
  ASSERT_EQ(action.kind, FailpointActionKind::kError);
  EXPECT_TRUE(action.status.IsResourceExhausted());
  EXPECT_EQ(action.status.message(), "disk full");
}

TEST_F(FailpointTest, ErrorActionDefaultMessageNamesTheSite) {
  ASSERT_TRUE(fp().Arm("store.write", "error(IOError)").ok());
  const FailpointAction action = fp().Evaluate("store.write");
  ASSERT_EQ(action.kind, FailpointActionKind::kError);
  EXPECT_TRUE(action.status.IsIOError());
  EXPECT_NE(action.status.message().find("store.write"), std::string::npos);
}

TEST_F(FailpointTest, ErrorActionParsesEveryStatusCodeName) {
  for (const char* code :
       {"InvalidArgument", "NotFound", "OutOfRange", "AlreadyExists",
        "FailedPrecondition", "IOError", "ParseError", "Internal",
        "NotImplemented", "ResourceExhausted", "Cancelled",
        "DeadlineExceeded"}) {
    ASSERT_TRUE(fp().Arm("s", std::string("error(") + code + ")").ok()) << code;
    EXPECT_STREQ(StatusCodeToString(fp().Evaluate("s").status.code()), code);
  }
}

TEST_F(FailpointTest, OnceFiresExactlyOnce) {
  ASSERT_TRUE(fp().Arm("s", "once:error(IOError)").ok());
  EXPECT_TRUE(fp().Evaluate("s").fired());
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(fp().Evaluate("s").fired());
  EXPECT_EQ(fp().HitCount("s"), 6u);
  EXPECT_EQ(fp().FireCount("s"), 1u);
}

TEST_F(FailpointTest, TimesFiresOnFirstNHits) {
  ASSERT_TRUE(fp().Arm("s", "times(3):error(IOError)").ok());
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(fp().Evaluate("s").fired());
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(fp().Evaluate("s").fired());
  EXPECT_EQ(fp().FireCount("s"), 3u);
}

TEST_F(FailpointTest, EveryFiresOnMultiplesOfN) {
  ASSERT_TRUE(fp().Arm("s", "every(3):error(IOError)").ok());
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(fp().Evaluate("s").fired());
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false, false, true}));
}

TEST_F(FailpointTest, ProbIsDeterministicGivenSeed) {
  // The same seed twice (re-arming resets the per-site stream) must fire on
  // exactly the same hit indices — seeded probability is a reproducible
  // drill, not flakiness.
  std::vector<bool> first, second;
  ASSERT_TRUE(fp().Arm("s", "prob(0.4,1234):error(IOError)").ok());
  for (int i = 0; i < 64; ++i) first.push_back(fp().Evaluate("s").fired());
  ASSERT_TRUE(fp().Arm("s", "prob(0.4,1234):error(IOError)").ok());
  for (int i = 0; i < 64; ++i) second.push_back(fp().Evaluate("s").fired());
  EXPECT_EQ(first, second);
  // Sanity: p=0.4 over 64 draws neither never nor always fires.
  const size_t fires = fp().FireCount("s");
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 64u);
}

TEST_F(FailpointTest, RearmingReplacesRuleAndResetsCounters) {
  ASSERT_TRUE(fp().Arm("s", "always:error(IOError)").ok());
  fp().Evaluate("s");
  fp().Evaluate("s");
  EXPECT_EQ(fp().HitCount("s"), 2u);
  ASSERT_TRUE(fp().Arm("s", "once:delay(1)").ok());
  EXPECT_EQ(fp().HitCount("s"), 0u);
  EXPECT_EQ(fp().Evaluate("s").kind, FailpointActionKind::kDelay);
}

TEST_F(FailpointTest, OffActionParsesButNeverFires) {
  ASSERT_TRUE(fp().Arm("s", "off").ok());
  EXPECT_TRUE(Failpoints::AnyArmed());  // armed, merely inert
  EXPECT_FALSE(fp().Evaluate("s").fired());
  EXPECT_EQ(fp().HitCount("s"), 1u);  // still counted: drills assert coverage
}

TEST_F(FailpointTest, MultiSiteSpecArmsEachEntry) {
  ASSERT_TRUE(fp()
                  .ArmFromSpec("store.write=every(2):truncate(16); "
                               "pipeline.dispatch=once:delay(1);")
                  .ok());
  EXPECT_EQ(fp().armed(),
            (std::vector<std::string>{"pipeline.dispatch", "store.write"}));
  EXPECT_FALSE(fp().Evaluate("store.write").fired());
  const FailpointAction action = fp().Evaluate("store.write");
  EXPECT_EQ(action.kind, FailpointActionKind::kTruncate);
  EXPECT_EQ(action.arg, 16u);
}

TEST_F(FailpointTest, MalformedSpecsAreRejected) {
  EXPECT_TRUE(fp().ArmFromSpec("no-equals-here").IsParseError());
  EXPECT_TRUE(fp().Arm("s", "explode(3)").IsParseError());
  EXPECT_TRUE(fp().Arm("s", "sometimes:delay(1)").IsParseError());
  EXPECT_TRUE(fp().Arm("s", "error(NoSuchCode)").IsParseError());
  EXPECT_TRUE(fp().Arm("s", "every(0):delay(1)").IsParseError());
  EXPECT_TRUE(fp().Arm("s", "prob(1.5,1):delay(1)").IsParseError());
  EXPECT_TRUE(fp().Arm("s", "delay(1").IsParseError());
  EXPECT_TRUE(fp().Arm("", "delay(1)").IsInvalidArgument());
  // Nothing half-armed by the rejected rules.
  EXPECT_FALSE(Failpoints::AnyArmed());
}

// Every byte mutant of specs that together use each trigger and action
// either arms or fails with ParseError / InvalidArgument, never aborts, and
// DisarmAll leaves nothing armed. Nothing is evaluated, so a mutated delay
// never sleeps.
TEST_F(FailpointTest, ByteMutantsOfSpecsArmOrFailCleanly) {
  const char* const kSeeds[] = {
      "store.write=always:error(IOError,disk full)",
      "a.b=once:delay(25)",
      "c=times(3):truncate(16)",
      "d=every(2):corrupt",
      "e=prob(0.5,7):off",
      "f=error(DeadlineExceeded);g=every(3):truncate(0);",
  };
  size_t checked = 0;
  for (const std::string seed : kSeeds) {
    ASSERT_TRUE(fp().ArmFromSpec(seed).ok()) << seed;
    fp().DisarmAll();
    for (const std::string& spec : core::testing::ByteMutants(seed)) {
      const Status s = fp().ArmFromSpec(spec);
      EXPECT_TRUE(s.ok() || s.IsParseError() || s.IsInvalidArgument())
          << "spec of " << spec.size() << " bytes, mutant of '" << seed
          << "': " << s.ToString();
      fp().DisarmAll();
      ASSERT_FALSE(Failpoints::AnyArmed());
      ASSERT_TRUE(fp().armed().empty());
      ++checked;
    }
  }
  EXPECT_GT(checked, 2000u);
}

TEST_F(FailpointTest, SpecStopsAtFirstBadEntryKeepingEarlierOnes) {
  const Status s = fp().ArmFromSpec("good=delay(1);bad=wat(");
  EXPECT_TRUE(s.IsParseError());
  EXPECT_EQ(fp().armed(), (std::vector<std::string>{"good"}));
}

TEST_F(FailpointTest, TruncateAndCorruptMutatePayloads) {
  std::string payload = "SFANULLD-0123456789";
  const std::string original = payload;

  FailpointAction truncate;
  truncate.kind = FailpointActionKind::kTruncate;
  truncate.arg = 8;
  Failpoints::MutatePayload(truncate, &payload);
  EXPECT_EQ(payload, "SFANULLD");
  truncate.arg = 100;  // never grows
  Failpoints::MutatePayload(truncate, &payload);
  EXPECT_EQ(payload, "SFANULLD");

  payload = original;
  FailpointAction corrupt;
  corrupt.kind = FailpointActionKind::kCorrupt;
  Failpoints::MutatePayload(corrupt, &payload);
  EXPECT_EQ(payload.size(), original.size());
  EXPECT_NE(payload, original);

  FailpointAction none;  // non-mutating kinds are no-ops
  Failpoints::MutatePayload(none, &payload);
  Failpoints::MutatePayload(none, nullptr);
}

TEST_F(FailpointTest, StatusReturningMacroInjectsAndPassesThrough) {
  auto guarded = []() -> Status {
    SFA_FAILPOINT("macro.site");
    return Status::OK();
  };
  EXPECT_TRUE(guarded().ok());
  ASSERT_TRUE(fp().Arm("macro.site", "once:error(IOError,injected)").ok());
  Status s = guarded();
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(s.message(), "injected");
  EXPECT_TRUE(guarded().ok());  // one-shot spent
}

TEST_F(FailpointTest, MutateMacroTearsThePayloadInPlace) {
  auto write = [](std::string frame) -> Result<std::string> {
    SFA_FAILPOINT_MUTATE("macro.write", &frame);
    return frame;
  };
  ASSERT_TRUE(fp().Arm("macro.write", "always:truncate(4)").ok());
  auto torn = write("0123456789");
  ASSERT_TRUE(torn.ok());
  EXPECT_EQ(*torn, "0123");
  ASSERT_TRUE(fp().Arm("macro.write", "always:error(IOError)").ok());
  EXPECT_TRUE(write("0123456789").status().IsIOError());
}

TEST_F(FailpointTest, ConcurrentEvaluationCountsEveryHitExactlyOnce) {
  ASSERT_TRUE(fp().Arm("s", "every(7):delay(1)").ok());
  constexpr int kThreads = 8, kPerThread = 250;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) fp().Evaluate("s");
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(fp().HitCount("s"), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(fp().FireCount("s"),
            static_cast<uint64_t>(kThreads * kPerThread / 7));
}

}  // namespace
}  // namespace sfa
