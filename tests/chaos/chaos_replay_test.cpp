// Chaos-schedule suite (ctest label: chaos; run under ASan+UBSan and TSan
// by `scripts/ci.sh chaos`). Drives the builtin scenarios
// (tools/chaos/chaos.h) through full sharded replays and pins the
// overload-resilience invariants:
//   - the storm scenario makes every failpoint registered in
//     util/failpoint_names.h fire at least once, and the replay plus a
//     checkpoint round-trip still complete and recover;
//   - load-shedding stays bounded and observable;
//   - once faults clear, a transient-retrain replay is bit-identical to
//     the fault-free golden (CacheStats including the eviction hash);
//   - the threaded watchdog abandons hung retrains without deadlock and
//     resumes training when the hang window closes;
//   - checkpoint corruption mid-serve is absorbed by bounded retries.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/chaos/chaos.h"
#include "trace/trace_generator.h"
#include "util/failpoint.h"
#include "util/failpoint_names.h"

namespace otac {
namespace {

class ChaosReplayTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.num_owners = 250;
    config.num_photos = 6'000;
    harness_ = new chaos::Harness{TraceGenerator{config}.generate()};
  }
  static void TearDownTestSuite() {
    delete harness_;
    harness_ = nullptr;
  }

  void SetUp() override {
    if (!fail::kSitesCompiled) {
      GTEST_SKIP() << "failpoint sites compiled out (OTAC_FAILPOINTS=OFF)";
    }
    fail::Registry::instance().disable_all();
  }
  void TearDown() override { fail::Registry::instance().disable_all(); }

  static chaos::Harness* harness_;
};

chaos::Harness* ChaosReplayTest::harness_ = nullptr;

TEST_F(ChaosReplayTest, BuiltinScenariosAreRegistryPinned) {
  // Every scenario arms cleanly (Registry::enable rejects names missing
  // from util/failpoint_names.h) and is reachable by name.
  for (const chaos::Scenario& scenario : chaos::builtin_scenarios()) {
    ASSERT_NO_THROW(chaos::arm(scenario)) << scenario.name;
    EXPECT_EQ(chaos::find_scenario(scenario.name).name, scenario.name);
    chaos::disarm();
  }
  EXPECT_THROW((void)chaos::find_scenario("no_such_scenario"),
               std::invalid_argument);
}

TEST_F(ChaosReplayTest, StormFiresEveryRegisteredFailpointAndRecovers) {
  const chaos::Scenario& storm = chaos::find_scenario("failpoint_storm");

  // The storm must stay exhaustive: every name in the central registry is
  // armed, so a future failpoint cannot dodge chaos coverage silently.
  std::vector<std::string> armed;
  for (const chaos::FaultSpec& fault : storm.faults) {
    armed.push_back(fault.failpoint);
  }
  for (const std::string_view name : fail::kKnownFailpoints) {
    EXPECT_TRUE(std::find(armed.begin(), armed.end(), std::string{name}) !=
                armed.end())
        << "failpoint not covered by the storm scenario: " << name;
  }

  const chaos::ScenarioReport report = harness_->run(storm);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.faulty.stats.requests, harness_->trace().requests.size());
  // Fires persist in the registry after disarm — assert per name, not
  // just the report's sum.
  for (const std::string& name : armed) {
    EXPECT_GT(fail::Registry::instance().fires(name), 0u)
        << "storm never fired " << name;
  }
  EXPECT_TRUE(report.shed_rate_bounded) << "shed rate " << report.shed_rate;
  EXPECT_TRUE(report.checkpoint_recovered);
  // The injected faults left visible degradation telemetry behind.
  EXPECT_GT(report.faulty.degradation.retrain_retries, 0u);
  EXPECT_GT(report.faulty.degradation.ssd_write_retries, 0u);
  EXPECT_GT(report.faulty.degradation.ssd_write_drops, 0u);
}

TEST_F(ChaosReplayTest, TransientRetrainFaultIsGoldenIdentical) {
  const chaos::ScenarioReport report =
      harness_->run(chaos::find_scenario("retrain_transient"));
  ASSERT_TRUE(report.completed);
  ASSERT_TRUE(report.golden_run);
  // One retry absorbed the throw; nothing else may differ from the
  // fault-free run — stats equality covers the eviction-sequence hash,
  // i.e. the cache state evolved identically.
  EXPECT_TRUE(report.stats_identical);
  EXPECT_EQ(report.faulty.stats.eviction_hash,
            report.golden.stats.eviction_hash);
  EXPECT_EQ(report.faulty.degradation.retrain_retries, 1u);
  EXPECT_EQ(report.faulty.degradation.retrain_failures, 0u);
  EXPECT_EQ(report.faulty.degradation.shed_requests, 0u);
}

TEST_F(ChaosReplayTest, HungRetrainIsAbandonedWithoutStallingServing) {
  const chaos::ScenarioReport report =
      harness_->run(chaos::find_scenario("retrain_hang"));
  ASSERT_TRUE(report.completed);
  // Barriers 1-2 trained clean through the threaded watchdog before the
  // hang window opened at trigger 3.
  EXPECT_GE(report.faulty.trainings, 2);
  // The hanging retrain (250ms against a 200ms timeout) was abandoned;
  // any barrier arriving while the worker still slept counted as busy.
  // Either way serving never stalled and no retrain *failed*.
  EXPECT_GE(report.faulty.degradation.retrain_timeouts, 1u);
  EXPECT_EQ(report.faulty.degradation.retrain_failures, 0u);
  EXPECT_EQ(report.faulty.stats.requests, harness_->trace().requests.size());
}

TEST_F(ChaosReplayTest, CheckpointCorruptionMidServeIsAbsorbed) {
  const chaos::ScenarioReport report =
      harness_->run(chaos::find_scenario("checkpoint_corruption_mid_serve"));
  ASSERT_TRUE(report.completed);
  EXPECT_GT(report.checkpoint_cycles, 0u);
  // Bounded retries outlasted every scripted fault window; after faults
  // cleared the store saved and loaded a clean current generation.
  EXPECT_TRUE(report.checkpoint_recovered);
  // Serving was never disturbed: the faults all live in the checkpointer
  // thread.
  EXPECT_EQ(report.faulty.degradation.shed_requests, 0u);
  EXPECT_EQ(report.faulty.degradation.retrain_failures, 0u);
}

TEST_F(ChaosReplayTest, FlashCrowdShedsBoundedAndDrainsDeterministically) {
  const chaos::Scenario& scenario = chaos::find_scenario("flash_crowd");
  const chaos::ScenarioReport first = harness_->run(scenario);
  ASSERT_TRUE(first.completed);
  // The burst pushed a shard into Shedding: drops happened, were counted,
  // and stayed under the scenario ceiling.
  EXPECT_GT(first.faulty.degradation.shed_requests, 0u);
  EXPECT_TRUE(first.shed_rate_bounded) << "shed rate " << first.shed_rate;
  // The queue walked down the hysteresis ladder and fully drained: every
  // enter has a matching exit, so the merged transition count is even.
  EXPECT_GE(first.faulty.degradation.overload_transitions, 4u);
  EXPECT_EQ(first.faulty.degradation.overload_transitions % 2, 0u);

  // threads=1 pins the failpoint evaluation order, so the faulty replay
  // is reproducible bit-for-bit, shed counts and eviction hash included.
  const chaos::ScenarioReport second = harness_->run(scenario);
  EXPECT_TRUE(second.faulty == first.faulty);
}

}  // namespace
}  // namespace otac
