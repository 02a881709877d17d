// Fault-schedule suite (ctest label: chaos; run under ASan+UBSan and TSan
// by `scripts/ci.sh scenarios`). Drives the registry's fault scenarios
// (scenario/registry.h) through full sharded replays and pins the
// overload-resilience invariants:
//   - the storm scenario makes every failpoint registered in
//     util/failpoint_names.h fire at least once, and the replay plus a
//     checkpoint round-trip still complete and recover;
//   - load-shedding stays bounded (at most 5% of requests) and observable;
//   - once faults clear, a transient-retrain replay is bit-identical to
//     the fault-free golden (CacheStats including the eviction hash);
//   - the threaded watchdog abandons a hung retrain without deadlock,
//     and every later barrier finds the hung worker busy;
//   - checkpoint corruption mid-serve is absorbed by bounded retries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/registry.h"
#include "util/failpoint.h"
#include "util/failpoint_names.h"

namespace otac {
namespace {

constexpr std::uint64_t kSeed = 42;
// Base-trace scale 0.3 x 0.05: a 6,000-photo trace.
constexpr double kScale = 0.3;

/// Shedding is bounded at 5% of the replayed requests.
[[nodiscard]] bool shed_bounded(const RunResult& result) {
  return result.degradation.shed_requests * 20 <= result.stats.requests;
}

class ChaosReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fail::kSitesCompiled) {
      GTEST_SKIP() << "failpoint sites compiled out (OTAC_FAILPOINTS=OFF)";
    }
    fail::Registry::instance().disable_all();
  }
  void TearDown() override { fail::Registry::instance().disable_all(); }
};

TEST_F(ChaosReplayTest, BuiltinScenariosAreRegistryPinned) {
  // Every scenario arms cleanly (Registry::enable rejects names missing
  // from util/failpoint_names.h) and is reachable by name.
  fail::Registry& registry = fail::Registry::instance();
  for (const scenario::ScenarioSpec& spec : scenario::all()) {
    for (const scenario::ScenarioFault& fault : spec.faults) {
      ASSERT_NO_THROW(registry.enable(fault.failpoint, fault.spec))
          << spec.name;
    }
    EXPECT_EQ(scenario::find(spec.name).name, spec.name);
    registry.disable_all();
  }
  EXPECT_THROW((void)scenario::find("no_such_scenario"),
               std::invalid_argument);
}

TEST_F(ChaosReplayTest, StormFiresEveryRegisteredFailpointAndRecovers) {
  const scenario::ScenarioRunner runner{scenario::find("failpoint_storm"),
                                        kSeed, kScale};

  // The storm must stay exhaustive: every name in the central registry is
  // armed, so a future failpoint cannot dodge chaos coverage silently.
  std::vector<std::string> armed;
  for (const scenario::ScenarioFault& fault : runner.spec().faults) {
    armed.push_back(fault.failpoint);
  }
  for (const std::string_view name : fail::kKnownFailpoints) {
    EXPECT_TRUE(std::find(armed.begin(), armed.end(), std::string{name}) !=
                armed.end())
        << "failpoint not covered by the storm scenario: " << name;
  }

  const scenario::ScenarioRun run = runner.run(AdmissionMode::proposal);
  const RunResult& faulty = run.result;
  EXPECT_EQ(faulty.stats.requests, runner.trace().requests.size());
  // Fires persist in the registry after disarm — assert per name, not
  // just the run's sum.
  for (const std::string& name : armed) {
    EXPECT_GT(fail::Registry::instance().fires(name), 0u)
        << "storm never fired " << name;
  }
  EXPECT_TRUE(shed_bounded(faulty))
      << "shed " << faulty.degradation.shed_requests << " of "
      << faulty.stats.requests;
  EXPECT_TRUE(run.checkpoint_recovered);
  // The injected faults left visible degradation telemetry behind.
  EXPECT_GT(faulty.degradation.retrain_retries, 0u);
  EXPECT_GT(faulty.degradation.ssd_write_retries, 0u);
  EXPECT_GT(faulty.degradation.ssd_write_drops, 0u);
}

TEST_F(ChaosReplayTest, TransientRetrainFaultIsGoldenIdentical) {
  const scenario::ScenarioRunner runner{scenario::find("retrain_transient"),
                                        kSeed, kScale};
  const scenario::ScenarioRun run = runner.run(AdmissionMode::proposal);
  ASSERT_EQ(run.result.stats.requests, runner.trace().requests.size());
  ASSERT_TRUE(run.golden.has_value());
  // One retry absorbed the throw; nothing else may differ from the
  // fault-free run — stats equality covers the eviction-sequence hash,
  // i.e. the cache state evolved identically.
  EXPECT_TRUE(run.golden_identical());
  EXPECT_EQ(run.result.stats.eviction_hash, run.golden->stats.eviction_hash);
  EXPECT_EQ(run.result.degradation.retrain_retries, 1u);
  EXPECT_EQ(run.result.degradation.retrain_failures, 0u);
  EXPECT_EQ(run.result.degradation.shed_requests, 0u);
}

TEST_F(ChaosReplayTest, HungRetrainIsAbandonedWithoutStallingServing) {
  const scenario::ScenarioRunner runner{scenario::find("retrain_hang"), kSeed,
                                        kScale};
  const RunResult faulty = runner.run(AdmissionMode::proposal).result;
  ASSERT_EQ(faulty.stats.requests, runner.trace().requests.size());
  // Barriers 1-2 trained clean through the threaded watchdog before the
  // hang window opened at trigger 3.
  EXPECT_EQ(faulty.trainings, 2);
  // The hanging retrain (held until the watchdog is destroyed, against a
  // 200 ms timeout) was abandoned, and every later barrier found the
  // worker busy. Serving never stalled and no retrain *failed*.
  EXPECT_GE(faulty.degradation.retrain_timeouts, 1u);
  EXPECT_EQ(faulty.degradation.retrain_failures, 0u);
}

TEST_F(ChaosReplayTest, CheckpointCorruptionMidServeIsAbsorbed) {
  const scenario::ScenarioRunner runner{
      scenario::find("checkpoint_corruption_mid_serve"), kSeed, kScale};
  const scenario::ScenarioRun run = runner.run(AdmissionMode::proposal);
  ASSERT_EQ(run.result.stats.requests, runner.trace().requests.size());
  EXPECT_GT(run.checkpoint_cycles, 0u);
  // Bounded retries outlasted every scripted fault window; after faults
  // cleared the store saved and loaded a clean current generation.
  EXPECT_TRUE(run.checkpoint_recovered);
  // Serving was never disturbed: the faults all live in the checkpointer
  // thread.
  EXPECT_EQ(run.result.degradation.shed_requests, 0u);
  EXPECT_EQ(run.result.degradation.retrain_failures, 0u);
}

TEST_F(ChaosReplayTest, FlashCrowdShedsBoundedAndDrainsDeterministically) {
  const scenario::ScenarioRunner runner{scenario::find("flash_crowd"), kSeed,
                                        kScale};
  const RunResult first = runner.run(AdmissionMode::proposal).result;
  ASSERT_EQ(first.stats.requests, runner.trace().requests.size());
  // The burst pushed a shard into Shedding: drops happened, were counted,
  // and stayed under the 5% ceiling.
  EXPECT_GT(first.degradation.shed_requests, 0u);
  EXPECT_TRUE(shed_bounded(first))
      << "shed " << first.degradation.shed_requests << " of "
      << first.stats.requests;
  // The queue walked down the hysteresis ladder and fully drained: every
  // enter has a matching exit, so the merged transition count is even.
  EXPECT_GE(first.degradation.overload_transitions, 4u);
  EXPECT_EQ(first.degradation.overload_transitions % 2, 0u);

  // threads=1 pins the failpoint evaluation order, so the faulty replay
  // is reproducible bit-for-bit, shed counts and eviction hash included.
  const RunResult second = runner.run(AdmissionMode::proposal).result;
  EXPECT_TRUE(second == first);
}

}  // namespace
}  // namespace otac
