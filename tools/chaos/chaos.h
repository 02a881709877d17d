// Chaos-schedule harness: deterministic, registry-pinned fault scenarios
// driven through full sharded replays (core/sharded_cache.h), asserting
// the overload-resilience invariants end to end:
//
//   - completion: every scenario finishes the whole trace — no deadlock,
//     no crash — under ASan/UBSan and TSan (ctest label `chaos`);
//   - bounded shedding: load-shedding drops stay observable
//     (DegradationCounters::shed_requests) and under the scenario's
//     declared ceiling;
//   - recovery: once faults clear (every trigger is a bounded window,
//     `once`, or `every_nth` — nothing fires forever) queues drain and
//     the system returns to normal serving; for pure-trainer faults the
//     replay is *bit-identical* to the fault-free golden (same CacheStats
//     including the eviction-sequence hash).
//
// Scenarios are data, not code: a Scenario lists (failpoint name,
// fail::Spec) pairs — arm() rejects any name missing from
// util/failpoint_names.h, so a renamed failpoint breaks the chaos suite
// loudly — plus the ResilienceConfig the replay runs under. builtin
// scenarios cover the storm (every registered failpoint firing), a
// transient retrain fault absorbed by watchdog retry, a hung retrain
// abandoned by the threaded watchdog, checkpoint corruption while serving,
// and a flash-crowd overload burst.
//
// Consumed by tests/chaos/chaos_replay_test.cpp (assertions) and
// bench/micro_chaos_replay.cpp (BENCH_chaos.json for CI).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/sharded_cache.h"
#include "trace/trace.h"
#include "util/failpoint.h"

namespace otac::chaos {

/// One armed failpoint: a registered name plus its trigger spec. Every
/// builtin scenario uses self-clearing triggers (once / every_nth /
/// window), never `always` — "faults clear" is part of the contract.
struct FaultSpec {
  std::string failpoint;
  fail::Spec spec{};
};

/// When (and whether) the scenario cycles the checkpoint store, so the
/// checkpoint.* failpoints actually evaluate:
///  - after_replay: one save/load round-trip once the replay finishes;
///  - during_replay: a dedicated checkpointer thread cycles save/load
///    concurrently with the serving shards (the TSan-relevant shape).
enum class CheckpointPhase { none, after_replay, during_replay };

struct Scenario {
  std::string name;
  std::string description;
  std::vector<FaultSpec> faults;
  ResilienceConfig resilience{};
  std::size_t shards = 4;
  /// 0 = one worker per shard. Scenarios that pin exact counters use 1:
  /// with a single worker the failpoint evaluation order — and therefore
  /// every every_nth/window firing — is a pure function of the trace.
  std::size_t threads = 0;
  /// Expect the faulty replay's CacheStats/daily/trainings to be
  /// bit-identical to a fault-free run of the same configuration (the
  /// harness runs the golden only for these scenarios).
  bool golden_identical = false;
  CheckpointPhase checkpoint = CheckpointPhase::none;
  /// Ceiling on shed_requests / requests asserted by the suite.
  double max_shed_rate = 0.05;
};

/// The five builtin scenarios: failpoint_storm, retrain_transient,
/// retrain_hang, checkpoint_corruption_mid_serve, flash_crowd.
[[nodiscard]] const std::vector<Scenario>& builtin_scenarios();

/// Lookup by name; throws std::invalid_argument listing the known names.
[[nodiscard]] const Scenario& find_scenario(std::string_view name);

/// disable_all() then enable every fault in the scenario. Throws on a
/// name not present in util/failpoint_names.h (registry-pinned).
void arm(const Scenario& scenario);

/// disable_all() — faults cleared.
void disarm();

struct ScenarioReport {
  std::string scenario;
  bool completed = false;  ///< replay returned (always true if run() did)

  RunResult faulty;
  double faulty_seconds = 0.0;

  /// Fault-free baseline under the same config; only populated when
  /// Scenario::golden_identical asked for the comparison.
  bool golden_run = false;
  RunResult golden;
  double golden_seconds = 0.0;
  /// stats (incl. eviction hash) + daily confusion matrices + trainings
  /// all bit-identical to the golden. Meaningful iff golden_run.
  bool stats_identical = false;

  double shed_rate = 0.0;  ///< shed_requests / requests
  bool shed_rate_bounded = false;
  /// Total Registry fires across the scenario's armed failpoints.
  std::uint64_t failpoint_fires = 0;

  /// Checkpoint store survived: after faults cleared, a save+load
  /// round-trip landed a current generation (trivially true when the
  /// scenario exercises no checkpointing).
  bool checkpoint_recovered = true;
  std::uint64_t checkpoint_cycles = 0;  ///< save/load cycles executed
};

/// Owns the workload (trace + oracle + memoized hit-rate estimate) and
/// replays scenarios against it. Construction is the expensive part;
/// run() is two replays at most.
class Harness {
 public:
  /// `capacity_fraction` scales total_object_bytes into the cache size.
  explicit Harness(Trace trace, double capacity_fraction = 0.02);

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  [[nodiscard]] ScenarioReport run(const Scenario& scenario) const;

  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }

 private:
  [[nodiscard]] RunConfig base_config(const Scenario& scenario) const;

  Trace trace_;
  IntelligentCache system_;
  ShardedCache sharded_;
  std::uint64_t capacity_bytes_ = 0;
  double hit_rate_estimate_ = 0.0;
};

}  // namespace otac::chaos
