// Scenario registry: turn a registered name into a ready-to-replay Trace
// plus the configuration (faults, resilience, sharding, capacity,
// checkpoint phase) for the run. Three scenario families:
//
//   adapters     — workloads the synthetic photo generator cannot produce:
//                  a RocksDB block-cache record stream (rocksdb_trace.h)
//                  and a cloud block-storage volume workload
//                  (cloud_block.h);
//   adversarial  — stress shapes carved out of the synthetic base trace:
//                  flash crowd (the chaos.flash_crowd fluid overload),
//                  sequential scan flood, key churn/retention purge,
//                  diurnal phase shift, and a shard-failover key
//                  redistribution replay;
//   fault        — fault schedules over the unmodified base trace (every
//                  failpoint at once, a transient and a hung retrain,
//                  checkpoint corruption while serving): each run must
//                  complete and recover, failing toward conservative
//                  admission.
//
// Names are registry-pinned: every spec's name must appear in
// scenario_names.h (all() cross-checks at first use and throws otherwise),
// and tools/otac_lint rejects find("...") calls naming anything else. The
// per-metric regression windows CI enforces on each run live in
// tools/envelope_gate/envelopes.json.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/sharded_cache.h"
#include "trace/trace.h"
#include "util/failpoint.h"

namespace otac::scenario {

/// One armed failpoint (name + trigger). Every registered scenario uses
/// self-clearing triggers (window / once / every_nth, never `always`), so
/// faults clear and recovery is observable.
struct ScenarioFault {
  std::string failpoint;
  fail::Spec spec{};
};

/// When a run cycles a scratch checkpoint store, so the checkpoint.*
/// failpoints evaluate: never, in two save/load round-trips after the
/// replay, or on a checkpointer thread concurrent with the serving shards.
enum class CheckpointPhase { none, after_replay, during_replay };

struct ScenarioSpec {
  std::string name;
  std::string description;
  /// Builds the workload; deterministic in (seed, scale). scale = 1.0 is
  /// the CI size; tests run smaller.
  Trace (*make_trace)(std::uint64_t seed, double scale) = nullptr;
  std::vector<ScenarioFault> faults;
  ResilienceConfig resilience{};
  std::size_t shards = 4;
  /// 0 = one worker per shard. 1 makes the evaluation order of per-request
  /// failpoints a pure function of the trace (flash_crowd); the storm keeps
  /// 0, so its Proposal run depends on thread interleaving.
  std::size_t threads = 0;
  /// Cache capacity as a fraction of the workload's total object bytes.
  double capacity_fraction = 0.02;
  CheckpointPhase checkpoint = CheckpointPhase::none;
  /// The faulty replay must be bit-identical (stats including the
  /// eviction hash, daily matrices, trainings) to a fault-free replay of
  /// the same configuration, which run() then performs first.
  bool golden_identical = false;
};

/// All registered scenarios, name-sorted — same order and names as
/// scenario_names.h kKnownScenarios (cross-checked; throws
/// std::logic_error on drift).
[[nodiscard]] const std::vector<ScenarioSpec>& all();

/// Lookup by name; throws std::invalid_argument listing the known names.
[[nodiscard]] const ScenarioSpec& find(std::string_view name);

/// One run: the faulty replay plus what the runner observed around it.
struct ScenarioRun {
  RunResult result;
  /// The fault-free replay; set only for golden_identical specs.
  std::optional<RunResult> golden;
  /// Total fires across the spec's armed failpoints.
  std::uint64_t failpoint_fires = 0;
  std::uint64_t checkpoint_cycles = 0;
  /// After the faults cleared, a clean save + load landed a current
  /// generation (true when the spec cycles no checkpoint store).
  bool checkpoint_recovered = true;

  /// True unless a golden replay was run and differs.
  [[nodiscard]] bool golden_identical() const;
};

/// The per-(scenario, mode) numbers exported to BENCH_scenarios.json and
/// gated by tools/envelope_gate.
struct ScenarioMetrics {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t insertions = 0;  ///< SSD writes
  std::uint64_t shed_requests = 0;
  std::uint64_t degraded_admits = 0;
  double file_hit_rate = 0.0;
  double byte_write_rate = 0.0;
  double p99_latency_us = 0.0;  ///< 0 when the run exported no histogram
  int trainings = 0;
};

[[nodiscard]] ScenarioMetrics summarize(const RunResult& result);

/// Owns one scenario's workload (trace + oracle + memoized hit-rate
/// estimate) and replays it. Construction is the expensive part. run()
/// replays fault-free first for a golden_identical spec, then arms the
/// spec's failpoints, replays (with the checkpointer thread for
/// during_replay), cycles the store for after_replay, sums the fires,
/// disarms and checks that the store recovered. Arming resets fire
/// counters, so repeated runs of a deterministic spec are bit-identical.
class ScenarioRunner {
 public:
  ScenarioRunner(const ScenarioSpec& spec, std::uint64_t seed, double scale);

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  [[nodiscard]] ScenarioRun run(AdmissionMode mode) const;

  /// The replay configuration run() uses; exposed so tests can rerun the
  /// same workload with overridden sharding.
  [[nodiscard]] RunConfig config(AdmissionMode mode) const;
  [[nodiscard]] ScenarioRun run_with(const RunConfig& config) const;

  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return *spec_; }
  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }

 private:
  const ScenarioSpec* spec_;
  Trace trace_;
  IntelligentCache system_;
  ShardedCache sharded_;
  std::uint64_t capacity_bytes_ = 0;
  double hit_rate_estimate_ = 0.0;
};

}  // namespace otac::scenario
