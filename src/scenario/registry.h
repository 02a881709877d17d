// Scenario registry: turn a registered name into a ready-to-replay Trace
// plus the configuration (faults, resilience, sharding, capacity) for the
// run. Two scenario families:
//
//   adapters     — workloads the synthetic photo generator cannot produce:
//                  a RocksDB block-cache record stream (rocksdb_trace.h)
//                  and a cloud block-storage volume workload
//                  (cloud_block.h);
//   adversarial  — stress shapes carved out of the synthetic base trace:
//                  flash crowd (the chaos.flash_crowd fluid overload),
//                  sequential scan flood, key churn/retention purge,
//                  diurnal phase shift, and a shard-failover key
//                  redistribution replay.
//
// Names are registry-pinned: every spec's name must appear in
// scenario_names.h (all() cross-checks at first use and throws otherwise),
// and tools/otac_lint rejects find("...") calls naming anything else. The
// per-metric regression windows CI enforces on each run live in
// tools/envelope_gate/envelopes.json.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/sharded_cache.h"
#include "trace/trace.h"
#include "util/failpoint.h"

namespace otac::scenario {

/// One armed failpoint (name + trigger), as in the chaos harness. All
/// registered scenarios use self-clearing triggers.
struct ScenarioFault {
  std::string failpoint;
  fail::Spec spec{};
};

struct ScenarioSpec {
  std::string name;
  std::string description;
  /// Builds the workload; deterministic in (seed, scale). scale = 1.0 is
  /// the CI size; tests run smaller.
  Trace (*make_trace)(std::uint64_t seed, double scale) = nullptr;
  std::vector<ScenarioFault> faults;
  ResilienceConfig resilience{};
  std::size_t shards = 4;
  /// 0 = one worker per shard; scenarios with per-request failpoints pin 1
  /// so the evaluation order is a pure function of the trace.
  std::size_t threads = 0;
  /// Cache capacity as a fraction of the workload's total object bytes.
  double capacity_fraction = 0.02;
};

/// All registered scenarios, name-sorted — same order and names as
/// scenario_names.h kKnownScenarios (cross-checked; throws
/// std::logic_error on drift).
[[nodiscard]] const std::vector<ScenarioSpec>& all();

/// Lookup by name; throws std::invalid_argument listing the known names.
[[nodiscard]] const ScenarioSpec& find(std::string_view name);

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
/// estimate) and replays it. Construction is the expensive part; run()
/// arms the spec's failpoints, replays, and disarms — arming resets fire
/// counters, so repeated run() calls are bit-identical.
class ScenarioRunner {
 public:
  ScenarioRunner(const ScenarioSpec& spec, std::uint64_t seed, double scale);

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  [[nodiscard]] RunResult run(AdmissionMode mode) const;

  /// The replay configuration run() uses; exposed so tests can rerun the
  /// same workload with overridden sharding.
  [[nodiscard]] RunConfig config(AdmissionMode mode) const;
  [[nodiscard]] RunResult run_with(const RunConfig& config) const;

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
