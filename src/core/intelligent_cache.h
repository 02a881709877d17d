// Public entry point: run a photo trace through a cache configured as
//  - original  : plain replacement policy (the "Original" curves),
//  - proposal  : + ML one-time-access-exclusion (the paper's system),
//  - ideal     : + oracle admission with 100% classification accuracy,
//  - bypass    : no caching at all (sanity lower bound).
//
// Handles the whole §4 recipe: next-access oracle, hit-rate estimation for
// the criteria, M fixpoint (LIRS-adjusted), cost matrix v by capacity,
// history-table sizing, daily retraining, and Eq. 3 latency. run() serves
// through the one serving engine (core/shard_engine.h) at one shard.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "cachesim/cache_stats.h"
#include "cachesim/cache_policy.h"
#include "core/config.h"
#include "core/ota_criteria.h"
#include "core/resilience.h"
#include "core/serving_core.h"
#include "obs/report.h"
#include "storage/latency_model.h"
#include "trace/next_access.h"
#include "trace/trace.h"

namespace otac {

enum class AdmissionMode { original, proposal, ideal, bypass };

[[nodiscard]] std::string admission_mode_name(AdmissionMode mode);

/// Modes that decide admission per miss (the classifier or its oracle):
/// they need the criteria M and pay t_classify on every miss (Eq. 6).
[[nodiscard]] constexpr bool classifies(AdmissionMode mode) noexcept {
  return mode == AdmissionMode::proposal || mode == AdmissionMode::ideal;
}

struct RunConfig {
  PolicyKind policy = PolicyKind::lru;
  std::uint64_t capacity_bytes = 0;
  AdmissionMode mode = AdmissionMode::original;
  double lirs_lir_fraction = 0.9;
  OtaConfig ota{};
  LatencyConfig latency{};
  /// Hit-rate estimate for the M criteria; when absent a plain LRU run at
  /// this capacity supplies it (that run is cached per capacity).
  std::optional<double> hit_rate_estimate;

  // --- Sharded serving layer (core/sharded_cache.h) ------------------------
  /// Number of independent keyspace shards. IntelligentCache::run ignores
  /// these (it always serves one shard on the calling thread);
  /// ShardedCache::run partitions photos across `shards` and replays them
  /// on `threads` workers (0 = one thread per shard, capped by the
  /// hardware).
  std::size_t shards = 1;
  std::size_t threads = 0;

  /// Overload-resilience layer (core/resilience.h): bounded shard queues
  /// with degradation states, the retrain watchdog, and storage retry.
  /// Every default keeps the replay bit-identical to a build without the
  /// layer; every front end consumes it through the serving engine
  /// (core/shard_engine.h).
  ResilienceConfig resilience{};
};

struct RunResult {
  CacheStats stats;
  CriteriaResult criteria;  // meaningful for proposal/ideal
  double cost_v = 0.0;
  std::size_t history_capacity = 0;
  std::vector<DayClassifierMetrics> daily;  // proposal only
  int trainings = 0;
  /// Serving-path degradations (proposal only): retrain failures, rejected
  /// models, fallback admits. Zero on a healthy run.
  DegradationCounters degradation;
  double mean_latency_us = 0.0;  // Eq. 3 with this run's hit rate

  /// Observability export: per-shard + merged metric snapshots, the
  /// barrier-snapshot time-series, and derived figures (src/obs/report.h).
  /// Deliberately EXCLUDED from operator== — it contains wall-clock fit
  /// timings, so result identity stays a statement about simulation
  /// behavior; the deterministic parts of the report are pinned by their
  /// own golden test (tests/obs/report_golden_test.cpp).
  obs::RunReport obs;

  /// Field-for-field equality over every simulation output (everything but
  /// `obs`) — the determinism tests pin merged results bit-identical, not
  /// merely approximately.
  friend bool operator==(const RunResult& a, const RunResult& b) {
    return a.stats == b.stats && a.criteria == b.criteria &&
           a.cost_v == b.cost_v && a.history_capacity == b.history_capacity &&
           a.daily == b.daily && a.trainings == b.trainings &&
           a.degradation == b.degradation &&
           a.mean_latency_us == b.mean_latency_us;
  }
};

class IntelligentCache {
 public:
  /// Computes the next-access oracle (with the object footprint) once;
  /// the trace must outlive this object.
  explicit IntelligentCache(const Trace& trace);

  [[nodiscard]] RunResult run(const RunConfig& config) const;

  /// Plain-LRU hit rate at a capacity (memoized; used for the criteria),
  /// counted exactly in parallel chunks on a pool owned by the call
  /// (cachesim/lru_estimate.h). Thread-safe: run() and estimate_hit_rate()
  /// may be called concurrently from sweep workers.
  [[nodiscard]] double estimate_hit_rate(std::uint64_t capacity_bytes) const;

  [[nodiscard]] const NextAccessInfo& oracle() const noexcept {
    return oracle_;
  }
  [[nodiscard]] const Trace& trace() const noexcept { return *trace_; }
  /// Byte footprint of all distinct objects (capacity scaling anchor).
  [[nodiscard]] double total_object_bytes() const noexcept {
    return oracle_.total_object_bytes;
  }
  /// Cost v for a capacity per the §4.4.1 schedule.
  [[nodiscard]] double cost_v_for(std::uint64_t capacity_bytes,
                                  const OtaConfig& ota) const;

  /// The §4 setup every front end shares: for the classifying modes, the
  /// criteria M (from config.hit_rate_estimate or the memoized LRU
  /// estimate; LIRS-adjusted, §5.2) and the cost v into `result`. Other
  /// modes leave both zero.
  void fill_criteria(const RunConfig& config, RunResult& result) const;

  /// Eq. 3 at `hit_rate` with the miss penalty of `config.mode`: Eq. 6
  /// for the classifying modes, Eq. 5 otherwise.
  [[nodiscard]] static double mean_latency_us(const RunConfig& config,
                                              double hit_rate);

 private:
  const Trace* trace_;
  NextAccessInfo oracle_;
  mutable std::mutex hit_rate_mutex_;
  mutable std::unordered_map<std::uint64_t, double> hit_rate_cache_;
};

}  // namespace otac
