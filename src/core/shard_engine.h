// The one serving engine under every sharded front end: ShardedCache::run
// (core/sharded_cache.h) drives it from per-shard trace-index lists, and
// the otacd daemon (net/daemon.h) drives it from per-shard inbound
// queues. Both therefore serve, retrain and report through the same code,
// which is what keeps a loopback daemon run bit-identical to the
// in-process replay.
//
// The engine owns everything a sharded front end needs: the validated
// RunConfig, the criteria M and cost v, one state block per shard (policy,
// ServingCore, sampler, fluid ShardQueue, metrics registry, latency
// recorder, model snapshot, CacheStats), the shared ModelSlot, the trainer
// with its TrainerWatchdog, the trainer-side registry and the precomputed
// retrain triggers. It exposes four operations:
//
//   serve_batch  serve up to kAdmissionBatchCapacity requests of one shard
//                in every admission mode and overload state, through one
//                per-row action array: gate (fluid queue), stage + offer +
//                one batched classify for the rows that take the ML path,
//                then the strictly sequential cache replay;
//   upsert       the daemon's PUT: touch a resident photo, insert a
//                missing one;
//   barrier      drain the shard samplers, merge in trace order, fit under
//                the watchdog, validate, compile, publish, snapshot;
//   finish       the end-of-run RunResult and report.
//
// Threading contract: serve_batch/upsert on different shards may run
// concurrently; calls on one shard must be serialized; barrier, totals
// and finish require every shard to be quiescent. Shards reload the
// published model once per published generation, on their next batch.
//
// Determinism contract: a batch never spans a retrain trigger (the driver
// calls barrier(t) after serving every request <= t and before any
// request > t). Then every result depends only on trace order — never on
// batch boundaries, thread count or scheduling.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/intelligent_cache.h"
#include "core/model_slot.h"
#include "core/serving_core.h"
#include "core/trainer.h"
#include "core/trainer_watchdog.h"
#include "obs/metrics.h"

namespace otac {

class ShardEngine {
 public:
  /// What happened to one served request.
  enum class Outcome : std::uint8_t {
    hit,       ///< cache hit
    stored,    ///< miss, admitted and written to the cache
    rejected,  ///< miss, not written: admission declined it, the policy
               ///< refused the insert (object larger than the shard), or
               ///< the SSD write was dropped after its retries
    shed,      ///< dropped by the overload ladder before any serving work
  };
  struct RowOutcome {
    Outcome outcome = Outcome::hit;
    bool degraded = false;  ///< served on the Degraded (admit-all) rung
  };

  /// Validates `config` (std::invalid_argument on zero capacity, zero
  /// shards, or a capacity that splits to zero bytes per shard), computes
  /// the criteria, and builds every shard. `system` must outlive the
  /// engine.
  ShardEngine(const IntelligentCache& system, const RunConfig& config);
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Request indices after which barrier() must run (proposal only).
  [[nodiscard]] const std::vector<std::uint64_t>& triggers() const noexcept {
    return triggers_;
  }
  /// Shard `s`'s registry (front ends may bind their own metrics there).
  [[nodiscard]] obs::MetricsRegistry& shard_registry(std::size_t s);
  /// The trainer-side registry, merged ahead of the shards in reports.
  [[nodiscard]] obs::MetricsRegistry& global_registry() noexcept {
    return global_registry_;
  }

  /// Serve trace requests `indices[0..n)` (n <= ServingCore::
  /// kAdmissionBatchCapacity, all owned by shard `s`, in trace order, none
  /// past the next pending trigger) and write one outcome per row.
  void serve_batch(std::size_t s, const std::uint64_t* indices, std::size_t n,
                   RowOutcome* outcomes);

  /// Warm-path upsert into shard `s`. Moves replacement state (evictions
  /// fold into the eviction hash) but no request counter: CacheStats stay
  /// GET-only.
  void upsert(std::size_t s, PhotoId photo);

  /// The retrain barrier at `trigger`, with every shard quiescent.
  void barrier(std::uint64_t trigger);

  /// Totals so far, merged in shard order, without the report. Requires
  /// quiescent shards; no side effects.
  [[nodiscard]] RunResult totals() const;

  /// totals() plus the report: registries populated, per-shard and merged
  /// snapshots, and an end-of-trace timeline sample. Idempotent;
  /// `threads` is recorded in the report.
  RunResult& finish(std::size_t threads);

 private:
  struct Shard;

  bool insert(Shard& shard, const Request& request, const PhotoMeta& photo);
  void populate_registries();
  [[nodiscard]] obs::MetricsSnapshot merged_snapshot() const;

  const IntelligentCache* system_;
  const Trace* trace_;
  const NextAccessInfo* oracle_;
  RunConfig config_;
  bool is_proposal_ = false;
  std::size_t model_arity_ = 0;
  RunResult result_;  // criteria, cost, trainings, timeline as they accrue

  std::vector<Shard> shards_;

  // The one shared mutable serving object: barriers publish into the slot
  // and bump the generation; each shard reloads on its next batch.
  ModelSlot model_;
  std::atomic<std::uint64_t> generation_{0};
  std::unique_ptr<DailyTrainer> trainer_;
  std::unique_ptr<TrainerWatchdog> watchdog_;
  DegradationCounters trainer_degradation_;
  obs::MetricsRegistry global_registry_;
  obs::FixedHistogram* fit_seconds_ = nullptr;
  obs::MetricsRegistry::Counter fits_ = nullptr;
  obs::MetricsRegistry::Counter fit_skipped_ = nullptr;
  obs::MetricsRegistry::Counter models_published_ = nullptr;
  obs::MetricsRegistry::Counter samples_drained_ = nullptr;
  obs::MetricsRegistry::Counter compiled_tree_swaps_ = nullptr;
  std::vector<std::uint64_t> triggers_;
};

}  // namespace otac
