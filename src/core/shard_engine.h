// The one serving engine under every front end: IntelligentCache::run
// (core/intelligent_cache.h) and ShardedCache::run (core/sharded_cache.h)
// call replay(), the two-tier replay (core/tiered.h) drives two
// single-shard engines, and the otacd daemon (net/daemon.h) drives it from
// per-shard inbound queues. All of them therefore serve, retrain and
// report through the same code, which is what keeps a loopback daemon run
// bit-identical to the in-process replay.
//
// The engine owns everything a front end needs: the validated RunConfig,
// the criteria M and cost v, one state block per shard (policy,
// ServingCore, sampler, fluid ShardQueue, metrics registry, latency
// recorder, model snapshot, CacheStats), the shared ModelSlot with the
// last published tree, the trainer with its TrainerWatchdog, the retrain
// schedule, the trainer-side registry, the retrain triggers with the
// cursor over them, and the pending publish point. Its operations:
//
//   serve_batch  serve up to kAdmissionBatchCapacity requests of one shard
//                in every admission mode and overload state, through one
//                per-row action array: gate (fluid queue), stage + offer +
//                one batched classify for the rows that take the ML path,
//                then the strictly sequential cache replay;
//   upsert       the daemon's PUT: touch a resident photo, insert a
//                missing one;
//   epoch_end    the first trace index the current epoch cannot serve;
//   advance      run every pending retrain event below an index, in index
//                order: at a trigger, drain the shard samplers and submit
//                the fit (merged in trace order by the fitting side); at
//                its publish point, collect the fit, publish, snapshot;
//   replay       the whole trace: partition by shard_of_photo, serve each
//                epoch on a pool, advance, finish;
//   finish       advance to the end of the trace, then the end-of-run
//                RunResult and report;
//   snapshot /   the single-shard serving state in the checkpoint format
//   restore      (core/checkpoint.h).
//
// The publish lag L (a constructor argument, 0 by default) splits each
// retrain in two. At trigger t the engine drains and submits the fit; it
// publishes at request index t + L, or just before the next trigger's
// drain if that comes first, or at the trace's last request. With L > 0
// the fit runs on the watchdog's worker while shards serve [t+1, t+L]
// with the previous model, and the publish point blocks only if the fit
// has not finished. While no model serves, a fit publishes at its trigger
// whatever L is: there is no last-good model to fail toward, and waiting
// would only extend admit-all. L = 0 is the single barrier: drain, fit,
// publish, snapshot, all at t.
//
// Threading contract: serve_batch/upsert on different shards may run
// concurrently; calls on one shard must be serialized; epoch_end may be
// called at any time; advance, totals, snapshot and finish require every
// shard to be quiescent. Shards reload the published model once per
// published generation, on their next batch. The only thread the engine
// starts is the watchdog's worker (with L > 0, or a watchdog timeout),
// and only the trainer it fits with is shared with that thread.
//
// Determinism contract: the events for index e (a trigger's drain, a
// publish) run after request e is served and before request e+1 is. The
// engine enforces it: serve_batch throws std::logic_error for a row at or
// past epoch_end(), and a driver moves the epoch on only through
// advance(). The publish point is a trace index and, without a watchdog
// timeout, the publish waits for its fit, so every result depends only on
// trace order and L — never on batch boundaries, thread count, fit speed
// or scheduling.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "core/checkpoint.h"
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
  /// engine. `publish_lag` is L above, in requests.
  ShardEngine(const IntelligentCache& system, const RunConfig& config,
              std::uint64_t publish_lag = 0);
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Shard `s`'s registry (front ends may bind their own metrics there).
  [[nodiscard]] obs::MetricsRegistry& shard_registry(std::size_t s);
  /// The trainer-side registry, merged ahead of the shards in reports.
  [[nodiscard]] obs::MetricsRegistry& global_registry() noexcept {
    return global_registry_;
  }

  /// Serve trace requests `indices[0..n)` (n <= ServingCore::
  /// kAdmissionBatchCapacity, all owned by shard `s`, in trace order) and
  /// write one outcome per row. Throws std::logic_error, before serving
  /// any row, if a row is at or past epoch_end().
  void serve_batch(std::size_t s, const std::uint64_t* indices, std::size_t n,
                   RowOutcome* outcomes);

  /// Warm-path upsert into shard `s`. Moves replacement state (evictions
  /// fold into the eviction hash) but no request counter: CacheStats stay
  /// GET-only.
  void upsert(std::size_t s, PhotoId photo);

  /// The first trace index the current epoch cannot serve: the index of
  /// the next pending event (a publish, else a trigger) + 1, or the trace
  /// size when none is left (always, outside proposal mode). Safe to call
  /// while serve_batch runs.
  [[nodiscard]] std::uint64_t epoch_end() const noexcept;

  /// Run, in index order, every pending event at an index < `index`; at
  /// one index a publish runs before a drain. Every shard must be
  /// quiescent.
  void advance(std::uint64_t index);

  /// Totals so far, merged in shard order, without the report. Requires
  /// quiescent shards; no side effects.
  [[nodiscard]] RunResult totals() const;

  /// advance() to the end of the trace, then totals() plus the report:
  /// registries populated, per-shard and merged snapshots, and an
  /// end-of-trace timeline sample. Idempotent; `threads` is recorded in
  /// the report.
  RunResult& finish(std::size_t threads);

  /// Serve the whole trace, request 0 onward, on a fresh (or just
  /// restored) engine: every shard serves its requests below epoch_end()
  /// on a pool of `threads` workers, then advance() runs on the calling
  /// thread, until the trace ends; then finish(threads).
  RunResult& replay(std::size_t threads);

  /// The serving state of a single-shard proposal engine: criteria, the
  /// last published tree, history table, trainer reservoir, sampling
  /// cursor and retrain schedule. Same preconditions as totals(). Throws
  /// std::invalid_argument unless shards == 1 and the mode is proposal,
  /// and std::logic_error while a fit is in flight (a publish pending, or
  /// the worker still on an abandoned retrain), when the trainer belongs
  /// to the worker.
  [[nodiscard]] ClassifierSnapshot snapshot() const;

  /// Install checkpointed state into a single-shard proposal engine that
  /// has not run a barrier yet (std::invalid_argument otherwise). The
  /// history, trainer and schedule sections are always restored, and the
  /// retrain triggers are recomputed from the restored schedule. A corrupt,
  /// arity-mismatched or slot-oversized model leaves the engine model-less
  /// (admit-all until the next retrain), counts a rejected model and
  /// returns false.
  bool restore(const ClassifierSnapshot& snapshot);

 private:
  struct Shard;

  bool insert(Shard& shard, const Request& request, const PhotoMeta& photo);
  /// The drain at `trigger`, with every shard quiescent: merge the shard
  /// samplers, submit the fit and schedule its publish point (publishing
  /// at once when that is the trigger itself).
  void barrier(std::uint64_t trigger);
  /// The pending publish point: collect the fit, publish, account and
  /// take the barrier snapshot.
  void publish_pending();
  /// The index of the next pending event (the publish point, else the
  /// next trigger), or kNoEvent.
  [[nodiscard]] std::uint64_t next_event() const noexcept;
  void store_epoch_end() noexcept;
  /// Validate, compile and store `tree` as the next generation, keeping
  /// the tree for snapshots. An unservable tree (failed validation, or too
  /// large for the slot) counts a rejected model and returns false; the
  /// last-good generation keeps serving.
  bool publish(ml::DecisionTree tree);
  void populate_registries();
  [[nodiscard]] obs::MetricsSnapshot merged_snapshot() const;

  const IntelligentCache* system_;
  const Trace* trace_;
  const NextAccessInfo* oracle_;
  RunConfig config_;
  std::uint64_t publish_lag_ = 0;
  bool is_proposal_ = false;
  std::size_t model_arity_ = 0;
  RunResult result_;  // criteria, cost, trainings, timeline as they accrue

  std::vector<Shard> shards_;

  // The one shared mutable serving object: barriers publish into the slot
  // and bump the generation; each shard reloads on its next batch. The
  // published tree itself is kept as the snapshot's model source.
  ModelSlot model_;
  std::atomic<std::uint64_t> generation_{0};
  std::optional<ml::DecisionTree> model_tree_;
  RetrainSchedule schedule_;  // advanced at every barrier
  std::unique_ptr<DailyTrainer> trainer_;
  std::unique_ptr<TrainerWatchdog> watchdog_;
  DegradationCounters trainer_degradation_;
  obs::MetricsRegistry global_registry_;
  obs::FixedHistogram* fit_seconds_ = nullptr;
  obs::FixedHistogram* publish_wait_seconds_ = nullptr;  // lag > 0 only
  obs::MetricsRegistry::Counter fits_ = nullptr;
  obs::MetricsRegistry::Counter fit_skipped_ = nullptr;
  obs::MetricsRegistry::Counter models_published_ = nullptr;
  obs::MetricsRegistry::Counter samples_drained_ = nullptr;
  obs::MetricsRegistry::Counter compiled_tree_swaps_ = nullptr;
  // Request indices after which a drain runs (proposal only), the index
  // of the next one pending, and the submitted fit's publish point. Only
  // advance() moves them, and it stores each epoch end they yield
  // whole, so epoch_end() can read it from any thread.
  static constexpr std::uint64_t kNoEvent =
      std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> triggers_;
  std::size_t next_trigger_ = 0;
  std::optional<std::uint64_t> publish_at_;
  std::atomic<std::uint64_t> epoch_end_{0};
};

}  // namespace otac
