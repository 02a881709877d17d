// Sharded concurrent serving layer: hash-partition the photo keyspace
// across N independent shards, each owning its own replacement policy and
// history-table slice of capacity/N, and replay the trace with per-shard
// worker threads (util/thread_pool). This is how production write-avoiding
// caches scale admission with cores (Flashield, arXiv:1702.02588; the
// ML-driven cloud block-store caches of arXiv:2501.14770) — the keyspace
// partition means shards share no mutable state on the request path.
//
// ShardedCache::run is a thin driver over the serving engine
// (core/shard_engine.h): it picks the worker count and calls
// ShardEngine::replay, which partitions the trace, serves each shard in
// micro-batches that never cross the engine's epoch end, and advances the
// engine (one retrain barrier per trigger) between epochs.
// IntelligentCache::run is the same call at shards=1. The CART model is
// the one deliberately shared piece, published by the barrier into a
// seqlock slot (core/model_slot.h) that shards reload once per generation.
//
// Determinism is a design invariant, not an accident:
//  - the partition is a pure function of the photo id (shard_of_photo);
//  - retrain points are precomputed from request times alone
//    (retrain_trigger_indices) and act as bulk-synchronous barriers, so
//    every request observes a model that depends only on trace position,
//    never on thread scheduling;
//  - drained samples are merged in trace order, and per-shard stats are
//    merged in shard order.
// Hence shards=N is reproducible for any thread count, and shards=1 is
// exactly IntelligentCache::run — which tests/core/sharded_*_test.cpp pin
// down with literal expectations.
#pragma once

#include <cstdint>
#include <vector>

#include "core/intelligent_cache.h"
#include "core/trainer.h"

namespace otac {

/// Deterministic shard assignment: SplitMix64 finalizer of the photo id,
/// reduced mod `shards`. A pure function of (photo, shards) — independent
/// of iteration order, thread count, and scheduling.
[[nodiscard]] std::size_t shard_of_photo(PhotoId photo,
                                         std::size_t shards) noexcept;

/// Request indices at which `schedule`, advanced from its current state,
/// fires — precomputed from request times alone. The engine keeps them as
/// its epoch ends: all shards finish requests <= trigger, the trainer
/// drains the shard buffers and retrains, the new model is atomically
/// published, serving resumes.
[[nodiscard]] std::vector<std::uint64_t> retrain_trigger_indices(
    const Trace& trace, RetrainSchedule schedule);

/// The triggers of a fresh RetrainSchedule{ota}.
[[nodiscard]] std::vector<std::uint64_t> retrain_trigger_indices(
    const Trace& trace, const OtaConfig& ota);

class ShardedCache {
 public:
  /// Wraps the system to reuse its trace, next-access oracle, memoized
  /// hit-rate estimates, and cost schedule.
  explicit ShardedCache(const IntelligentCache& system);

  /// Replay the trace through config.shards shards on config.threads
  /// workers (0 = one thread per shard, capped by the hardware) and merge
  /// per-shard results: stats summed in shard order (eviction hashes
  /// folded), daily confusion matrices summed per day, degradation
  /// counters summed, history capacity totalled.
  [[nodiscard]] RunResult run(const RunConfig& config) const;

 private:
  const IntelligentCache* system_;
};

}  // namespace otac
