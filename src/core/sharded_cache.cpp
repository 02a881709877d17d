#include "core/sharded_cache.h"

#include <algorithm>
#include <array>
#include <thread>

#include "core/shard_engine.h"
#include "core/trainer.h"
#include "util/thread_pool.h"

namespace otac {

std::size_t shard_of_photo(PhotoId photo, std::size_t shards) noexcept {
  // SplitMix64 finalizer: photo ids are often sequential, so a plain
  // `photo % shards` would stripe hot neighborhoods; the mixer spreads them.
  std::uint64_t x = static_cast<std::uint64_t>(photo) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shards);
}

std::vector<std::uint64_t> retrain_trigger_indices(const Trace& trace,
                                                   const OtaConfig& ota) {
  RetrainSchedule schedule{ota};
  std::vector<std::uint64_t> triggers;
  for (std::uint64_t i = 0; i < trace.requests.size(); ++i) {
    if (schedule.due(trace.requests[i].time)) {
      // Cold: trigger precompute runs once per run, before replay starts.
      // otac-lint: allow(hotpath-alloc)
      triggers.push_back(i);
    }
  }
  return triggers;
}

ShardedCache::ShardedCache(const IntelligentCache& system)
    : system_(&system), trace_(&system.trace()) {}

RunResult ShardedCache::run(const RunConfig& config) const {
  ShardEngine engine{*system_, config};
  const Trace& trace = *trace_;
  const std::size_t shards = config.shards;

  // Keyspace partition, materialized as per-shard index lists so each
  // worker walks a dense array instead of filtering the whole trace.
  std::vector<std::vector<std::uint64_t>> shard_requests(shards);
  for (std::uint64_t i = 0; i < trace.requests.size(); ++i) {
    shard_requests[shard_of_photo(trace.requests[i].photo, shards)]
        // Cold: one-time shard bucketing before the replay loop.
        // otac-lint: allow(hotpath-alloc)
        .push_back(i);
  }
  std::vector<std::size_t> cursor(shards, 0);

  const std::size_t hardware = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  const std::size_t threads =
      std::min(shards, config.threads != 0 ? config.threads : hardware);
  ThreadPool pool{threads};

  // Bulk-synchronous epochs: every shard serves its requests up to the
  // next retrain trigger, then the barrier retrains and publishes.
  // Batches never cross an epoch, so batch boundaries depend only on the
  // trace and the schedule.
  const std::vector<std::uint64_t>& triggers = engine.triggers();
  const std::uint64_t total_requests = trace.requests.size();
  std::uint64_t epoch_begin = 0;
  std::size_t next_trigger = 0;
  while (epoch_begin < total_requests) {
    const bool has_trigger = next_trigger < triggers.size();
    const std::uint64_t epoch_end =
        has_trigger ? triggers[next_trigger] + 1 : total_requests;
    pool.parallel_for(shards, [&](std::size_t s) {
      const std::vector<std::uint64_t>& mine = shard_requests[s];
      std::size_t& pos = cursor[s];
      constexpr std::size_t kBatch = ServingCore::kAdmissionBatchCapacity;
      std::array<ShardEngine::RowOutcome, kBatch> outcomes;
      while (pos < mine.size() && mine[pos] < epoch_end) {
        std::size_t batch = 1;
        while (batch < kBatch && pos + batch < mine.size() &&
               mine[pos + batch] < epoch_end) {
          ++batch;
        }
        engine.serve_batch(s, mine.data() + pos, batch, outcomes.data());
        pos += batch;
      }
    });
    if (has_trigger) engine.barrier(triggers[next_trigger++]);
    epoch_begin = epoch_end;
  }
  return std::move(engine.finish(threads));
}

}  // namespace otac
