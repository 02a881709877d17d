#include "core/sharded_cache.h"

#include <algorithm>
#include <thread>

#include "core/shard_engine.h"

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
                                                   RetrainSchedule schedule) {
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

std::vector<std::uint64_t> retrain_trigger_indices(const Trace& trace,
                                                   const OtaConfig& ota) {
  return retrain_trigger_indices(trace, RetrainSchedule{ota});
}

ShardedCache::ShardedCache(const IntelligentCache& system)
    : system_(&system) {}

RunResult ShardedCache::run(const RunConfig& config) const {
  ShardEngine engine{*system_, config};
  const std::size_t hardware = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  const std::size_t threads = std::min(
      config.shards, config.threads != 0 ? config.threads : hardware);
  return std::move(engine.replay(threads));
}

}  // namespace otac
