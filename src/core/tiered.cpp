#include "core/tiered.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "core/shard_engine.h"

namespace otac {

namespace {

/// The engine for one tier: a single shard, whatever the config says.
RunConfig one_shard(RunConfig config) {
  config.shards = 1;
  return config;
}

}  // namespace

TieredStats run_tiered(const IntelligentCache& system, const RunConfig& oc,
                       const RunConfig& dc) {
  ShardEngine oc_engine{system, one_shard(oc)};
  ShardEngine dc_engine{system, one_shard(dc)};
  constexpr std::size_t kBatch = ServingCore::kAdmissionBatchCapacity;
  std::array<std::uint64_t, kBatch> indices;
  std::array<std::uint64_t, kBatch> misses;
  std::array<ShardEngine::RowOutcome, kBatch> outcomes;
  const std::uint64_t total = system.trace().requests.size();
  for (std::uint64_t begin = 0; begin < total;) {
    // A batch ends at the first epoch end of either tier.
    const std::uint64_t end = std::min(
        {begin + kBatch, oc_engine.epoch_end(), dc_engine.epoch_end()});
    const auto n = static_cast<std::size_t>(end - begin);
    std::iota(indices.begin(), indices.begin() + n, begin);
    oc_engine.serve_batch(0, indices.data(), n, outcomes.data());
    std::size_t missed = 0;
    for (std::size_t b = 0; b < n; ++b) {
      if (outcomes[b].outcome != ShardEngine::Outcome::hit) {
        misses[missed++] = indices[b];
      }
    }
    if (missed > 0) {
      dc_engine.serve_batch(0, misses.data(), missed, outcomes.data());
    }
    oc_engine.advance(end);
    dc_engine.advance(end);
    begin = end;
  }

  TieredStats stats;
  stats.oc = oc_engine.totals().stats;
  stats.dc = dc_engine.totals().stats;
  stats.backend_reads = stats.dc.requests - stats.dc.hits;
  stats.backend_bytes = stats.dc.request_bytes - stats.dc.hit_bytes;
  return stats;
}

}  // namespace otac
