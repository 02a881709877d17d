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
  const std::vector<std::uint64_t>& oc_triggers = oc_engine.triggers();
  const std::vector<std::uint64_t>& dc_triggers = dc_engine.triggers();
  std::size_t oc_next = 0;
  std::size_t dc_next = 0;

  constexpr std::size_t kBatch = ServingCore::kAdmissionBatchCapacity;
  std::array<std::uint64_t, kBatch> indices;
  std::array<std::uint64_t, kBatch> misses;
  std::array<ShardEngine::RowOutcome, kBatch> outcomes;
  const std::uint64_t total = system.trace().requests.size();
  std::uint64_t begin = 0;
  while (begin < total) {
    // A batch ends at the first pending trigger of either tier.
    std::uint64_t end = std::min<std::uint64_t>(total, begin + kBatch);
    if (oc_next < oc_triggers.size()) {
      end = std::min(end, oc_triggers[oc_next] + 1);
    }
    if (dc_next < dc_triggers.size()) {
      end = std::min(end, dc_triggers[dc_next] + 1);
    }
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
    if (oc_next < oc_triggers.size() && oc_triggers[oc_next] == end - 1) {
      oc_engine.barrier(oc_triggers[oc_next++]);
    }
    if (dc_next < dc_triggers.size() && dc_triggers[dc_next] == end - 1) {
      dc_engine.barrier(dc_triggers[dc_next++]);
    }
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
