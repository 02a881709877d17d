// Two-tier cache hierarchy from the paper's §2.1 (Figure 1): requests hit
// the Outside Cache (OC, close to users), OC misses go to the Datacenter
// Cache (DC), DC misses hit backend storage. Each tier is one single-shard
// serving engine (core/shard_engine.h) with its own RunConfig — policy,
// capacity and admission mode — so one-time-access exclusion can be
// deployed at either or both tiers, each with its own criteria, cost v
// and retrain barriers.
#pragma once

#include "cachesim/cache_stats.h"
#include "core/intelligent_cache.h"
#include "storage/latency_model.h"

namespace otac {

struct TieredStats {
  CacheStats oc;  // per-tier view: oc.requests == all requests
  CacheStats dc;  // dc.requests == OC misses
  std::uint64_t backend_reads = 0;  // DC misses
  double backend_bytes = 0.0;

  /// End-to-end hit rate: served by either cache tier.
  [[nodiscard]] double combined_hit_rate() const noexcept {
    return oc.requests
               ? 1.0 - static_cast<double>(backend_reads) /
                           static_cast<double>(oc.requests)
               : 0.0;
  }
  /// Mean response time: OC hit < DC hit < backend read. Latencies for the
  /// two cache tiers use the same SSD model; DC adds a WAN round trip.
  [[nodiscard]] double mean_latency_us(const LatencyModel& model,
                                       double oc_to_dc_rtt_us) const noexcept {
    if (oc.requests == 0) return 0.0;
    const double n = static_cast<double>(oc.requests);
    const double oc_hits = static_cast<double>(oc.hits);
    const double dc_hits = static_cast<double>(dc.hits);
    const double backend = static_cast<double>(backend_reads);
    return (oc_hits * model.hit_cost_us() +
            dc_hits * (model.hit_cost_us() + oc_to_dc_rtt_us) +
            backend * (model.miss_penalty_original_us() + oc_to_dc_rtt_us)) /
           n;
  }
};

/// Replay the system's trace through the OC engine (every request) and the
/// DC engine (the requests the OC did not serve from cache). Each batch
/// ends at the earlier epoch end of the two engines, and then both advance
/// past it, so each runs its barriers at its own triggers; `shards` and
/// `threads` of both configs are ignored (one shard each, on the calling
/// thread).
[[nodiscard]] TieredStats run_tiered(const IntelligentCache& system,
                                     const RunConfig& oc,
                                     const RunConfig& dc);

}  // namespace otac
