#include "core/intelligent_cache.h"

#include <stdexcept>

#include "cachesim/lru_estimate.h"
#include "core/shard_engine.h"
#include "util/thread_pool.h"

namespace otac {

std::string admission_mode_name(AdmissionMode mode) {
  switch (mode) {
    case AdmissionMode::original:
      return "Original";
    case AdmissionMode::proposal:
      return "Proposal";
    case AdmissionMode::ideal:
      return "Ideal";
    case AdmissionMode::bypass:
      return "Bypass";
  }
  throw std::invalid_argument("admission_mode_name: unknown mode");
}

IntelligentCache::IntelligentCache(const Trace& trace)
    : trace_(&trace), oracle_(compute_next_access(trace)) {}

double IntelligentCache::estimate_hit_rate(
    std::uint64_t capacity_bytes) const {
  {
    const std::lock_guard lock(hit_rate_mutex_);
    const auto cached = hit_rate_cache_.find(capacity_bytes);
    if (cached != hit_rate_cache_.end()) return cached->second;
  }
  // Integer chunk counts: the same double for every pool size.
  ThreadPool pool;
  const std::uint64_t n = trace_->requests.size();
  const double h =
      n == 0 ? 0.0
             : static_cast<double>(
                   lru_hit_count(*trace_, oracle_, capacity_bytes, pool)) /
                   static_cast<double>(n);
  const std::lock_guard lock(hit_rate_mutex_);
  hit_rate_cache_.emplace(capacity_bytes, h);
  return h;
}

double IntelligentCache::cost_v_for(std::uint64_t capacity_bytes,
                                    const OtaConfig& ota) const {
  const double footprint = oracle_.total_object_bytes;
  if (footprint <= 0.0) return ota.cost_v_small;
  const double fraction = static_cast<double>(capacity_bytes) / footprint;
  return fraction <= ota.cost_switch_capacity_fraction ? ota.cost_v_small
                                                       : ota.cost_v_large;
}

void IntelligentCache::fill_criteria(const RunConfig& config,
                                     RunResult& result) const {
  if (!classifies(config.mode)) return;
  const double h = config.hit_rate_estimate
                       ? *config.hit_rate_estimate
                       : estimate_hit_rate(config.capacity_bytes);
  result.criteria = compute_criteria(*trace_, oracle_, config.capacity_bytes,
                                     h, config.ota.criteria_iterations);
  if (config.policy == PolicyKind::lirs) {
    // §5.2: the LIRS stack only shields its LIR share, so the criteria
    // threshold shrinks by R_s.
    result.criteria.m =
        lirs_criteria(result.criteria.m, config.lirs_lir_fraction);
  }
  result.cost_v = cost_v_for(config.capacity_bytes, config.ota);
}

double IntelligentCache::mean_latency_us(const RunConfig& config,
                                         double hit_rate) {
  const LatencyModel latency{config.latency};
  return classifies(config.mode)
             ? latency.mean_access_time_proposed_us(hit_rate)
             : latency.mean_access_time_original_us(hit_rate);
}

RunResult IntelligentCache::run(const RunConfig& config) const {
  RunConfig one = config;
  one.shards = 1;
  ShardEngine engine{*this, one};
  return std::move(engine.replay(1));
}

}  // namespace otac
