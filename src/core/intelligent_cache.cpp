#include "core/intelligent_cache.h"

#include <stdexcept>

#include "cachesim/lru_estimate.h"
#include "cachesim/simulator.h"
#include "core/run_metrics.h"
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
  if (config.capacity_bytes == 0) {
    throw std::invalid_argument("IntelligentCache: zero capacity");
  }
  RunResult result;
  const auto policy = make_policy(config.policy, config.capacity_bytes,
                                  config.lirs_lir_fraction);
  Simulator sim{*trace_};
  sim.set_oracle(oracle_);

  // Observability: one registry for the whole (single-stream) run. The
  // latency recorder resolves its two bucket indices up front, so the
  // per-request cost in the simulator loop is a single bucket increment.
  const LatencyModel latency{config.latency};
  const bool classified_path = classifies(config.mode);
  obs::MetricsRegistry registry;
  obs::LatencyRecorder recorder{
      registry.histogram(kLatencyHistogramName,
                         LatencyModel::histogram_bounds_us()),
      latency.request_latency_us(true, classified_path),
      latency.request_latency_us(false, classified_path)};
  sim.set_latency_recorder(&recorder);

  fill_criteria(config, result);

  switch (config.mode) {
    case AdmissionMode::original: {
      AlwaysAdmit admission;
      result.stats = sim.run(*policy, admission);
      break;
    }
    case AdmissionMode::bypass: {
      NeverAdmit admission;
      result.stats = sim.run(*policy, admission);
      break;
    }
    case AdmissionMode::ideal: {
      OracleAdmission admission{oracle_, result.criteria.m};
      result.stats = sim.run(*policy, admission);
      break;
    }
    case AdmissionMode::proposal: {
      ClassifierSystemConfig cs;
      cs.ota = config.ota;
      cs.m = result.criteria.m;
      cs.h = result.criteria.h;
      cs.p = result.criteria.p;
      cs.cost_v = result.cost_v;
      ClassifierSystem admission{*trace_, oracle_, cs};
      admission.bind_metrics(registry);
      result.history_capacity = admission.history().capacity();
      result.stats = sim.run(*policy, admission);
      result.daily = admission.daily_metrics();
      result.trainings = admission.trainings();
      result.degradation = admission.degradation();
      registry.set("trainer.trainings",
                   static_cast<std::uint64_t>(result.trainings));
      populate_history_metrics(registry, admission.history());
      populate_degradation_metrics(registry, result.degradation);
      break;
    }
  }

  result.mean_latency_us =
      mean_latency_us(config, result.stats.file_hit_rate());

  // Final (end-of-run) snapshot: the unsharded path is one shard by
  // definition, so per_shard mirrors merged and the timeline has a single
  // end-of-trace sample (ShardedCache adds one per retrain barrier).
  populate_cache_metrics(registry, result.stats);
  result.obs.mode = admission_mode_name(config.mode);
  result.obs.policy = policy_name(config.policy);
  result.obs.shards = 1;
  result.obs.threads = 1;
  result.obs.merged = registry.snapshot();
  result.obs.per_shard.push_back(result.obs.merged);
  if (!trace_->requests.empty()) {
    result.obs.timeline.push_back(
        obs::BarrierSample{trace_->requests.size() - 1,
                           trace_->requests.back().time.seconds,
                           result.obs.merged});
  }
  result.obs.derived =
      derived_run_metrics(result.stats, result.mean_latency_us);
  return result;
}

}  // namespace otac
