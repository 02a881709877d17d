#include "core/run_metrics.h"

namespace otac {

std::vector<double> duration_histogram_bounds_s() {
  return {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1,
          0.2,   0.5,   1.0,   2.0,  5.0,  10.0, 60.0};
}

std::vector<double> publish_wait_histogram_bounds_s() {
  return {1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 0.001, 0.002, 0.005,
          0.01, 0.02, 0.05, 0.1,  0.2,  0.5,  1.0};
}

std::vector<double> admission_batch_histogram_bounds() {
  return {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0};
}

void populate_cache_metrics(obs::MetricsRegistry& registry,
                            const CacheStats& stats) {
  registry.set("cache.requests", stats.requests);
  registry.set("cache.hits", stats.hits);
  registry.set("cache.misses", stats.misses());
  registry.set("cache.insertions", stats.insertions);
  registry.set("cache.evictions", stats.evictions);
  registry.set("cache.rejected", stats.rejected);
  registry.set_gauge("cache.request_bytes", stats.request_bytes);
  registry.set_gauge("cache.hit_bytes", stats.hit_bytes);
  registry.set_gauge("cache.inserted_bytes", stats.inserted_bytes);
  registry.set_gauge("cache.evicted_bytes", stats.evicted_bytes);
  registry.set_gauge("cache.rejected_bytes", stats.rejected_bytes);
}

void populate_degradation_metrics(obs::MetricsRegistry& registry,
                                  const DegradationCounters& degradation) {
  registry.set("degradation.retrain_failures", degradation.retrain_failures);
  registry.set("degradation.rejected_models", degradation.rejected_models);
  registry.set("degradation.nonfinite_feature_requests",
               degradation.nonfinite_feature_requests);
  registry.set("degradation.predict_failures", degradation.predict_failures);
  registry.set("degradation.retrain_retries", degradation.retrain_retries);
  registry.set("degradation.retrain_timeouts", degradation.retrain_timeouts);
  registry.set("degradation.degraded_admits", degradation.degraded_admits);
  registry.set("degradation.shed_requests", degradation.shed_requests);
  registry.set("degradation.overload_transitions",
               degradation.overload_transitions);
  registry.set("degradation.ssd_write_retries",
               degradation.ssd_write_retries);
  registry.set("degradation.ssd_write_drops", degradation.ssd_write_drops);
}

void populate_history_metrics(obs::MetricsRegistry& registry,
                              const HistoryTable& history) {
  registry.set("history.rectified", history.rectified_count());
  registry.set_gauge("history.size", static_cast<double>(history.size()));
  registry.set_gauge("history.capacity",
                     static_cast<double>(history.capacity()));
}

std::map<std::string, double> derived_run_metrics(const CacheStats& stats,
                                                  double mean_latency_us) {
  return {
      {"file_hit_rate", stats.file_hit_rate()},
      {"byte_hit_rate", stats.byte_hit_rate()},
      {"file_write_rate", stats.file_write_rate()},
      {"byte_write_rate", stats.byte_write_rate()},
      {"mean_latency_us", mean_latency_us},
  };
}

}  // namespace otac
