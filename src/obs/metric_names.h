// Central registry of every metric name the serving stack records. A
// string literal passed to MetricsRegistry::counter / gauge / histogram /
// set / set_gauge anywhere in src/, bench/, or examples/ must appear in
// this table: `tools/otac_lint` (rule `metric-registry`) cross-checks the
// call sites. Keeping the names in one sorted table is what makes report
// diffs reviewable and prevents near-duplicate names ("cache.hit" vs
// "cache.hits") from drifting into dashboards.
//
// Names with the "_seconds" suffix are wall-clock timing histograms — the
// one non-deterministic family in a RunReport (see core/run_metrics.h).
//
// The registry class itself stays generic (tests bind ad-hoc names); this
// table governs production call sites, not the obs library.
//
// To add a metric: add the name here (keep each list sorted), then bind it
// at the call site. RunReport::derived keys (file_hit_rate, ...) are not
// registry metrics and are not listed.
#pragma once

#include <string_view>

namespace otac::obs {

inline constexpr std::string_view kKnownCounters[] = {
    "cache.evictions",
    "cache.hits",
    "cache.insertions",
    "cache.misses",
    "cache.rejected",
    "cache.requests",
    "checkpoint.load_retries",
    "checkpoint.loads_cold",
    "checkpoint.loads_current",
    "checkpoint.loads_previous",
    "checkpoint.read_only_skips",
    "checkpoint.rejected_files",
    "checkpoint.save_failures",
    "checkpoint.save_retries",
    "checkpoint.saves",
    "daemon.connections",
    "daemon.frames_received",
    "daemon.frames_sent",
    "daemon.get_requests",
    "daemon.protocol_errors",
    "daemon.put_requests",
    "daemon.retry_replies",
    "daemon.shed_replies",
    "degradation.degraded_admits",
    "degradation.nonfinite_feature_requests",
    "degradation.overload_transitions",
    "degradation.predict_failures",
    "degradation.rejected_models",
    "degradation.retrain_failures",
    "degradation.retrain_retries",
    "degradation.retrain_timeouts",
    "degradation.shed_requests",
    "degradation.ssd_write_drops",
    "degradation.ssd_write_retries",
    "history.rectified",
    "serving.history_recorded",
    "serving.no_model_admits",
    "serving.predict_one_time",
    "serving.predict_reuse",
    "serving.rectified",
    "trainer.compiled_tree_swaps",
    "trainer.fit_skipped",
    "trainer.fits",
    "trainer.models_published",
    "trainer.samples_drained",
    "trainer.trainings",
};

inline constexpr std::string_view kKnownGauges[] = {
    "cache.evicted_bytes",
    "cache.hit_bytes",
    "cache.inserted_bytes",
    "cache.rejected_bytes",
    "cache.request_bytes",
    "history.capacity",
    "history.size",
};

inline constexpr std::string_view kKnownHistograms[] = {
    "checkpoint.load_seconds",
    "checkpoint.save_seconds",
    "daemon.batch_gather_size",
    "latency.request_us",   // core/run_metrics.h kLatencyHistogramName
    "serving.admission_batch_size",  // kAdmissionBatchHistogramName
    "trainer.fit_seconds",  // core/run_metrics.h kFitHistogramName
    "trainer.publish_wait_seconds",  // kPublishWaitHistogramName
};

[[nodiscard]] constexpr bool is_known_metric(std::string_view name) {
  for (const std::string_view known : kKnownCounters) {
    if (name == known) return true;
  }
  for (const std::string_view known : kKnownGauges) {
    if (name == known) return true;
  }
  for (const std::string_view known : kKnownHistograms) {
    if (name == known) return true;
  }
  return false;
}

}  // namespace otac::obs
