// Bridge between the serving stack's native accounting structs
// (CacheStats, DegradationCounters, HistoryTable) and the obs registry:
// canonical metric names, the shared histogram grids, and the
// snapshot-time population helpers every run loop calls at its barriers.
//
// Population *assigns* cumulative totals (MetricsRegistry::set) rather
// than incrementing, so calling it at every retrain barrier — as the
// sharded replay does to build its time-series — stays idempotent, and
// nothing is double-counted on the hot path: the only per-request
// instrumentation in the system is the latency recorder and the
// ServingCore admission counters.
#pragma once

#include <map>
#include <string>

#include "cachesim/cache_stats.h"
#include "core/history_table.h"
#include "core/serving_core.h"
#include "obs/metrics.h"

namespace otac {

/// Per-request simulated latency histogram (microseconds).
inline constexpr std::string_view kLatencyHistogramName =
    "latency.request_us";
/// Wall-clock CART fit durations (seconds). Timing metrics carry the
/// "_seconds" suffix by convention: they are the one non-deterministic
/// family in a report, and tooling (the golden test, diff scripts) filters
/// on that suffix.
inline constexpr std::string_view kFitHistogramName = "trainer.fit_seconds";
/// With a publish lag: seconds each publish point blocked on its fit.
inline constexpr std::string_view kPublishWaitHistogramName =
    "trainer.publish_wait_seconds";
/// Per-shard admission micro-batch sizes (requests per batched classify;
/// deterministic — batch boundaries are a pure function of the trace and
/// the retrain schedule).
inline constexpr std::string_view kAdmissionBatchHistogramName =
    "serving.admission_batch_size";

/// Wall-clock duration grid (seconds): 1 ms .. 60 s in a 1-2-5 ladder.
[[nodiscard]] std::vector<double> duration_histogram_bounds_s();

/// The publish-wait grid (seconds): 10 us .. 1 s in a 1-2-5 ladder. A
/// lagged publish usually waits tens of microseconds, below the duration
/// grid's first bucket.
[[nodiscard]] std::vector<double> publish_wait_histogram_bounds_s();

/// Power-of-two grid for admission batch sizes: 1, 2, 4, ... up to
/// ServingCore::kAdmissionBatchCapacity.
[[nodiscard]] std::vector<double> admission_batch_histogram_bounds();

/// Cumulative cache counters/gauges from a CacheStats (cache.* namespace).
void populate_cache_metrics(obs::MetricsRegistry& registry,
                            const CacheStats& stats);

/// Serving-path degradation counters (degradation.* namespace).
void populate_degradation_metrics(obs::MetricsRegistry& registry,
                                  const DegradationCounters& degradation);

/// History-table occupancy and rectification telemetry (history.*).
void populate_history_metrics(obs::MetricsRegistry& registry,
                              const HistoryTable& history);

/// Non-additive summary figures for RunReport::derived.
[[nodiscard]] std::map<std::string, double> derived_run_metrics(
    const CacheStats& stats, double mean_latency_us);

}  // namespace otac
