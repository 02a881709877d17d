// Exportable view of one run: per-shard and merged metric snapshots, the
// barrier-time series, and derived summary figures, serializable as pretty
// JSON (machine-diffable, golden-testable) and as Prometheus text
// exposition format (scrapeable).
//
// Snapshots are taken only at deterministic points (retrain barriers, end
// of run), so every counter and histogram bucket in a report is a pure
// function of (trace, config, partition) — with the single documented
// exception of wall-clock duration histograms (names ending in
// "_seconds"), which report real elapsed time and therefore vary run to
// run. The golden test pins everything else exactly and only checks
// structural invariants for the timing metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace otac::obs {

/// One barrier snapshot: the merged registry state after all shards
/// finished requests <= request_index (cumulative, not per-interval).
struct BarrierSample {
  std::uint64_t request_index = 0;
  std::int64_t sim_seconds = 0;  ///< simulated time of the barrier request
  MetricsSnapshot merged;

  friend bool operator==(const BarrierSample&, const BarrierSample&) = default;
};

struct RunReport {
  // Run metadata, filled by whoever owns the run loop.
  std::string source;  ///< emitting binary ("otac_sim", "daily_operations")
  std::string mode;    ///< admission mode name, empty when not applicable
  std::string policy;  ///< replacement policy name
  std::size_t shards = 0;
  std::size_t threads = 0;

  MetricsSnapshot merged;
  std::vector<MetricsSnapshot> per_shard;  ///< shard order
  std::vector<BarrierSample> timeline;     ///< barrier order; last = end of run

  /// Non-additive summary figures (hit rates, Eq. 3 mean latency) computed
  /// from the merged totals at report-build time.
  std::map<std::string, double> derived;

  /// Latency quantiles exported for every histogram (p50/p90/p99/p999).
  static const std::vector<double>& quantiles();

  /// Pretty-printed JSON document (stable key order: std::map iteration).
  [[nodiscard]] std::string to_json() const;

  /// Prometheus text exposition format: counters/gauges/histograms with a
  /// `shard` label ("all" for the merged view, "0".."N-1" per shard), plus
  /// `_p50`-style gauges for histogram quantiles (Prometheus histograms
  /// carry no server-computed percentiles; the gauges make the acceptance
  /// numbers scrapeable directly).
  [[nodiscard]] std::string to_prometheus() const;

  friend bool operator==(const RunReport&, const RunReport&) = default;
};

/// "latency.request_us" -> "otac_latency_request_us": Prometheus metric
/// names allow [a-zA-Z0-9_:] only.
[[nodiscard]] std::string prometheus_name(std::string_view name);

/// Minimal JSON string escaping (quotes, backslashes, control chars).
[[nodiscard]] std::string json_escape(std::string_view text);

/// "metrics.json" -> "metrics.prom"; paths without an extension get
/// ".prom" appended (dots inside directory names are not extensions).
[[nodiscard]] std::string prometheus_path_of(const std::string& json_path);

/// Writes `report.to_json()` to `json_path` and `report.to_prometheus()`
/// to `prometheus_path_of(json_path)`. Returns an empty string on success
/// and the path that failed to open otherwise.
[[nodiscard]] std::string write_report_files(const RunReport& report,
                                             const std::string& json_path);

}  // namespace otac::obs
