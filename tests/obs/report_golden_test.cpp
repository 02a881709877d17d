// Golden pins for the run-report serializers plus end-to-end report
// invariants on a seeded 1-shard run.
//
// The serializer goldens use handcrafted snapshots (no wall clock
// anywhere), so they pin the exact bytes of the JSON schema and the
// Prometheus exposition grammar. The end-to-end test then checks the
// deterministic half of a real run's report — everything except the
// "_seconds" wall-clock histograms — is reproducible run to run and
// consistent with the RunResult it rode along with.
#include "obs/report.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/intelligent_cache.h"
#include "core/sharded_cache.h"
#include "trace/trace_generator.h"

namespace otac {
namespace {

using obs::BarrierSample;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::RunReport;

// ---------------------------------------------------------------------------
// Serializer goldens (handcrafted, fully deterministic).

MetricsSnapshot small_snapshot() {
  MetricsRegistry registry;
  *registry.counter("requests") = 4;
  *registry.gauge("bytes") = 2.5;
  return registry.snapshot();
}

TEST(ReportGolden, JsonBytesArePinned) {
  RunReport report;
  report.source = "test";
  report.mode = "Proposal";
  report.policy = "LRU";
  report.shards = 1;
  report.threads = 1;
  report.derived["hit_rate"] = 0.5;
  report.merged = small_snapshot();
  report.per_shard.push_back(report.merged);
  report.timeline.push_back(BarrierSample{3, 86400, report.merged});

  const std::string expected = R"({
  "source": "test",
  "mode": "Proposal",
  "policy": "LRU",
  "shards": 1,
  "threads": 1,
  "derived": {
    "hit_rate": 0.5
  },
  "merged": {
    "counters": {
      "requests": 4
    },
    "gauges": {
      "bytes": 2.5
    },
    "histograms": {}
  },
  "per_shard": [
    {
      "counters": {
        "requests": 4
      },
      "gauges": {
        "bytes": 2.5
      },
      "histograms": {}
    }
  ],
  "timeline": [
    {
      "request_index": 3,
      "sim_seconds": 86400,
      "metrics": {
        "counters": {
          "requests": 4
        },
        "gauges": {
          "bytes": 2.5
        },
        "histograms": {}
      }
    }
  ]
}
)";
  EXPECT_EQ(report.to_json(), expected);
}

// Histogram golden: all mass in the overflow bucket makes every quantile
// exactly the last finite bound, so the numbers are pinnable byte for byte.
TEST(ReportGolden, HistogramJsonAndPrometheusArePinned) {
  RunReport report;
  report.source = "test";
  report.mode = "Proposal";
  report.policy = "LRU";
  report.shards = 1;
  report.threads = 1;
  report.derived["hit_rate"] = 0.5;
  MetricsRegistry registry;
  *registry.counter("requests") = 4;
  *registry.gauge("bytes") = 2.5;
  registry.histogram("lat", {1.0, 10.0})->add(100.0, 4);
  report.merged = registry.snapshot();

  const std::string expected_json = R"({
  "source": "test",
  "mode": "Proposal",
  "policy": "LRU",
  "shards": 1,
  "threads": 1,
  "derived": {
    "hit_rate": 0.5
  },
  "merged": {
    "counters": {
      "requests": 4
    },
    "gauges": {
      "bytes": 2.5
    },
    "histograms": {
      "lat": {
        "upper_bounds": [1, 10],
        "counts": [0, 0, 4],
        "count": 4,
        "sum": 400,
        "p50": 10,
        "p90": 10,
        "p99": 10,
        "p999": 10
      }
    }
  },
  "per_shard": [],
  "timeline": []
}
)";
  EXPECT_EQ(report.to_json(), expected_json);

  const std::string expected_prom =
      R"(# otacache run report: source=test mode=Proposal policy=LRU shards=1 threads=1
# TYPE otac_requests counter
otac_requests{shard="all"} 4
# TYPE otac_bytes gauge
otac_bytes{shard="all"} 2.5
# TYPE otac_lat histogram
otac_lat_bucket{shard="all",le="1"} 0
otac_lat_bucket{shard="all",le="10"} 0
otac_lat_bucket{shard="all",le="+Inf"} 4
otac_lat_sum{shard="all"} 400
otac_lat_count{shard="all"} 4
# TYPE otac_lat_p50 gauge
otac_lat_p50{shard="all"} 10
# TYPE otac_lat_p90 gauge
otac_lat_p90{shard="all"} 10
# TYPE otac_lat_p99 gauge
otac_lat_p99{shard="all"} 10
# TYPE otac_lat_p999 gauge
otac_lat_p999{shard="all"} 10
# TYPE otac_derived_hit_rate gauge
otac_derived_hit_rate{shard="all"} 0.5
)";
  EXPECT_EQ(report.to_prometheus(), expected_prom);
}

TEST(ReportGolden, PrometheusNameSanitization) {
  EXPECT_EQ(obs::prometheus_name("latency.request_us"),
            "otac_latency_request_us");
  EXPECT_EQ(obs::prometheus_name("a-b c"), "otac_a_b_c");
}

// ---------------------------------------------------------------------------
// End-to-end: seeded 1-shard run.

Trace make_trace() {
  WorkloadConfig workload;
  workload.seed = 7;
  workload.num_photos = 4'000;
  workload.num_owners = 300;
  workload.horizon_days = 3.0;
  return TraceGenerator{workload}.generate();
}

RunConfig proposal_config(const IntelligentCache& system) {
  RunConfig config;
  config.mode = AdmissionMode::proposal;
  config.capacity_bytes =
      static_cast<std::uint64_t>(system.total_object_bytes() * 0.02);
  config.shards = 1;
  config.threads = 1;
  return config;
}

// Wall-clock durations are the one non-deterministic metric family; by
// convention their names end in "_seconds" and they are excluded from all
// determinism pins.
MetricsSnapshot strip_timings(MetricsSnapshot snapshot) {
  for (auto it = snapshot.histograms.begin();
       it != snapshot.histograms.end();) {
    const std::string& name = it->first;
    const bool timing = name.size() >= 8 &&
                        name.compare(name.size() - 8, 8, "_seconds") == 0;
    it = timing ? snapshot.histograms.erase(it) : std::next(it);
  }
  return snapshot;
}

TEST(ReportGolden, SeededRunIsDeterministicModuloTimings) {
  const Trace trace = make_trace();
  const IntelligentCache system{trace};
  const RunConfig config = proposal_config(system);
  const RunResult a = ShardedCache{system}.run(config);
  const RunResult b = ShardedCache{system}.run(config);

  EXPECT_EQ(strip_timings(a.obs.merged), strip_timings(b.obs.merged));
  ASSERT_EQ(a.obs.timeline.size(), b.obs.timeline.size());
  for (std::size_t t = 0; t < a.obs.timeline.size(); ++t) {
    EXPECT_EQ(a.obs.timeline[t].request_index,
              b.obs.timeline[t].request_index);
    EXPECT_EQ(a.obs.timeline[t].sim_seconds, b.obs.timeline[t].sim_seconds);
    EXPECT_EQ(strip_timings(a.obs.timeline[t].merged),
              strip_timings(b.obs.timeline[t].merged));
  }
  EXPECT_EQ(a.obs.derived, b.obs.derived);
}

TEST(ReportGolden, ReportAgreesWithRunResult) {
  const Trace trace = make_trace();
  const IntelligentCache system{trace};
  const RunResult result = ShardedCache{system}.run(proposal_config(system));
  const MetricsSnapshot& merged = result.obs.merged;

  EXPECT_EQ(merged.counters.at("cache.requests"), result.stats.requests);
  EXPECT_EQ(merged.counters.at("cache.hits"), result.stats.hits);
  EXPECT_EQ(merged.counters.at("cache.misses"), result.stats.misses());
  EXPECT_EQ(merged.counters.at("cache.insertions"), result.stats.insertions);
  EXPECT_EQ(merged.counters.at("cache.rejected"), result.stats.rejected);
  EXPECT_EQ(merged.counters.at("cache.hits") +
                merged.counters.at("cache.misses"),
            merged.counters.at("cache.requests"));
  EXPECT_EQ(merged.counters.at("trainer.trainings"),
            static_cast<std::uint64_t>(result.trainings));

  // The latency histogram saw every request, split hit/miss exactly as the
  // replay did. (Under OTAC_OBS_OFF the per-request recorder is compiled
  // out, so the histogram exists but stays empty.)
  const obs::HistogramSnapshot& latency =
      merged.histograms.at("latency.request_us");
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(latency.count(), result.stats.requests);
  } else {
    EXPECT_EQ(latency.count(), 0U);
  }

  EXPECT_DOUBLE_EQ(result.obs.derived.at("file_hit_rate"),
                   result.stats.file_hit_rate());
  EXPECT_DOUBLE_EQ(result.obs.derived.at("mean_latency_us"),
                   result.mean_latency_us);

  // Timeline: barrier order, cumulative, ends at the last request.
  ASSERT_FALSE(result.obs.timeline.empty());
  for (std::size_t t = 1; t < result.obs.timeline.size(); ++t) {
    EXPECT_GT(result.obs.timeline[t].request_index,
              result.obs.timeline[t - 1].request_index);
    EXPECT_LE(result.obs.timeline[t - 1]
                  .merged.counters.at("cache.requests"),
              result.obs.timeline[t].merged.counters.at("cache.requests"));
  }
  EXPECT_EQ(result.obs.timeline.back().request_index,
            trace.requests.size() - 1);
  EXPECT_EQ(result.obs.timeline.back().merged.counters.at("cache.requests"),
            result.stats.requests);

  EXPECT_EQ(result.obs.shards, 1U);
  ASSERT_EQ(result.obs.per_shard.size(), 1U);
  EXPECT_EQ(strip_timings(result.obs.per_shard[0]).counters.at(
                "cache.requests"),
            result.stats.requests);
}

TEST(ReportGolden, RealRunJsonSchemaAndPrometheusGrammar) {
  const Trace trace = make_trace();
  const IntelligentCache system{trace};
  RunResult result = ShardedCache{system}.run(proposal_config(system));
  result.obs.source = "test";
  const std::string json = result.obs.to_json();

  // Top-level key order is part of the schema (std::map + explicit emit
  // order) — downstream diff tooling depends on it.
  std::size_t pos = 0;
  for (const char* key :
       {"\"source\":", "\"mode\":", "\"policy\":", "\"shards\":",
        "\"threads\":", "\"derived\":", "\"merged\":", "\"per_shard\":",
        "\"timeline\":"}) {
    const std::size_t found = json.find(key, pos);
    ASSERT_NE(found, std::string::npos) << key;
    pos = found;
  }
  EXPECT_NE(json.find("\"latency.request_us\""), std::string::npos);
  EXPECT_NE(json.find("\"upper_bounds\":"), std::string::npos);
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);

  // Prometheus text exposition: every line is a comment or a
  // name{shard="..."} value sample.
  const std::string prom = result.obs.to_prometheus();
  std::istringstream lines{prom};
  std::string line;
  std::size_t samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_EQ(line.rfind("otac_", 0), 0U) << line;
    EXPECT_NE(line.find("{shard=\""), std::string::npos) << line;
    EXPECT_NE(line.find("} "), std::string::npos) << line;
    ++samples;
  }
  EXPECT_GT(samples, 20U);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(prom.find("otac_latency_request_us_p99{shard=\"all\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace otac
