// otac_sim: command-line driver for the whole system. Simulate a synthetic
// or imported (CSV) trace through any replacement policy and admission
// mode; optionally export the trace or the trained model.
//
// Examples:
//   otac_sim --policy lirs --mode proposal --capacity-frac 0.02
//   otac_sim --photos 200000 --days 9 --mode ideal --paper-gb 10
//   otac_sim --import mylog.csv --policy lru --mode proposal
//   otac_sim --export trace.csv --photos 50000
//   otac_sim --shards 8 --threads 8 --mode proposal
#include <fstream>
#include <iostream>

#include "core/intelligent_cache.h"
#include "core/sharded_cache.h"
#include "experiments/workloads.h"
#include "trace/trace_generator.h"
#include "trace/trace_io.h"
#include "trace/trace_stats.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

using namespace otac;

AdmissionMode parse_mode(const std::string& name) {
  if (name == "original") return AdmissionMode::original;
  if (name == "proposal") return AdmissionMode::proposal;
  if (name == "ideal") return AdmissionMode::ideal;
  if (name == "bypass") return AdmissionMode::bypass;
  throw std::invalid_argument(
      "unknown --mode '" + name + "' (original|proposal|ideal|bypass)");
}

int write_metrics_files(const obs::RunReport& report,
                        const std::string& json_path) {
  const std::string failed = obs::write_report_files(report, json_path);
  if (!failed.empty()) {
    std::cerr << "cannot open " << failed << "\n";
    return 1;
  }
  std::cout << "metrics: " << json_path << " + "
            << obs::prometheus_path_of(json_path) << "\n";
  return 0;
}

int run(const FlagParser& flags) {
  if (flags.has("help")) {
    std::cout
        << "usage: otac_sim [flags]\n"
           "  --import FILE        replay a request CSV instead of synthesizing\n"
           "  --photos N           synthetic photo count (default 100000)\n"
           "  --owners N           synthetic owner count (default photos/20)\n"
           "  --days D             trace horizon in days (default 9)\n"
           "  --seed S             RNG seed (default 42)\n"
           "  --policy P           lru|fifo|s3lru|arc|lirs|lfu|belady (lru)\n"
           "  --mode M             original|proposal|ideal|bypass (proposal)\n"
           "  --capacity-frac F    cache size as fraction of dataset (0.015)\n"
           "  --paper-gb G         ...or as the paper's 2-20 GB axis value\n"
           "  --shards N           partition photos across N shards (1)\n"
           "  --threads T          worker threads for the sharded replay\n"
           "                       (default: one per shard, capped by cores)\n"
           "  --export FILE        write the trace as CSV and exit\n"
           "  --stats              print trace characterization first\n"
           "  --metrics-out FILE   write the run report as pretty JSON to\n"
           "                       FILE and Prometheus text exposition to\n"
           "                       the matching .prom path; routes through\n"
           "                       the sharded layer (even --shards 1) so\n"
           "                       the report carries the per-barrier\n"
           "                       time-series\n";
    return 0;
  }

  Trace trace;
  if (flags.has("import")) {
    std::ifstream in(flags.get("import", std::string{}));
    if (!in) {
      std::cerr << "cannot open " << flags.get("import", std::string{})
                << "\n";
      return 1;
    }
    trace = import_requests_csv(in);
  } else {
    WorkloadConfig workload;
    workload.num_photos = static_cast<std::uint32_t>(
        flags.get("photos", static_cast<std::int64_t>(100'000)));
    workload.num_owners = static_cast<std::uint32_t>(flags.get(
        "owners", static_cast<std::int64_t>(workload.num_photos / 20 + 1)));
    workload.horizon_days = flags.get("days", 9.0);
    workload.seed =
        static_cast<std::uint64_t>(flags.get("seed", std::int64_t{42}));
    trace = TraceGenerator{workload}.generate();
  }
  std::cout << "trace: " << trace.requests.size() << " requests, "
            << trace.catalog.photo_count() << " objects\n";

  if (flags.has("export")) {
    std::ofstream out(flags.get("export", std::string{}));
    if (!out) {
      std::cerr << "cannot open export path\n";
      return 1;
    }
    export_requests_csv(trace, out);
    std::cout << "exported to " << flags.get("export", std::string{}) << "\n";
    return 0;
  }

  if (flags.get("stats", false)) {
    const TraceStats stats = compute_trace_stats(trace);
    std::cout << "one-time objects: "
              << TablePrinter::pct(stats.one_time_object_fraction())
              << ", hit-rate cap: " << TablePrinter::pct(stats.hit_rate_cap())
              << ", mean size: "
              << TablePrinter::fmt(stats.mean_request_size_bytes / 1024.0, 1)
              << " KB\n";
  }

  const IntelligentCache system{trace};
  RunConfig config;
  config.policy = policy_kind_from_name(flags.get("policy", std::string{"lru"}));
  config.mode = parse_mode(flags.get("mode", std::string{"proposal"}));
  config.shards = static_cast<std::size_t>(
      flags.get("shards", std::int64_t{1}));
  config.threads = static_cast<std::size_t>(
      flags.get("threads", std::int64_t{0}));
  if (flags.has("paper-gb")) {
    config.capacity_bytes =
        map_paper_gb(flags.get("paper-gb", 10.0), system.total_object_bytes());
  } else {
    config.capacity_bytes = static_cast<std::uint64_t>(
        system.total_object_bytes() * flags.get("capacity-frac", 0.015));
  }
  std::cout << "cache: " << policy_name(config.policy) << " "
            << config.capacity_bytes / (1024 * 1024) << " MiB, mode "
            << admission_mode_name(config.mode);
  if (config.shards > 1) {
    std::cout << ", " << config.shards << " shards";
  }
  std::cout << "\n";

  const RunResult result = ShardedCache{system}.run(config);
  if (flags.has("metrics-out")) {
    obs::RunReport report = result.obs;
    report.source = "otac_sim";
    const int status =
        write_metrics_files(report, flags.get("metrics-out", std::string{}));
    if (status != 0) return status;
  }
  TablePrinter table{{"metric", "value"}};
  table.add_row({"file hit rate",
                 TablePrinter::fmt(result.stats.file_hit_rate(), 4)});
  table.add_row({"byte hit rate",
                 TablePrinter::fmt(result.stats.byte_hit_rate(), 4)});
  table.add_row({"SSD writes (files)", std::to_string(result.stats.insertions)});
  table.add_row({"SSD writes (GB)",
                 TablePrinter::fmt(result.stats.inserted_bytes / 1e9, 3)});
  table.add_row({"rejected misses", std::to_string(result.stats.rejected)});
  table.add_row({"mean latency (us)",
                 TablePrinter::fmt(result.mean_latency_us, 1)});
  if (config.mode == AdmissionMode::proposal ||
      config.mode == AdmissionMode::ideal) {
    table.add_row({"criteria M", TablePrinter::fmt(result.criteria.m, 0)});
  }
  if (config.mode == AdmissionMode::proposal) {
    table.add_row({"daily trainings", std::to_string(result.trainings)});
    table.add_row({"history table", std::to_string(result.history_capacity)});
  }
  std::cout << table.to_string();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(FlagParser{argc, argv});
  } catch (const std::exception& error) {
    std::cerr << "otac_sim: " << error.what() << "\n";
    return 1;
  }
}
