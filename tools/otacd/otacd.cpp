// otacd: the network serving daemon CLI. Loads the seeded bench trace
// (the same one every bench binary and the load generator use), wraps it
// in an IntelligentCache, and serves it over the net/protocol.h wire
// format until a client sends SHUTDOWN (or SIGTERM-equivalent stop).
//
// The CI smoke handshake: start with --port 0 --port-file PATH, and the
// daemon writes the kernel-assigned port to PATH after binding; the load
// generator polls for that file instead of racing the bind.
//
// Examples:
//   otacd --port-file /tmp/otacd.port --seed 42 --scale 0.02 --shards 4
//   otacd --port 7433 --mode proposal --paper-gb 8 --overload
//         --watchdog-timeout 0.5 --metrics-out daemon_report.json
#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/intelligent_cache.h"
#include "experiments/workloads.h"
#include "net/daemon.h"
#include "obs/report.h"
#include "util/flags.h"

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

int run(const FlagParser& flags) {
  if (flags.has("help")) {
    std::cout
        << "usage: otacd [flags]\n"
           "  --host H             bind address (default 127.0.0.1)\n"
           "  --port P             TCP port; 0 = kernel-assigned (default)\n"
           "  --port-file FILE     write the bound port to FILE after bind\n"
           "  --seed S             bench-trace seed (default 42)\n"
           "  --scale F            bench-trace scale (default 0.05)\n"
           "  --policy P           lru|fifo|s3lru|arc|lirs|lfu|belady (lru)\n"
           "  --mode M             original|proposal|ideal|bypass (proposal)\n"
           "  --capacity-frac F    cache size as fraction of dataset (0.015)\n"
           "  --paper-gb G         ...or as the paper's 2-20 GB axis value\n"
           "  --shards N           shard count = worker threads (default 4)\n"
           "  --overload           enable the fluid overload ladder\n"
           "  --service-rate R     fluid service rate per second (2000)\n"
           "  --flash-burst W      work units injected at epoch starts (0)\n"
           "  --watchdog-timeout S threaded retrain budget in seconds\n"
           "                       (0 = no timeout: deterministic retrains)\n"
           "  --watchdog-retries N retries of a throwing retrain per\n"
           "                       barrier (0)\n"
           "  --queue-capacity N   inbound frames buffered per shard (1024)\n"
           "  --retry-when-full    reply RETRY instead of blocking the\n"
           "                       connection reader on a full shard queue\n"
           "  --metrics-out FILE   write the final RunReport JSON (+ .prom)\n"
           "                       after shutdown\n";
    return 0;
  }

  const auto seed =
      static_cast<std::uint64_t>(flags.get("seed", std::int64_t{42}));
  const double scale = flags.get("scale", 0.05);
  const Trace trace = load_bench_trace(scale, seed);
  const BenchWorkloadInfo info = describe(trace, scale, seed);
  std::cout << "otacd: trace seed=" << seed << " scale=" << scale << " ("
            << info.requests << " requests, " << info.photos << " photos)\n";

  const IntelligentCache system{trace};

  net::DaemonConfig config;
  config.run.policy =
      policy_kind_from_name(flags.get("policy", std::string{"lru"}));
  config.run.mode = parse_mode(flags.get("mode", std::string{"proposal"}));
  if (flags.has("paper-gb")) {
    config.run.capacity_bytes =
        map_paper_gb(flags.get("paper-gb", 8.0), info.total_object_bytes);
  } else {
    config.run.capacity_bytes = static_cast<std::uint64_t>(
        flags.get("capacity-frac", 0.015) * info.total_object_bytes);
  }
  config.run.shards =
      static_cast<std::uint32_t>(flags.get("shards", std::int64_t{4}));
  config.run.resilience.overload.enabled = flags.get("overload", false);
  config.run.resilience.overload.service_rate_per_s =
      flags.get("service-rate", 2000.0);
  config.run.resilience.overload.flash_crowd_burst =
      flags.get("flash-burst", 0.0);
  config.run.resilience.watchdog.timeout_s = flags.get("watchdog-timeout", 0.0);
  config.run.resilience.watchdog.backoff.max_retries = static_cast<int>(
      flags.get("watchdog-retries", std::int64_t{0}));
  config.run.resilience.watchdog.backoff_seed = seed;
  config.host = flags.get("host", std::string{"127.0.0.1"});
  config.port =
      static_cast<std::uint16_t>(flags.get("port", std::int64_t{0}));
  config.queue_capacity = static_cast<std::size_t>(
      flags.get("queue-capacity", std::int64_t{1024}));
  config.retry_when_full = flags.get("retry-when-full", false);

  net::Daemon daemon{system, config};
  daemon.start();
  std::cout << "otacd: listening on " << config.host << ":" << daemon.port()
            << " (" << admission_mode_name(config.run.mode) << "/"
            << policy_name(config.run.policy) << ", shards "
            << config.run.shards << ")\n"
            << std::flush;

  const std::string port_file = flags.get("port-file", std::string{});
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    if (!out) {
      std::cerr << "otacd: cannot open --port-file " << port_file << "\n";
      return 1;
    }
    out << daemon.port() << "\n";
  }

  daemon.wait_for_shutdown();
  daemon.stop();

  const RunResult& result = daemon.result();
  const net::DaemonWireStats wire = daemon.wire_stats();
  std::cout << "otacd: served " << result.stats.requests << " requests ("
            << wire.connections << " connections, " << wire.frames_received
            << " frames in / " << wire.frames_sent << " out, "
            << wire.protocol_errors << " protocol errors)\n"
            << "otacd: hit rate "
            << (result.stats.requests > 0
                    ? static_cast<double>(result.stats.hits) /
                          static_cast<double>(result.stats.requests)
                    : 0.0)
            << ", shed " << result.degradation.shed_requests
            << ", eviction hash 0x" << std::hex
            << result.stats.eviction_hash << std::dec << "\n";
  // The retrain cost and the part of it the serving path still waited
  // for (the publish wait exists only with a publish lag).
  const auto& histograms = result.obs.merged.histograms;
  for (const char* name :
       {"trainer.fit_seconds", "trainer.publish_wait_seconds"}) {
    if (const auto it = histograms.find(name); it != histograms.end()) {
      std::cout << "otacd: " << name << " count " << it->second.count()
                << " sum " << it->second.sum << " p99 "
                << it->second.quantile(0.99) << "\n";
    }
  }

  const std::string metrics_out = flags.get("metrics-out", std::string{});
  if (!metrics_out.empty()) {
    const std::string failed = obs::write_report_files(result.obs, metrics_out);
    if (!failed.empty()) {
      std::cerr << "otacd: cannot open " << failed << "\n";
      return 1;
    }
    std::cout << "otacd: metrics " << metrics_out << " + "
              << obs::prometheus_path_of(metrics_out) << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(otac::FlagParser{argc, argv});
  } catch (const std::exception& error) {
    std::cerr << "otacd: " << error.what() << "\n";
    return 1;
  }
}
