// otac_loadgen: open-loop load generator for otacd. Regenerates the same
// seeded bench trace the daemon serves, replays its (compressed) arrival
// process over the wire, and writes BENCH_daemon.json with one client
// cell (offered/achieved rate, reply mix, p50/p99/p999 reply latency) and
// one server cell (the daemon's STATS summary, fetched over the wire).
//
// Examples:
//   otac_loadgen --port-file /tmp/otacd.port --seed 42 --scale 0.02
//                --requests 20000 --offered-rps 40000
//   otac_loadgen --port 7433 --put-every 64 --report-out daemon_obs.json
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench/bench_json.h"
#include "experiments/workloads.h"
#include "net/loadgen.h"
#include "util/flags.h"

namespace {

using namespace otac;

/// The ci.sh handshake: otacd writes its kernel-assigned port to a file
/// after binding; poll for it (bounded) instead of racing the bind.
std::uint16_t port_from_file(const std::string& path) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::ifstream in(path);
    long port = 0;
    if (in >> port && port > 0 && port <= 65535) {
      return static_cast<std::uint16_t>(port);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  throw std::runtime_error("timed out waiting for --port-file " + path);
}

std::string client_cell(const net::LoadgenResult& r) {
  char buffer[640];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"side\": \"client\", \"requests\": %llu, \"puts\": %llu, "
      "\"replies\": %llu, \"hits\": %llu, \"admitted\": %llu, "
      "\"rejected\": %llu, \"shed\": %llu, \"retries\": %llu, "
      "\"degraded\": %llu, \"errors\": %llu, \"wall_seconds\": %.6f, "
      "\"offered_rps\": %.1f, \"achieved_rps\": %.1f, "
      "\"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f}",
      static_cast<unsigned long long>(r.requests),
      static_cast<unsigned long long>(r.puts),
      static_cast<unsigned long long>(r.replies),
      static_cast<unsigned long long>(r.hits),
      static_cast<unsigned long long>(r.admitted),
      static_cast<unsigned long long>(r.rejected),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.retries),
      static_cast<unsigned long long>(r.degraded),
      static_cast<unsigned long long>(r.errors), r.wall_seconds,
      r.offered_rps, r.achieved_rps, r.p50_us, r.p99_us, r.p999_us);
  return buffer;
}

std::string server_cell(const net::SummaryPayload& s) {
  char buffer[640];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"side\": \"server\", \"requests\": %llu, \"hits\": %llu, "
      "\"insertions\": %llu, \"rejected\": %llu, \"evictions\": %llu, "
      "\"shed_requests\": %llu, \"degraded_admits\": %llu, "
      "\"overload_transitions\": %llu, \"retrain_timeouts\": %llu, "
      "\"trainings\": %llu, \"file_hit_rate\": %.6f, "
      "\"byte_hit_rate\": %.6f, \"mean_latency_us\": %.3f, "
      "\"eviction_hash\": \"0x%016llx\"}",
      static_cast<unsigned long long>(s.requests),
      static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.insertions),
      static_cast<unsigned long long>(s.rejected),
      static_cast<unsigned long long>(s.evictions),
      static_cast<unsigned long long>(s.shed_requests),
      static_cast<unsigned long long>(s.degraded_admits),
      static_cast<unsigned long long>(s.overload_transitions),
      static_cast<unsigned long long>(s.retrain_timeouts),
      static_cast<unsigned long long>(s.trainings), s.file_hit_rate,
      s.byte_hit_rate, s.mean_latency_us,
      static_cast<unsigned long long>(s.eviction_hash));
  return buffer;
}

int run(const FlagParser& flags) {
  if (flags.has("help")) {
    std::cout
        << "usage: otac_loadgen [flags]\n"
           "  --host H             daemon address (default 127.0.0.1)\n"
           "  --port P             daemon port\n"
           "  --port-file FILE     ...or poll FILE for the port (otacd\n"
           "                       --port-file handshake)\n"
           "  --seed S             bench-trace seed; must match otacd (42)\n"
           "  --scale F            bench-trace scale; must match otacd (0.05)\n"
           "  --requests N         GET frames to send (0 = whole trace)\n"
           "  --offered-rps R      open-loop offered rate (default 20000)\n"
           "  --put-every K        send a PUT every K-th request (0 = none)\n"
           "  --report-out FILE    also fetch the server RunReport JSON and\n"
           "                       write it to FILE\n"
           "  --out FILE           benchmark report path\n"
           "                       (default BENCH_daemon.json)\n";
    return 0;
  }

  const auto seed =
      static_cast<std::uint64_t>(flags.get("seed", std::int64_t{42}));
  const double scale = flags.get("scale", 0.05);
  const Trace trace = load_bench_trace(scale, seed);

  net::LoadgenConfig config;
  config.host = flags.get("host", std::string{"127.0.0.1"});
  const std::string port_file = flags.get("port-file", std::string{});
  if (!port_file.empty()) {
    config.port = port_from_file(port_file);
  } else {
    config.port =
        static_cast<std::uint16_t>(flags.get("port", std::int64_t{0}));
  }
  if (config.port == 0) {
    throw std::invalid_argument("need --port or --port-file");
  }
  config.requests = static_cast<std::uint64_t>(
      flags.get("requests", std::int64_t{0}));
  config.offered_rps = flags.get("offered-rps", 20000.0);
  config.put_every = static_cast<std::uint64_t>(
      flags.get("put-every", std::int64_t{0}));
  const std::string report_out = flags.get("report-out", std::string{});
  config.fetch_report = !report_out.empty();

  std::cout << "otac_loadgen: " << config.host << ":" << config.port
            << " seed=" << seed << " scale=" << scale << " offered_rps="
            << config.offered_rps << "\n";
  const net::LoadgenResult result = run_loadgen(trace, config);

  std::printf(
      "client: sent=%llu replies=%llu hit=%llu admit=%llu reject=%llu "
      "shed=%llu retry=%llu\n"
      "client: achieved %.0f rps, p50 %.0f us, p99 %.0f us, p999 %.0f us\n"
      "server: requests=%llu hit_rate=%.4f shed=%llu trainings=%llu\n",
      static_cast<unsigned long long>(result.requests),
      static_cast<unsigned long long>(result.replies),
      static_cast<unsigned long long>(result.hits),
      static_cast<unsigned long long>(result.admitted),
      static_cast<unsigned long long>(result.rejected),
      static_cast<unsigned long long>(result.shed),
      static_cast<unsigned long long>(result.retries), result.achieved_rps,
      result.p50_us, result.p99_us, result.p999_us,
      static_cast<unsigned long long>(result.server.requests),
      result.server.file_hit_rate,
      static_cast<unsigned long long>(result.server.shed_requests),
      static_cast<unsigned long long>(result.server.trainings));
  if (result.errors != 0) {
    std::cerr << "otac_loadgen: " << result.errors
              << " errors: " << result.error_text << "\n";
  }

  if (!report_out.empty() && !result.server_report_json.empty()) {
    std::ofstream out(report_out);
    if (!out) {
      std::cerr << "otac_loadgen: cannot open " << report_out << "\n";
      return 1;
    }
    out << result.server_report_json;
    std::cout << "wrote " << report_out << "\n";
  }

  bench::Report report;
  report.bench = "daemon";
  report.reps = 1;
  report.scale = scale;
  report.cells.push_back(client_cell(result));
  report.cells.push_back(server_cell(result.server));
  report.write(flags.get("out", std::string{"BENCH_daemon.json"}));

  return result.errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(otac::FlagParser{argc, argv});
  } catch (const std::exception& error) {
    std::cerr << "otac_loadgen: " << error.what() << "\n";
    return 1;
  }
}
