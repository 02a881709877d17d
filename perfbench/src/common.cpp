#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "experiments/workloads.h"
#include "trace/trace_generator.h"

namespace otac::bench {

namespace {

constexpr Workload kWorkloads[] = {
    {"proposal", AdmissionMode::proposal},
    {"original", AdmissionMode::original},
};

void print_json_string(const std::string& text) {
  std::putchar('"');
  for (const char c : text) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

void print_json_number(double value) {
  // Non-finite values are not JSON; callers map them before printing.
  std::printf("%.17g", std::isfinite(value) ? value : 0.0);
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return args;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return workload;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Trace make_trace(double scale, std::uint64_t seed) {
  return TraceGenerator{bench_workload_config(scale, seed)}.generate();
}

RunConfig replay_config(const Workload& workload,
                        const IntelligentCache& system) {
  RunConfig config;
  config.policy = PolicyKind::lru;
  config.capacity_bytes = static_cast<std::uint64_t>(
      system.total_object_bytes() * kReplayCapacityFraction);
  config.mode = workload.mode;
  config.shards = kReplayShards;
  config.threads = kReplayThreads;
  return config;
}

net::DaemonConfig wire_config(const IntelligentCache& system) {
  net::DaemonConfig config;
  config.run.policy = PolicyKind::lru;
  config.run.capacity_bytes =
      map_paper_gb(kWirePaperGb, system.total_object_bytes());
  config.run.mode = AdmissionMode::proposal;
  config.run.shards = kWireShards;
  return config;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

std::int64_t sorted_quantile(const std::vector<std::int64_t>& sorted,
                             double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile of no values");
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// (steal, total) jiffies summed over CPUs; zeros when unavailable.
std::pair<std::uint64_t, std::uint64_t> cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label != "cpu") return {0, 0};
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user).
  std::uint64_t fields[8] = {};
  std::uint64_t total = 0;
  for (std::uint64_t& field : fields) {
    if (!(stat >> field)) return {0, 0};
    total += field;
  }
  return {fields[7], total};
}

}  // namespace

StealMeter::StealMeter() { std::tie(steal_, total_) = cpu_ticks(); }

double StealMeter::fraction() const {
  const auto [steal, total] = cpu_ticks();
  if (total <= total_) return 0.0;
  return static_cast<double>(steal - steal_) /
         static_cast<double>(total - total_);
}

void Samples::add(double value, double steal_frac) {
  all_.push_back(value);
  if (steal_frac <= kMaxStealFrac) clean_.push_back(value);
}

double Samples::median() const {
  return bench::median(clean_.empty() ? all_ : clean_);
}

bool phase_done(const Samples& samples, std::size_t min,
                Clock::time_point begin, double budget_s) {
  const double elapsed = seconds_since(begin);
  return (samples.clean() >= min && elapsed >= budget_s) ||
         (samples.size() >= min && elapsed >= 2.5 * budget_s);
}

void print_info(const Info& info) {
  std::printf("info {");
  bool first = true;
  for (const auto& [key, value] : info.strings) {
    std::printf(first ? "" : ", ");
    first = false;
    print_json_string(key);
    std::printf(": ");
    print_json_string(value);
  }
  for (const auto& [key, value] : info.numbers) {
    std::printf(first ? "" : ", ");
    first = false;
    print_json_string(key);
    std::printf(": ");
    print_json_number(value);
  }
  std::printf("}\n");
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("  %-28s %18.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  if (correct) {
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf(i == 0 ? "" : ", ");
      print_json_string(metrics[i].name);
      std::printf(": {\"value\": ");
      print_json_number(metrics[i].value);
      std::printf(", \"unit\": ");
      print_json_string(metrics[i].unit);
      std::printf("}");
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void Checks::expect(bool condition, const std::string& what) {
  if (condition) return;
  ++failures_;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

}  // namespace otac::bench
