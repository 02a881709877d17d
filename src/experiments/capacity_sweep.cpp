#include "experiments/capacity_sweep.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "util/thread_pool.h"

#include "util/env_config.h"

namespace otac {

namespace {

int policy_id(PolicyKind kind) { return static_cast<int>(kind); }
int mode_id(AdmissionMode mode) { return static_cast<int>(mode); }

std::uint64_t config_fingerprint(const SweepConfig& config,
                                 const BenchWorkloadInfo& info) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t value) {
    h ^= value;
    h *= 0x100000001b3ULL;
  };
  mix(static_cast<std::uint64_t>(config.version));
  mix(kTraceGeneratorRevision);
  for (const double gb : config.paper_gb) {
    mix(static_cast<std::uint64_t>(gb * 1000.0));
  }
  for (const PolicyKind p : config.policies) {
    mix(static_cast<std::uint64_t>(policy_id(p)) + 101);
  }
  for (const AdmissionMode m : config.modes) {
    mix(static_cast<std::uint64_t>(mode_id(m)) + 577);
  }
  mix(config.include_belady ? 7 : 13);
  mix(static_cast<std::uint64_t>(config.lirs_lir_fraction * 1e6));
  mix(info.seed);
  mix(static_cast<std::uint64_t>(info.scale * 1e6));
  mix(info.requests);
  mix(info.photos);
  return h;
}

SweepCell make_cell(PolicyKind policy, AdmissionMode mode, double paper_gb,
                    std::uint64_t capacity, const RunResult& run) {
  SweepCell cell;
  cell.policy = policy;
  cell.mode = mode;
  cell.paper_gb = paper_gb;
  cell.capacity_bytes = capacity;
  cell.file_hit_rate = run.stats.file_hit_rate();
  cell.byte_hit_rate = run.stats.byte_hit_rate();
  cell.file_write_rate = run.stats.file_write_rate();
  cell.byte_write_rate = run.stats.byte_write_rate();
  cell.latency_us = run.mean_latency_us;
  cell.criteria_m = run.criteria.m;
  cell.insertions = run.stats.insertions;
  cell.inserted_bytes = run.stats.inserted_bytes;
  cell.rejected = run.stats.rejected;
  return cell;
}

}  // namespace

std::optional<SweepCell> SweepResult::find(PolicyKind policy,
                                           AdmissionMode mode,
                                           double paper_gb) const {
  for (const SweepCell& cell : cells) {
    if (cell.policy == policy && cell.mode == mode &&
        cell.paper_gb == paper_gb) {
      return cell;
    }
  }
  return std::nullopt;
}

SweepResult run_capacity_sweep(const Trace& trace, const SweepConfig& config,
                               const BenchWorkloadInfo& info) {
  SweepResult result;
  result.workload = info;
  const IntelligentCache system{trace};

  // One work item per capacity; capacities are independent, so they fan out
  // across the thread pool (the per-capacity cells are assembled into
  // index-addressed slots, keeping the output deterministic regardless of
  // scheduling).
  std::vector<std::vector<SweepCell>> per_capacity(config.paper_gb.size());
  ThreadPool pool;
  pool.parallel_for(config.paper_gb.size(), [&](std::size_t slot) {
    const double gb = config.paper_gb[slot];
    const std::uint64_t capacity =
        map_paper_gb(gb, system.total_object_bytes());
    if (capacity == 0) return;
    std::vector<SweepCell>& cells = per_capacity[slot];

    // LRU/original doubles as the hit-rate estimate for the criteria.
    RunConfig lru_config;
    lru_config.policy = PolicyKind::lru;
    lru_config.capacity_bytes = capacity;
    lru_config.mode = AdmissionMode::original;
    lru_config.lirs_lir_fraction = config.lirs_lir_fraction;
    const RunResult lru_original = system.run(lru_config);
    const double h_estimate = lru_original.stats.file_hit_rate();

    for (const PolicyKind policy : config.policies) {
      for (const AdmissionMode mode : config.modes) {
        if (policy == PolicyKind::lru && mode == AdmissionMode::original) {
          cells.push_back(make_cell(policy, mode, gb, capacity, lru_original));
          continue;
        }
        RunConfig run_config;
        run_config.policy = policy;
        run_config.capacity_bytes = capacity;
        run_config.mode = mode;
        run_config.lirs_lir_fraction = config.lirs_lir_fraction;
        run_config.hit_rate_estimate = h_estimate;
        cells.push_back(
            make_cell(policy, mode, gb, capacity, system.run(run_config)));
      }
    }
    if (config.include_belady) {
      RunConfig belady_config;
      belady_config.policy = PolicyKind::belady;
      belady_config.capacity_bytes = capacity;
      belady_config.mode = AdmissionMode::original;
      cells.push_back(make_cell(PolicyKind::belady, AdmissionMode::original,
                                gb, capacity, system.run(belady_config)));
    }
  });
  for (const auto& cells : per_capacity) {
    result.cells.insert(result.cells.end(), cells.begin(), cells.end());
  }
  return result;
}

std::string sweep_to_csv(const SweepResult& result) {
  std::ostringstream out;
  out << "policy,mode,paper_gb,capacity_bytes,file_hit_rate,byte_hit_rate,"
         "file_write_rate,byte_write_rate,latency_us,criteria_m,insertions,"
         "inserted_bytes,rejected\n";
  out.precision(12);
  for (const SweepCell& cell : result.cells) {
    out << policy_id(cell.policy) << ',' << mode_id(cell.mode) << ','
        << cell.paper_gb << ',' << cell.capacity_bytes << ','
        << cell.file_hit_rate << ',' << cell.byte_hit_rate << ','
        << cell.file_write_rate << ',' << cell.byte_write_rate << ','
        << cell.latency_us << ',' << cell.criteria_m << ',' << cell.insertions
        << ',' << cell.inserted_bytes << ',' << cell.rejected << '\n';
  }
  return out.str();
}

std::optional<SweepResult> sweep_from_csv(const std::string& csv) {
  std::istringstream in{csv};
  std::string line;
  if (!std::getline(in, line) || line.rfind("policy,mode", 0) != 0) {
    return std::nullopt;
  }
  SweepResult result;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    SweepCell cell;
    int policy = 0;
    int mode = 0;
    unsigned long long capacity = 0;
    unsigned long long insertions = 0;
    unsigned long long rejected = 0;
    const int fields = std::sscanf(
        line.c_str(), "%d,%d,%lf,%llu,%lf,%lf,%lf,%lf,%lf,%lf,%llu,%lf,%llu",
        &policy, &mode, &cell.paper_gb, &capacity, &cell.file_hit_rate,
        &cell.byte_hit_rate, &cell.file_write_rate, &cell.byte_write_rate,
        &cell.latency_us, &cell.criteria_m, &insertions, &cell.inserted_bytes,
        &rejected);
    if (fields != 13) return std::nullopt;
    cell.policy = static_cast<PolicyKind>(policy);
    cell.mode = static_cast<AdmissionMode>(mode);
    cell.capacity_bytes = capacity;
    cell.insertions = insertions;
    cell.rejected = rejected;
    result.cells.push_back(cell);
  }
  if (result.cells.empty()) return std::nullopt;
  return result;
}

SweepResult load_or_run_sweep(const Trace& trace, const SweepConfig& config,
                              const BenchWorkloadInfo& info) {
  const std::string dir = bench_cache_dir();
  if (dir.empty()) return run_capacity_sweep(trace, config, info);

  std::ostringstream name;
  name << "sweep_" << std::hex << config_fingerprint(config, info) << ".csv";
  const std::filesystem::path path = std::filesystem::path(dir) / name.str();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);

  if (!ec && std::filesystem::exists(path)) {
    std::ifstream file(path);
    std::stringstream buffer;
    buffer << file.rdbuf();
    if (auto cached = sweep_from_csv(buffer.str())) {
      cached->workload = info;
      return *cached;
    }
  }
  SweepResult result = run_capacity_sweep(trace, config, info);
  if (!ec) {
    std::ofstream file(path, std::ios::trunc);
    if (file) file << sweep_to_csv(result);
  }
  return result;
}

}  // namespace otac
