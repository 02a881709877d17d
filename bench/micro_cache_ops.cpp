// Supporting micro-benchmark: per-request cost of each replacement policy
// (t_query in the paper's Eq. 4/5 is the cache lookup; this shows all
// policies stay O(1)-ish and far below the 3 ms HDD miss penalty).
//
// Runs the policy x workload cells one at a time, so no cell times another's
// contention, and writes a machine-readable report to BENCH_cache_ops.json
// (override with argv[1]).
// Workloads probe the three regimes that matter:
//   mixed          steady-state churn (hits + misses + evictions)
//   hit_heavy      resident working set, almost pure hit path
//   large_universe production-scale resident set (~500k objects), where
//                  pointer-chasing layouts fall off the cache cliff
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "cachesim/cache_policy.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace {

using namespace otac;

struct Op {
  PhotoId key;
  std::uint32_t size;
};

struct Workload {
  std::string name;
  std::vector<Op> ops;
  std::uint64_t capacity_bytes;
  // Run the ops once untimed before measuring, so the timed passes exercise
  // the steady-state access path instead of cold-cache insert churn.
  bool warm = false;
};

std::vector<Op> make_ops(std::size_t count, std::size_t universe,
                         double theta, std::uint64_t seed) {
  Rng rng{seed};
  const ZipfSampler zipf{universe, theta};
  std::vector<Op> out(count);
  for (auto& op : out) {
    op.key = static_cast<PhotoId>(zipf.sample(rng));
    op.size = static_cast<std::uint32_t>(rng.uniform_int(4'000, 200'000));
  }
  return out;
}

struct CellResult {
  std::string json;
  std::string line;
};

CellResult run_cell(PolicyKind kind, const Workload& workload, int reps) {
  double best = 1e300;
  double hit_rate = 0.0;
  const auto drive = [](CachePolicy& policy, const std::vector<Op>& ops) {
    std::uint64_t hits = 0;
    for (const Op& op : ops) {
      if (policy.access(op.key, op.size)) {
        ++hits;
      } else {
        policy.insert(op.key, op.size);
      }
    }
    return hits;
  };
  for (int rep = 0; rep < reps; ++rep) {
    const auto policy = make_policy(kind, workload.capacity_bytes);
    if (workload.warm) drive(*policy, workload.ops);
    std::uint64_t hits = 0;
    const double seconds =
        bench::time_once([&] { hits = drive(*policy, workload.ops); });
    best = std::min(best, seconds);
    hit_rate = static_cast<double>(hits) /
               static_cast<double>(workload.ops.size());
  }
  const double ops_per_sec = static_cast<double>(workload.ops.size()) / best;
  const double ns_per_op = best * 1e9 / static_cast<double>(workload.ops.size());
  const std::string name = policy_name(kind);

  CellResult result;
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "{\"policy\": \"%s\", \"workload\": \"%s\", \"ops\": %zu, "
                "\"ops_per_sec\": %.0f, \"ns_per_op\": %.2f, "
                "\"hit_rate\": %.4f}",
                name.c_str(), workload.name.c_str(), workload.ops.size(),
                ops_per_sec, ns_per_op, hit_rate);
  result.json = buffer;
  std::snprintf(buffer, sizeof(buffer),
                "%-6s %-14s %8.2f Mops/s %8.1f ns/op  hit=%.3f", name.c_str(),
                workload.name.c_str(), ops_per_sec / 1e6, ns_per_op, hit_rate);
  result.line = buffer;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : std::string{"BENCH_cache_ops.json"};
  constexpr int kReps = 3;

  std::vector<Workload> workloads;
  // Steady-state churn: ~650 resident objects, every miss evicts.
  workloads.push_back({"mixed", make_ops(bench::scaled(1'000'000), 100'000,
                                         0.9, 42),
                       512ULL << 20});
  // Hot working set: 20k keys all fit, so after warmup this is the pure
  // hit path (hash probe + splice to front).
  workloads.push_back({"hit_heavy", make_ops(bench::scaled(1'000'000),
                                             20'000, 0.9, 43),
                       1ULL << 50});
  // Production-scale resident set: a warmup pass makes ~470k objects
  // resident, then the timed passes measure the pure access path against
  // state far larger than L2 — where node layout dominates.
  workloads.push_back({"large_universe",
                       make_ops(bench::scaled(2'000'000), 1'000'000, 0.9, 44),
                       1ULL << 50,
                       /*warm=*/true});

  const std::vector<PolicyKind> policies = {
      PolicyKind::lru,  PolicyKind::fifo, PolicyKind::s3lru,
      PolicyKind::arc,  PolicyKind::lirs, PolicyKind::lfu,
  };

  struct Cell {
    PolicyKind kind;
    const Workload* workload;
  };
  std::vector<Cell> cells;
  for (const Workload& workload : workloads) {
    for (const PolicyKind kind : policies) cells.push_back({kind, &workload});
  }

  bench::Report report;
  report.bench = "cache_ops";
  report.reps = kReps;
  for (const Cell& cell : cells) {
    const CellResult result = run_cell(cell.kind, *cell.workload, kReps);
    std::puts(result.line.c_str());
    report.cells.push_back(result.json);
  }
  report.write(out_path);
  return 0;
}
