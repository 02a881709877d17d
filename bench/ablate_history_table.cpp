// Ablation: the history table (§4.4.2).
//
// The table rectifies photos wrongly rejected as one-time. We sweep its
// sizing factor from 0 (off) past the paper's 0.05 to oversized, measuring
// rectifications and cache outcomes.
#include <iostream>

#include "bench/bench_common.h"

int main() {
  using namespace otac;
  const double scale = std::min(global_scale(), 0.5);
  bench::BenchContext ctx;
  ctx.trace = load_bench_trace(scale, global_seed());
  ctx.info = describe(ctx.trace, scale, global_seed());
  bench::print_banner("Ablation: history table sizing (4.4.2)", ctx);

  const IntelligentCache system{ctx.trace};
  const std::uint64_t capacity =
      map_paper_gb(6.0, system.total_object_bytes());
  TablePrinter table{{"factor", "entries", "rectified", "hit rate",
                      "SSD writes", "rejected"}};
  for (const double factor : {0.0, 0.01, 0.05, 0.2, 1.0}) {
    RunConfig config;
    config.policy = PolicyKind::lru;
    config.capacity_bytes = capacity;
    config.mode = AdmissionMode::proposal;
    config.ota.history_table_factor = factor;
    const RunResult result = system.run(config);
    const CacheStats& stats = result.stats;
    table.add_row({TablePrinter::fmt(factor, 2),
                   std::to_string(result.history_capacity),
                   std::to_string(
                       result.obs.merged.counters.at("history.rectified")),
                   TablePrinter::fmt(stats.file_hit_rate(), 4),
                   std::to_string(stats.insertions),
                   std::to_string(stats.rejected)});
  }
  std::cout << table.to_string()
            << "\nexpected: rectifications recover hit rate lost to false "
               "one-time verdicts at a small write cost; beyond the paper's "
               "0.05 sizing the returns flatten.\n";
  return 0;
}
