// Two-tier photo CDN (paper §2.1, Figure 1): Outside Cache close to users,
// Datacenter Cache in front of backend storage. Shows where one-time-access
// exclusion pays off in a hierarchy: the small OC tier benefits most, and
// filtering at OC changes what the DC tier sees.
#include <iostream>

#include "core/tiered.h"
#include "trace/trace_generator.h"
#include "util/table.h"

namespace {

using namespace otac;

struct Scenario {
  const char* label;
  bool classify_oc;
  bool classify_dc;
};

}  // namespace

int main() {
  using namespace otac;

  WorkloadConfig workload;
  workload.seed = 5;
  workload.num_owners = 3'000;
  workload.num_photos = 60'000;
  const Trace trace = TraceGenerator{workload}.generate();
  const IntelligentCache system{trace};

  double dataset_bytes = 0.0;
  for (const auto& photo : trace.catalog.photos()) {
    dataset_bytes += photo.size_bytes;
  }
  const auto oc_capacity = static_cast<std::uint64_t>(dataset_bytes * 0.005);
  const auto dc_capacity = static_cast<std::uint64_t>(dataset_bytes * 0.03);
  std::cout << "OC " << oc_capacity / (1024 * 1024) << " MiB (edge), DC "
            << dc_capacity / (1024 * 1024) << " MiB (datacenter), dataset "
            << static_cast<std::uint64_t>(dataset_bytes) / (1024 * 1024)
            << " MiB\n\n";

  const LatencyModel latency{};
  constexpr double kOcToDcRttUs = 10'000.0;  // 10 ms WAN round trip

  const Scenario scenarios[] = {
      {"no classifier", false, false},
      {"classifier at OC", true, false},
      {"classifier at DC", false, true},
      {"classifier at both", true, true},
  };

  TablePrinter table{{"deployment", "OC hit", "DC hit", "combined",
                      "OC writes", "DC writes", "latency (us)"}};
  for (const Scenario& scenario : scenarios) {
    // Each tier's engine computes its own criteria (C and h) and cost v.
    RunConfig oc;
    oc.policy = PolicyKind::lru;
    oc.capacity_bytes = oc_capacity;
    oc.mode = scenario.classify_oc ? AdmissionMode::proposal
                                   : AdmissionMode::original;
    RunConfig dc;
    dc.policy = PolicyKind::s3lru;
    dc.capacity_bytes = dc_capacity;
    dc.mode = scenario.classify_dc ? AdmissionMode::proposal
                                   : AdmissionMode::original;
    const TieredStats stats = run_tiered(system, oc, dc);

    table.add_row(
        {scenario.label, TablePrinter::fmt(stats.oc.file_hit_rate(), 4),
         TablePrinter::fmt(stats.dc.file_hit_rate(), 4),
         TablePrinter::fmt(stats.combined_hit_rate(), 4),
         std::to_string(stats.oc.insertions),
         std::to_string(stats.dc.insertions),
         TablePrinter::fmt(stats.mean_latency_us(latency, kOcToDcRttUs), 1)});
  }
  std::cout << table.to_string()
            << "\nClassifying at the small edge tier removes most of its SSD "
               "writes; classifying at both tiers protects both devices "
               "while keeping combined hit rate.\n";
  return 0;
}
