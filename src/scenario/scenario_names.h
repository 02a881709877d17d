// Central registry of every workload-scenario name (src/scenario). A
// scenario spec registered in scenario::all() may only use a name listed
// here: `tools/otac_lint` (rule `scenario-registry`) checks every string
// literal passed to scenario::find() against this table, and the registry
// itself cross-checks at construction so a renamed scenario breaks the
// suite loudly instead of silently dropping out of the CI matrix.
//
// To add a scenario: add the name here (keep the list sorted), register
// the spec in src/scenario/registry.cpp, record both admission modes' cells
// in tools/envelope_gate/envelopes.json, and re-run `scripts/ci.sh
// scenarios`.
#pragma once

#include <string_view>

namespace otac::scenario {

inline constexpr std::string_view kKnownScenarios[] = {
    "checkpoint_corruption_mid_serve",
    "churn_purge",
    "cloud_block",
    "diurnal_shift",
    "failpoint_storm",
    "flash_crowd",
    "retrain_hang",
    "retrain_transient",
    "rocksdb_blockcache",
    "scan_flood",
    "shard_failover",
};

[[nodiscard]] constexpr bool is_known_scenario(std::string_view name) {
  for (const std::string_view known : kKnownScenarios) {
    if (known == name) return true;
  }
  return false;
}

}  // namespace otac::scenario
