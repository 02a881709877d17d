// Scenario-matrix report: replay every registered scenario
// (src/scenario/registry.h — adapters + adversarial stress shapes)
// through the sharded cache in Original and Proposal admission modes and
// record per-cell hit rate, SSD writes, degradation counters, and p99
// latency — the CI artifact behind `scripts/ci.sh scenarios`.
//
// Writes BENCH_scenarios.json (override with argv[1]); argv[2] scales the
// workloads (default 1.0 — the size tools/envelope_gate/envelopes.json is
// calibrated against). Like micro_chaos_replay this is a behavior report,
// not a timing contest: each cell must complete the whole trace, and the
// per-cell regression windows are enforced afterwards by
// tools/envelope_gate/envelope_gate.py.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_json.h"
#include "scenario/registry.h"
#include "util/failpoint.h"

int main(int argc, char** argv) {
  using namespace otac;

  const std::string out_path =
      argc > 1 ? argv[1] : std::string{"BENCH_scenarios.json"};
  const double scale = argc > 2 ? std::atof(argv[2]) : 1.0;
  constexpr std::uint64_t kSeed = 42;

  if (!fail::kSitesCompiled) {
    std::printf(
        "note: failpoint sites compiled out (OTAC_FAILPOINTS=OFF) — "
        "fault-driven scenarios run fault-free\n");
  }

  bench::Report report;
  report.bench = "scenarios";
  report.reps = 1;

  bool all_ok = true;
  for (const scenario::ScenarioSpec& spec : scenario::all()) {
    const scenario::ScenarioRunner runner{spec, kSeed, scale};
    std::printf("%-20s %zu requests, %zu objects\n", spec.name.c_str(),
                runner.trace().requests.size(),
                runner.trace().catalog.photo_count());
    for (const AdmissionMode mode :
         {AdmissionMode::original, AdmissionMode::proposal}) {
      const auto start = std::chrono::steady_clock::now();
      const RunResult result = runner.run(mode);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const scenario::ScenarioMetrics m = scenario::summarize(result);
      const bool ok = m.requests == runner.trace().requests.size();
      all_ok = all_ok && ok;

      char buffer[512];
      std::snprintf(
          buffer, sizeof(buffer),
          "{\"scenario\": \"%s\", \"mode\": \"%s\", \"requests\": %llu, "
          "\"file_hit_rate\": %.6f, \"byte_write_rate\": %.6f, "
          "\"insertions\": %llu, \"shed_requests\": %llu, "
          "\"degraded_admits\": %llu, \"p99_latency_us\": %.3f, "
          "\"trainings\": %d, \"seconds\": %.3f, \"ok\": %s}",
          spec.name.c_str(), admission_mode_name(mode).c_str(),
          static_cast<unsigned long long>(m.requests), m.file_hit_rate,
          m.byte_write_rate, static_cast<unsigned long long>(m.insertions),
          static_cast<unsigned long long>(m.shed_requests),
          static_cast<unsigned long long>(m.degraded_admits),
          m.p99_latency_us, m.trainings, seconds, ok ? "true" : "false");
      report.cells.push_back(buffer);
      std::printf(
          "  %-9s hit=%.4f bwr=%.4f writes=%-8llu shed=%-6llu %5.2fs%s\n",
          admission_mode_name(mode).c_str(), m.file_hit_rate,
          m.byte_write_rate, static_cast<unsigned long long>(m.insertions),
          static_cast<unsigned long long>(m.shed_requests), seconds,
          ok ? "" : "  [FAILED]");
    }
  }

  report.write(out_path);
  // An incomplete replay fails the job before the envelope gate runs.
  return all_ok ? 0 : 1;
}
