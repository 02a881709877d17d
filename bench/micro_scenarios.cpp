// Scenario report: replay every registered scenario (src/scenario) in
// Original and Proposal admission and record per-cell hit rate, SSD
// writes, degradation counters, failpoint fires, checkpoint recovery and
// p99 latency — the artifact behind `scripts/ci.sh scenarios`.
//
// Writes BENCH_scenarios.json (override with argv[1]) at OTAC_SCALE
// (default 1.0, the scale tools/envelope_gate/envelopes.json is calibrated
// at). A cell is ok only if its replay completed, its checkpoint store
// recovered and, where the spec declares it, it matched its fault-free
// golden; the envelope gate checks the windows afterwards.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_json.h"
#include "scenario/registry.h"
#include "util/env_config.h"
#include "util/failpoint.h"

int main(int argc, char** argv) {
  using namespace otac;

  const std::string out_path =
      argc > 1 ? argv[1] : std::string{"BENCH_scenarios.json"};
  const double scale = global_scale();
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
    std::printf("%-32s %zu requests, %zu objects\n", spec.name.c_str(),
                runner.trace().requests.size(),
                runner.trace().catalog.photo_count());
    for (const AdmissionMode mode :
         {AdmissionMode::original, AdmissionMode::proposal}) {
      const auto start = std::chrono::steady_clock::now();
      const scenario::ScenarioRun run = runner.run(mode);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const scenario::ScenarioMetrics m = scenario::summarize(run.result);
      const DegradationCounters& d = run.result.degradation;
      const bool ok = m.requests == runner.trace().requests.size() &&
                      run.checkpoint_recovered && run.golden_identical();
      all_ok = all_ok && ok;

      char buffer[768];
      std::snprintf(
          buffer, sizeof(buffer),
          "{\"scenario\": \"%s\", \"mode\": \"%s\", \"requests\": %llu, "
          "\"file_hit_rate\": %.6f, \"byte_write_rate\": %.6f, "
          "\"insertions\": %llu, \"shed_requests\": %llu, "
          "\"degraded_admits\": %llu, \"p99_latency_us\": %.3f, "
          "\"trainings\": %d, \"failpoint_fires\": %llu, "
          "\"retrain_retries\": %llu, \"retrain_timeouts\": %llu, "
          "\"checkpoint_recovered\": %s, \"golden_identical\": %s, "
          "\"seconds\": %.3f, \"ok\": %s}",
          spec.name.c_str(), admission_mode_name(mode).c_str(),
          static_cast<unsigned long long>(m.requests), m.file_hit_rate,
          m.byte_write_rate, static_cast<unsigned long long>(m.insertions),
          static_cast<unsigned long long>(m.shed_requests),
          static_cast<unsigned long long>(m.degraded_admits),
          m.p99_latency_us, m.trainings,
          static_cast<unsigned long long>(run.failpoint_fires),
          static_cast<unsigned long long>(d.retrain_retries),
          static_cast<unsigned long long>(d.retrain_timeouts),
          run.checkpoint_recovered ? "true" : "false",
          !run.golden ? "null" : run.golden_identical() ? "true" : "false",
          seconds, ok ? "true" : "false");
      report.cells.push_back(buffer);
      std::printf(
          "  %-9s hit=%.4f bwr=%.4f writes=%-8llu shed=%-6llu fires=%-4llu "
          "%5.2fs%s\n",
          admission_mode_name(mode).c_str(), m.file_hit_rate,
          m.byte_write_rate, static_cast<unsigned long long>(m.insertions),
          static_cast<unsigned long long>(m.shed_requests),
          static_cast<unsigned long long>(run.failpoint_fires), seconds,
          ok ? "" : "  [FAILED]");
    }
  }

  report.write(out_path);
  // A failed cell fails the job before the envelope gate runs.
  return all_ok ? 0 : 1;
}
