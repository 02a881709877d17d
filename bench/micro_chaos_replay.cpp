// Chaos-schedule replay report: run every builtin chaos scenario
// (tools/chaos) through a sharded replay and record completion, recovery,
// shed rate, and wall time per scenario — the CI artifact proving the
// overload-resilience layer holds its invariants on a real trace.
//
// Writes BENCH_chaos.json (override with argv[1]); argv[2] scales the
// synthetic workload (default 0.1). Unlike the perf micro-benches this is
// a behavior report, not a timing contest: each scenario runs once and
// the interesting columns are booleans and counters.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_json.h"
#include "tools/chaos/chaos.h"
#include "trace/trace_generator.h"
#include "util/failpoint.h"

int main(int argc, char** argv) {
  using namespace otac;

  const std::string out_path =
      argc > 1 ? argv[1] : std::string{"BENCH_chaos.json"};
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.1;
  constexpr std::uint64_t kSeed = 42;

  if (!fail::kSitesCompiled) {
    std::printf(
        "failpoint sites compiled out (OTAC_FAILPOINTS=OFF): chaos "
        "scenarios would run fault-free; refusing to emit a vacuous "
        "report\n");
    return 1;
  }

  chaos::Harness harness{generate_default_trace(scale, kSeed)};
  std::printf("trace: %zu requests, %zu scenarios\n",
              harness.trace().requests.size(),
              chaos::builtin_scenarios().size());

  bench::Report report;
  report.bench = "chaos_replay";
  report.reps = 1;

  bool all_ok = true;
  for (const chaos::Scenario& scenario : chaos::builtin_scenarios()) {
    const chaos::ScenarioReport result = harness.run(scenario);
    const bool ok = result.completed && result.shed_rate_bounded &&
                    result.checkpoint_recovered &&
                    (!result.golden_run || result.stats_identical);
    all_ok = all_ok && ok;

    char buffer[640];
    std::snprintf(
        buffer, sizeof(buffer),
        "{\"scenario\": \"%s\", \"requests\": %llu, \"seconds\": %.3f, "
        "\"completed\": %s, \"failpoint_fires\": %llu, "
        "\"shed_rate\": %.6f, \"shed_rate_bounded\": %s, "
        "\"shed_requests\": %llu, \"retrain_retries\": %llu, "
        "\"retrain_timeouts\": %llu, \"checkpoint_recovered\": %s, "
        "\"golden_identical\": %s, \"ok\": %s}",
        scenario.name.c_str(),
        static_cast<unsigned long long>(result.faulty.stats.requests),
        result.faulty_seconds, result.completed ? "true" : "false",
        static_cast<unsigned long long>(result.failpoint_fires),
        result.shed_rate, result.shed_rate_bounded ? "true" : "false",
        static_cast<unsigned long long>(
            result.faulty.degradation.shed_requests),
        static_cast<unsigned long long>(
            result.faulty.degradation.retrain_retries),
        static_cast<unsigned long long>(
            result.faulty.degradation.retrain_timeouts),
        result.checkpoint_recovered ? "true" : "false",
        result.golden_run ? (result.stats_identical ? "true" : "false")
                          : "null",
        ok ? "true" : "false");
    report.cells.push_back(buffer);
    std::printf("%-32s %6.2fs  fires=%-5llu shed=%.4f%s%s\n",
                scenario.name.c_str(), result.faulty_seconds,
                static_cast<unsigned long long>(result.failpoint_fires),
                result.shed_rate, result.golden_run ? "  [golden-compared]" : "",
                ok ? "" : "  [FAILED]");
  }

  report.write(out_path);
  // A scenario breaking its invariants fails the job — the report is a
  // gate, not just an artifact.
  return all_ok ? 0 : 1;
}
