// End-to-end benchmark driver. Calls only the stable top-level entry
// points — TraceGenerator::generate, IntelligentCache, ShardedCache::run,
// net::Daemon, and the net/protocol.h codec with the net/socket.h helpers
// (through wire_client.h) — so a refactor below them is measured against
// unchanged benchmark code.
//
//   otac_bench_e2e --workload <proposal|original> --seed <n> --seconds <s>
//
// The replay phase sets up three times (trace synthesis + IntelligentCache),
// then repeats one ShardedCache::run until two thirds of --seconds are
// spent (at least three times). The wire phase repeats set-up + one
// open-loop pass until the last third is spent (at least three times).
// Times and latency percentiles are medians over repetitions, and
// repetitions during which the hypervisor stole CPU time (StealMeter) are
// repeated within a capped budget and left out of the medians. Every
// repetition is checked; the last stdout line is the result object.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common.h"
#include "core/sharded_cache.h"
#include "net/daemon.h"
#include "wire_client.h"

namespace otac::bench {
namespace {

constexpr std::size_t kSetups = 3;
constexpr std::size_t kMinReplays = 3;
constexpr std::size_t kMinPasses = 3;

struct ReplayPhase {
  Samples setup_s;
  Samples run_s;
  RunResult first;
  std::uint64_t requests = 0;
  std::uint64_t photos = 0;
  std::uint64_t capacity_bytes = 0;
  std::uint64_t served = 0;  // requests over all repetitions
};

ReplayPhase run_replay(const Workload& workload, const Args& args,
                       Checks& checks) {
  ReplayPhase phase;
  const Clock::time_point begin = Clock::now();
  Trace trace;
  // Set-ups are not budgeted: three undisturbed ones, at most twice that.
  while (phase.setup_s.clean() < kSetups &&
         phase.setup_s.size() < 2 * kSetups) {
    trace = Trace{};  // free the previous trace before timing the next
    const StealMeter steal;
    const Clock::time_point setup_start = Clock::now();
    trace = make_trace(kReplayScale, args.seed);
    { const IntelligentCache system{trace}; }
    phase.setup_s.add(seconds_since(setup_start), steal.fraction());
    checks.expect(phase.requests == 0 ||
                      trace.requests.size() == phase.requests,
                  "trace synthesis is deterministic");
    phase.requests = trace.requests.size();
  }
  phase.photos = trace.catalog.photo_count();

  while (!phase_done(phase.run_s, kMinReplays, begin, args.seconds * 2 / 3)) {
    // A fresh IntelligentCache per replay: its LRU estimate is memoized, and
    // every timed run must pay for it.
    const IntelligentCache system{trace};
    const RunConfig config = replay_config(workload, system);
    const StealMeter steal;
    const Clock::time_point run_start = Clock::now();
    RunResult result = ShardedCache{system}.run(config);
    phase.run_s.add(seconds_since(run_start), steal.fraction());

    const CacheStats& stats = result.stats;
    phase.served += stats.requests;
    checks.expect(stats.requests == trace.requests.size(),
                  "replay served every trace request");
    checks.expect(stats.hits + stats.insertions + stats.rejected <=
                      stats.requests,
                  "replay accounting: hits + insertions + rejected <= requests");
    if (workload.mode == AdmissionMode::proposal) {
      checks.expect(result.trainings > 0, "replay published a model");
    }
    if (phase.run_s.size() == 1) {
      phase.capacity_bytes = config.capacity_bytes;
      phase.first = std::move(result);
    } else {
      checks.expect(result == phase.first,
                    "replay result identical across repetitions");
    }
  }
  return phase;
}

struct WirePhase {
  Samples setup_s;
  Samples p50_us;  // per pass
  Samples p99_us;
  std::uint64_t requests = 0;
  std::uint64_t photos = 0;
  std::uint64_t capacity_bytes = 0;
  std::uint64_t frames = 0;  // GET + PUT frames over all passes
  std::uint64_t failed = 0;
};

/// A failed GET sorts last (kFailedLatency), above any limit.
double latency_us(const std::vector<std::int64_t>& sorted, double q) {
  return static_cast<double>(sorted_quantile(sorted, q)) / 1e3;
}

WirePhase run_wire(const Args& args, Checks& checks) {
  WirePhase phase;
  const Clock::time_point begin = Clock::now();
  while (!phase_done(phase.p99_us, kMinPasses, begin, args.seconds / 3)) {
    const StealMeter steal;
    const WirePass pass = run_wire_pass(args.seed, checks);
    const double steal_frac = steal.fraction();
    std::vector<std::int64_t> latency = pass.out.latency_ns;
    std::sort(latency.begin(), latency.end());
    phase.setup_s.add(pass.setup_s, steal_frac);
    phase.p50_us.add(latency_us(latency, 0.50), steal_frac);
    phase.p99_us.add(latency_us(latency, 0.99), steal_frac);
    phase.frames += pass.out.gets_sent + pass.out.puts_sent;
    phase.failed += pass.out.failed_gets;
    phase.requests = pass.requests;
    phase.photos = pass.photos;
    phase.capacity_bytes = pass.capacity_bytes;
  }
  return phase;
}

int run(const Args& args) {
  const Workload& workload = find_workload(args.workload);
  Checks checks;
  const ReplayPhase replay = run_replay(workload, args, checks);
  const WirePhase wire = run_wire(args, checks);

  Info info;
  info.strings = {{"workload", workload.name},
                  {"mode", admission_mode_name(workload.mode)}};
  info.numbers = {
      {"seed", static_cast<double>(args.seed)},
      {"replay_requests", static_cast<double>(replay.requests)},
      {"replay_photos", static_cast<double>(replay.photos)},
      {"replay_capacity_bytes", static_cast<double>(replay.capacity_bytes)},
      {"replay_shards", static_cast<double>(kReplayShards)},
      {"replay_threads", static_cast<double>(kReplayThreads)},
      {"replay_setups", static_cast<double>(replay.setup_s.size())},
      {"replay_setups_undisturbed", static_cast<double>(replay.setup_s.clean())},
      {"replay_reps", static_cast<double>(replay.run_s.size())},
      {"replay_reps_undisturbed", static_cast<double>(replay.run_s.clean())},
      {"wire_requests", static_cast<double>(wire.requests)},
      {"wire_photos", static_cast<double>(wire.photos)},
      {"wire_capacity_bytes", static_cast<double>(wire.capacity_bytes)},
      {"wire_shards", static_cast<double>(kWireShards)},
      {"wire_get_rate", kWireGetRate},
      {"wire_passes", static_cast<double>(wire.p99_us.size())},
      {"wire_passes_undisturbed", static_cast<double>(wire.p99_us.clean())},
  };
  print_info(info);

  const CacheStats& stats = replay.first.stats;
  const std::vector<Metric> metrics = {
      {"setup_s", replay.setup_s.median() + wire.setup_s.median(), "s"},
      {"replay_mreq_per_s",
       static_cast<double>(replay.requests) / replay.run_s.median() / 1e6,
       "Mreq/s"},
      {"wire_p50_us", wire.p50_us.median(), "us"},
      {"wire_p99_us", wire.p99_us.median(), "us"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"file_hit_rate", stats.file_hit_rate(), "ratio"},
      {"byte_hit_rate", stats.byte_hit_rate(), "ratio"},
      {"file_write_rate", stats.file_write_rate(), "ratio"},
      {"byte_write_rate", stats.byte_write_rate(), "ratio"},
  };
  print_table(metrics);
  print_result(checks.ok(), replay.served + wire.frames, wire.failed, metrics);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace otac::bench

int main(int argc, char** argv) {
  try {
    return otac::bench::run(otac::bench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "otac_bench_e2e: %s\n", error.what());
    return 2;
  }
}
