#include "tools/chaos/chaos.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/checkpoint.h"
#include "util/failpoint_names.h"

namespace otac::chaos {
namespace {

[[nodiscard]] double seconds_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

[[nodiscard]] fail::Spec once_spec() {
  fail::Spec spec;
  spec.trigger = fail::Trigger::once;
  return spec;
}

[[nodiscard]] fail::Spec every_nth_spec(std::uint64_t n) {
  fail::Spec spec;
  spec.trigger = fail::Trigger::every_nth;
  spec.n = n;
  return spec;
}

[[nodiscard]] fail::Spec window_spec(std::uint64_t from, std::uint64_t to) {
  fail::Spec spec;
  spec.trigger = fail::Trigger::window;
  spec.from = from;
  spec.to = to;
  return spec;
}

/// Sub-millisecond backoff so chaos replays spend their wall-clock on
/// serving, not on sleeping between storage retries.
[[nodiscard]] BackoffConfig fast_backoff() {
  BackoffConfig backoff;
  backoff.base_s = 1e-6;
  backoff.cap_s = 1e-4;
  return backoff;
}

/// Every registered failpoint armed with a self-clearing trigger, plus
/// the full resilience layer to absorb them. The checkpoint.* names only
/// evaluate inside CheckpointManager, hence the after-replay round-trip.
[[nodiscard]] Scenario make_failpoint_storm() {
  Scenario s;
  s.name = "failpoint_storm";
  s.description =
      "every registered failpoint fires at least once; the replay and a "
      "checkpoint round-trip complete and fully recover";
  // Barrier 1: two throwing attempts, then a 250ms hang, then success —
  // watchdog retries (inline) absorb all three.
  s.faults.push_back({"trainer.train.fail", window_spec(1, 2)});
  s.faults.push_back({"trainer.train.hang", window_spec(1, 1)});
  // Serving-path faults: an SSD-write burst (consecutive evaluations both
  // exhaust the per-insert retry budget and then clear) and periodic
  // flash-crowd injections large enough to shed the injecting request.
  s.faults.push_back({"storage.ssd.write_error", window_spec(50, 60)});
  s.faults.push_back({"chaos.flash_crowd", every_nth_spec(997)});
  // One transient fault per checkpoint crash surface; the save retry
  // budget below outlasts the five throwing sites.
  s.faults.push_back({"checkpoint.write.bitflip", once_spec()});
  s.faults.push_back({"checkpoint.write.open_fail", once_spec()});
  s.faults.push_back({"checkpoint.write.torn", once_spec()});
  s.faults.push_back({"checkpoint.write.crash", once_spec()});
  s.faults.push_back({"checkpoint.rotate.fail", once_spec()});
  s.faults.push_back({"checkpoint.rename.fail", once_spec()});
  s.faults.push_back({"checkpoint.load.io", once_spec()});

  s.resilience.overload.enabled = true;
  s.resilience.overload.flash_crowd_burst = 150.0;
  s.resilience.watchdog.max_retries = 3;
  s.resilience.watchdog.backoff = fast_backoff();
  s.resilience.checkpoint.max_retries = 8;
  s.resilience.checkpoint.backoff = fast_backoff();
  s.resilience.ssd_write_max_retries = 2;
  s.checkpoint = CheckpointPhase::after_replay;
  return s;
}

/// One retrain throws once; a single watchdog retry reproduces the exact
/// tree (the failpoint sits before any trainer state mutation), so the
/// whole replay must be bit-identical to the fault-free golden.
[[nodiscard]] Scenario make_retrain_transient() {
  Scenario s;
  s.name = "retrain_transient";
  s.description =
      "transient trainer failure absorbed by one watchdog retry; replay "
      "bit-identical to the fault-free golden";
  s.faults.push_back({"trainer.train.fail", once_spec()});
  s.resilience.watchdog.max_retries = 2;
  s.resilience.watchdog.backoff = fast_backoff();
  s.golden_identical = true;
  s.max_shed_rate = 0.0;  // overload layer off: nothing may shed
  return s;
}

/// A mid-schedule retrain hangs past the threaded watchdog's timeout:
/// the barrier abandons it (shards serve the last-good model) and the
/// replay — which runs barriers far faster than the 250ms hang — keeps
/// going, buffering samples at busy barriers. The window sits at the
/// third trigger so the first two barriers prove clean threaded training
/// deterministically, regardless of how the replay's wall-clock races
/// the hang.
[[nodiscard]] Scenario make_retrain_hang() {
  Scenario s;
  s.name = "retrain_hang";
  s.description =
      "a hung retrain is abandoned by the threaded watchdog; earlier "
      "barriers train clean and serving never stalls";
  s.faults.push_back({"trainer.train.hang", window_spec(3, 3)});
  // The hang failpoint sleeps 250ms; a 200ms timeout abandons it while
  // still dwarfing a clean fit on the chaos workload (sanitizers
  // included).
  s.resilience.watchdog.timeout_s = 0.2;
  s.max_shed_rate = 0.0;
  return s;
}

/// A checkpointer thread cycles save/load against scripted corruption
/// while all shards keep serving — the registry, the retry loop, and the
/// generation fallback all cross threads here.
[[nodiscard]] Scenario make_checkpoint_corruption() {
  Scenario s;
  s.name = "checkpoint_corruption_mid_serve";
  s.description =
      "checkpoint save/load cycles absorb scripted corruption while the "
      "sharded replay keeps serving";
  // Distinct early-evaluation windows per crash surface: the first few
  // save/load cycles hit faults (bounded retries absorb them), later
  // cycles run clean.
  s.faults.push_back({"checkpoint.write.open_fail", window_spec(1, 1)});
  s.faults.push_back({"checkpoint.write.bitflip", window_spec(2, 3)});
  s.faults.push_back({"checkpoint.write.torn", window_spec(4, 4)});
  s.faults.push_back({"checkpoint.rotate.fail", window_spec(3, 3)});
  s.faults.push_back({"checkpoint.rename.fail", window_spec(5, 5)});
  s.faults.push_back({"checkpoint.write.crash", window_spec(6, 6)});
  s.faults.push_back({"checkpoint.load.io", window_spec(1, 2)});
  s.resilience.checkpoint.max_retries = 6;
  s.resilience.checkpoint.backoff = fast_backoff();
  s.checkpoint = CheckpointPhase::during_replay;
  s.max_shed_rate = 0.0;
  return s;
}

/// Flash-crowd bursts push one shard's queue through Degraded into
/// Shedding; the fluid queue drains back to Normal once the window
/// closes. threads=1 pins the failpoint evaluation order, so the shed
/// and transition counts are a pure function of the trace.
[[nodiscard]] Scenario make_flash_crowd() {
  Scenario s;
  s.name = "flash_crowd";
  s.description =
      "flash-crowd injections walk a shard Normal->Degraded->Shedding and "
      "back; sheds stay bounded and deterministic";
  s.faults.push_back({"chaos.flash_crowd", window_spec(1500, 1502)});
  s.resilience.overload.enabled = true;
  s.resilience.overload.service_rate_per_s = 0.5;
  s.resilience.overload.flash_crowd_burst = 150.0;
  s.threads = 1;  // deterministic evaluation order across shards
  s.max_shed_rate = 0.05;
  return s;
}

}  // namespace

const std::vector<Scenario>& builtin_scenarios() {
  static const std::vector<Scenario> scenarios = {
      make_failpoint_storm(),   make_retrain_transient(),
      make_retrain_hang(),      make_checkpoint_corruption(),
      make_flash_crowd(),
  };
  return scenarios;
}

const Scenario& find_scenario(std::string_view name) {
  for (const Scenario& scenario : builtin_scenarios()) {
    if (scenario.name == name) return scenario;
  }
  std::string message = "unknown chaos scenario: ";
  message += name;
  message += " (known:";
  for (const Scenario& scenario : builtin_scenarios()) {
    message += ' ';
    message += scenario.name;
  }
  message += ')';
  throw std::invalid_argument(message);
}

void arm(const Scenario& scenario) {
  fail::Registry& registry = fail::Registry::instance();
  registry.disable_all();
  for (const FaultSpec& fault : scenario.faults) {
    registry.enable(fault.failpoint, fault.spec);  // throws on unknown name
  }
}

void disarm() { fail::Registry::instance().disable_all(); }

Harness::Harness(Trace trace, double capacity_fraction)
    : trace_(std::move(trace)), system_(trace_), sharded_(system_) {
  capacity_bytes_ = static_cast<std::uint64_t>(system_.total_object_bytes() *
                                               capacity_fraction);
  hit_rate_estimate_ = system_.estimate_hit_rate(capacity_bytes_);
}

RunConfig Harness::base_config(const Scenario& scenario) const {
  RunConfig config;
  config.policy = PolicyKind::lru;
  config.capacity_bytes = capacity_bytes_;
  config.mode = AdmissionMode::proposal;
  config.hit_rate_estimate = hit_rate_estimate_;
  config.shards = scenario.shards;
  config.threads = scenario.threads;
  config.resilience = scenario.resilience;
  return config;
}

ScenarioReport Harness::run(const Scenario& scenario) const {
  ScenarioReport report;
  report.scenario = scenario.name;
  const RunConfig config = base_config(scenario);

  if (scenario.golden_identical) {
    disarm();
    const auto golden_start = std::chrono::steady_clock::now();
    report.golden = sharded_.run(config);
    report.golden_seconds = seconds_since(golden_start);
    report.golden_run = true;
  }

  std::unique_ptr<CheckpointManager> manager;
  std::filesystem::path checkpoint_dir;
  if (scenario.checkpoint != CheckpointPhase::none) {
    checkpoint_dir = std::filesystem::temp_directory_path() /
                     ("otac_chaos_" + scenario.name);
    std::filesystem::remove_all(checkpoint_dir);
    manager = std::make_unique<CheckpointManager>(checkpoint_dir.string());
    manager->configure_retry(scenario.resilience.checkpoint);
  }
  ClassifierSnapshot snapshot;
  snapshot.m = 1000.0;
  snapshot.h = 0.5;
  snapshot.p = 0.2;
  snapshot.cost_v = 2.0;

  arm(scenario);

  std::atomic<bool> serving_done{false};
  std::uint64_t checkpointer_cycles = 0;  // written only before the join
  std::thread checkpointer;
  if (scenario.checkpoint == CheckpointPhase::during_replay) {
    checkpointer = std::thread([&] {
      while (!serving_done.load(std::memory_order_acquire)) {
        (void)manager->save_with_retry(snapshot);
        (void)manager->load_with_retry();
        ++checkpointer_cycles;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  const auto faulty_start = std::chrono::steady_clock::now();
  report.faulty = sharded_.run(config);
  report.faulty_seconds = seconds_since(faulty_start);
  serving_done.store(true, std::memory_order_release);
  if (checkpointer.joinable()) checkpointer.join();
  report.checkpoint_cycles = checkpointer_cycles;

  if (scenario.checkpoint == CheckpointPhase::after_replay) {
    // Two cycles, not one: rotation (current -> previous) only happens
    // once a current generation exists, so the rotate failpoint needs a
    // second save to evaluate at all.
    for (int cycle = 0; cycle < 2; ++cycle) {
      (void)manager->save_with_retry(snapshot);
      (void)manager->load_with_retry();
      ++report.checkpoint_cycles;
    }
  }

  for (const FaultSpec& fault : scenario.faults) {
    report.failpoint_fires +=
        fail::Registry::instance().fires(fault.failpoint);
  }
  disarm();

  if (manager != nullptr) {
    // Faults cleared: the store must come all the way back — a clean save
    // landing a current generation that loads as such. A manager driven
    // into terminal read-only state fails this on purpose (the builtin
    // scenarios budget retries to outlast their fault windows).
    const bool saved = manager->save_with_retry(snapshot);
    const CheckpointLoad loaded = manager->load_with_retry();
    report.checkpoint_recovered =
        saved && loaded.origin == CheckpointOrigin::current;
    std::filesystem::remove_all(checkpoint_dir);
  }

  report.completed = report.faulty.stats.requests == trace_.requests.size();
  const std::uint64_t requests = report.faulty.stats.requests;
  report.shed_rate =
      requests == 0 ? 0.0
                    : static_cast<double>(
                          report.faulty.degradation.shed_requests) /
                          static_cast<double>(requests);
  report.shed_rate_bounded = report.shed_rate <= scenario.max_shed_rate;
  if (report.golden_run) {
    report.stats_identical = report.faulty.stats == report.golden.stats &&
                             report.faulty.daily == report.golden.daily &&
                             report.faulty.trainings == report.golden.trainings;
  }
  return report;
}

}  // namespace otac::chaos
