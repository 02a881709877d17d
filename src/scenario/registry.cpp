#include "scenario/registry.h"

#include <stdlib.h>  // mkdtemp

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "core/checkpoint.h"
#include "scenario/cloud_block.h"
#include "scenario/rocksdb_trace.h"
#include "scenario/scenario_names.h"
#include "trace/trace_generator.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace otac::scenario {

namespace {

/// Scale of the synthetic photo base trace the adversarial and fault
/// scenarios replay, relative to the paper-sized default config, at
/// scenario scale 1.0.
constexpr double kBaseScale = 0.05;

// --- Self-clearing failpoint triggers -------------------------------------

[[nodiscard]] fail::Spec window(std::uint64_t from, std::uint64_t to) {
  return {.trigger = fail::Trigger::window, .from = from, .to = to};
}

[[nodiscard]] fail::Spec once() { return {.trigger = fail::Trigger::once}; }

[[nodiscard]] fail::Spec every_nth(std::uint64_t n) {
  return {.trigger = fail::Trigger::every_nth, .n = n};
}

/// Sub-millisecond backoff so fault replays spend their time serving, not
/// sleeping between retries.
[[nodiscard]] BackoffConfig fast_backoff(int max_retries) {
  return {.base_s = 1e-6, .cap_s = 1e-4, .max_retries = max_retries};
}

/// Append a photo cloned from / shaped like `meta`, keeping latent_score
/// aligned with the catalog (the synthetic generator fills it per photo).
PhotoId append_photo(Trace& trace, const PhotoMeta& meta) {
  const PhotoId id = trace.catalog.add_photo(meta);
  if (!trace.latent_score.empty()) trace.latent_score.push_back(0.0F);
  return id;
}

// --- Adversarial trace builders -------------------------------------------

/// The unmodified base trace: flash_crowd and the fault schedules replay it.
Trace make_base_trace(std::uint64_t seed, double scale) {
  return generate_default_trace(kBaseScale * scale, seed);
}

/// Base trace + periodic scan bursts: each burst streams a fresh set of
/// large one-time objects (a backup/scrub pass) dense in time. Admitting
/// them evicts the hot set for objects that never return.
Trace make_scan_flood_trace(std::uint64_t seed, double scale) {
  Trace trace = generate_default_trace(kBaseScale * scale, seed);
  Rng rng{seed ^ 0x5ca9f100dULL};
  constexpr int kBursts = 3;
  const std::size_t burst_requests = trace.requests.size() / 8;
  const UserId scanner =
      static_cast<UserId>(trace.catalog.owner_count() - 1);
  std::vector<Request> extra;
  extra.reserve(burst_requests * kBursts);
  for (int burst = 0; burst < kBursts; ++burst) {
    SimTime t{trace.horizon.seconds * (burst + 1) / (kBursts + 1)};
    for (std::size_t i = 0; i < burst_requests; ++i) {
      PhotoMeta meta;
      meta.owner = scanner;
      meta.type = PhotoType{Resolution::o, PhotoFormat::png};
      meta.size_bytes =
          96'000 + static_cast<std::uint32_t>(rng.next_below(64'000));
      meta.upload_time = t - kSecondsPerMinute;
      Request request;
      request.time = t + static_cast<std::int64_t>(i / 64);  // 64 obj/s
      request.photo = append_photo(trace, meta);
      request.terminal = TerminalType::mobile;
      extra.push_back(request);
    }
  }
  const auto by_time_photo = [](const Request& a, const Request& b) {
    return std::pair{a.time.seconds, a.photo} <
           std::pair{b.time.seconds, b.photo};
  };
  const std::size_t base_count = trace.requests.size();
  trace.requests.insert(trace.requests.end(), extra.begin(), extra.end());
  std::inplace_merge(trace.requests.begin(),
                     trace.requests.begin() +
                         static_cast<std::ptrdiff_t>(base_count),
                     trace.requests.end(), by_time_photo);
  trace.horizon = SimTime{
      std::max(trace.horizon.seconds, trace.requests.back().time.seconds + 1)};
  return trace;
}

/// Generational churn: photos live in cohorts; accesses are Zipf within
/// the active cohort (plus a short retention tail into the previous one),
/// and a purged cohort is never touched again. The history table and the
/// model keep paying for keys that will not come back.
Trace make_churn_purge_trace(std::uint64_t seed, double scale) {
  constexpr int kGenerations = 8;
  constexpr std::int64_t kHorizonDays = 4;
  const auto photos_per_gen = static_cast<std::uint32_t>(
      std::max(400.0, 4'000 * scale));
  const auto total_requests =
      static_cast<std::size_t>(std::max(20'000.0, 120'000 * scale));

  Rng rng{seed ^ 0xc8a91ULL};
  Rng time_rng = rng.fork(1);
  const DiurnalModel diurnal{};
  const ZipfSampler within{photos_per_gen, 0.9};

  std::vector<OwnerMeta> owners(kGenerations);
  std::vector<PhotoMeta> photos;
  photos.reserve(std::size_t{kGenerations} * photos_per_gen);
  const std::int64_t gen_seconds = kHorizonDays * kSecondsPerDay / kGenerations;
  for (int gen = 0; gen < kGenerations; ++gen) {
    for (std::uint32_t p = 0; p < photos_per_gen; ++p) {
      PhotoMeta meta;
      meta.owner = static_cast<UserId>(gen);
      meta.type = PhotoType{Resolution::m, PhotoFormat::jpg};
      meta.size_bytes = 12'288 + (p % 512) * 16;
      meta.upload_time = SimTime{gen * gen_seconds} - kSecondsPerMinute;
      photos.push_back(meta);
    }
    owners[static_cast<std::size_t>(gen)].photo_count = photos_per_gen;
  }

  std::vector<Request> requests;
  requests.reserve(total_requests);
  while (requests.size() < total_requests) {
    const std::int64_t day = static_cast<std::int64_t>(
        time_rng.next_below(kHorizonDays));
    const SimTime t{day * kSecondsPerDay +
                    diurnal.sample_second_of_day(time_rng)};
    int gen = static_cast<int>(t.seconds / gen_seconds);
    gen = std::min(gen, kGenerations - 1);
    // Retention tail: 10% of traffic still reads the previous cohort.
    if (gen > 0 && rng.bernoulli(0.1)) gen -= 1;
    Request request;
    request.time = t;
    request.photo = static_cast<PhotoId>(
        static_cast<std::uint64_t>(gen) * photos_per_gen +
        (within.sample(rng) - 1));
    request.terminal =
        rng.bernoulli(0.7) ? TerminalType::mobile : TerminalType::pc;
    requests.push_back(request);
  }
  std::stable_sort(requests.begin(), requests.end(),
                   [](const Request& a, const Request& b) {
                     return std::pair{a.time.seconds, a.photo} <
                            std::pair{b.time.seconds, b.photo};
                   });

  Trace trace;
  trace.catalog = PhotoCatalog{std::move(photos), std::move(owners)};
  trace.requests = std::move(requests);
  trace.horizon = SimTime{kHorizonDays * kSecondsPerDay};
  return trace;
}

/// Mid-trace diurnal phase shift: every request after the midpoint moves
/// +8h, so the access-hour feature the classifier learned in the first
/// half lies about the second half (sortedness is preserved — a constant
/// shift of a sorted suffix).
Trace make_diurnal_shift_trace(std::uint64_t seed, double scale) {
  Trace trace = generate_default_trace(kBaseScale * scale, seed);
  const std::int64_t midpoint = trace.horizon.seconds / 2;
  for (Request& request : trace.requests) {
    if (request.time.seconds >= midpoint) {
      request.time = request.time + 8 * kSecondsPerHour;
    }
  }
  if (!trace.requests.empty()) {
    trace.horizon = SimTime{std::max(trace.horizon.seconds,
                                     trace.requests.back().time.seconds + 1)};
  }
  return trace;
}

/// Shard-failover replay: at the midpoint, shard 0 (of a 4-way partition)
/// "fails" — every photo it owned is re-keyed to a clone, which the
/// SplitMix64 partition scatters across the surviving keyspace. The
/// redistributed keys arrive cold: history entries, cache contents, and
/// learned popularity all belong to the dead key.
Trace make_shard_failover_trace(std::uint64_t seed, double scale) {
  Trace trace = generate_default_trace(kBaseScale * scale, seed);
  constexpr std::size_t kFailedShard = 0;
  constexpr std::size_t kShards = 4;
  const std::int64_t midpoint = trace.horizon.seconds / 2;
  std::vector<PhotoId> clone_of(trace.catalog.photo_count(), kInvalidPhoto);
  for (Request& request : trace.requests) {
    if (request.time.seconds < midpoint) continue;
    if (shard_of_photo(request.photo, kShards) != kFailedShard) continue;
    PhotoId& clone = clone_of[request.photo];
    if (clone == kInvalidPhoto) {
      clone = append_photo(trace, trace.catalog.photo(request.photo));
    }
    request.photo = clone;
  }
  return trace;
}

// --- Adapter trace builders -----------------------------------------------

Trace make_rocksdb_trace(std::uint64_t seed, double scale) {
  const auto records = static_cast<std::size_t>(
      std::max(20'000.0, 150'000 * scale));
  return trace_from_rocksdb_records(synth_rocksdb_records(seed, records));
}

Trace make_cloud_block_trace(std::uint64_t seed, double scale) {
  CloudBlockConfig config;
  config.seed = seed;
  config.requests = 150'000;
  config.hot_blocks = 8'000;
  return generate_cloud_block_trace(scaled(config, std::max(scale, 0.05)));
}

// --- Specs ----------------------------------------------------------------

/// A spec with the default configuration: no faults, 4 shards, one worker
/// per shard, capacity 2% of the object bytes.
[[nodiscard]] ScenarioSpec basic_spec(std::string name,
                                      std::string description,
                                      Trace (*make_trace)(std::uint64_t,
                                                          double)) {
  ScenarioSpec s;
  s.name = std::move(name);
  s.description = std::move(description);
  s.make_trace = make_trace;
  return s;
}

/// A checkpointer thread cycles save/load against scripted corruption
/// while all shards keep serving: the registry, the retry loop and the
/// generation fallback all cross threads here.
[[nodiscard]] ScenarioSpec make_checkpoint_corruption() {
  ScenarioSpec s = basic_spec(
      "checkpoint_corruption_mid_serve",
      "checkpoint save/load cycles absorb scripted corruption while the "
      "sharded replay keeps serving",
      &make_base_trace);
  // Distinct early windows per crash surface: the first cycles hit faults
  // (bounded retries absorb them), later cycles run clean.
  s.faults.push_back({"checkpoint.write.open_fail", window(1, 1)});
  s.faults.push_back({"checkpoint.write.bitflip", window(2, 3)});
  s.faults.push_back({"checkpoint.write.torn", window(4, 4)});
  s.faults.push_back({"checkpoint.rotate.fail", window(3, 3)});
  s.faults.push_back({"checkpoint.rename.fail", window(5, 5)});
  s.faults.push_back({"checkpoint.write.crash", window(6, 6)});
  s.faults.push_back({"checkpoint.load.io", window(1, 2)});
  s.resilience.checkpoint.backoff = fast_backoff(6);
  s.checkpoint = CheckpointPhase::during_replay;
  return s;
}

/// Every registered failpoint armed with a self-clearing trigger, plus the
/// full resilience layer to absorb them. The checkpoint.* names only
/// evaluate inside CheckpointManager, hence the after-replay round-trips.
[[nodiscard]] ScenarioSpec make_failpoint_storm() {
  ScenarioSpec s = basic_spec(
      "failpoint_storm",
      "every registered failpoint fires at least once; the replay and a "
      "checkpoint round-trip complete and fully recover",
      &make_base_trace);
  // Barrier 1: two throwing attempts, then a 250ms hang, then success —
  // watchdog retries (inline) absorb all three.
  s.faults.push_back({"trainer.train.fail", window(1, 2)});
  s.faults.push_back({"trainer.train.hang", window(1, 1)});
  // Serving-path faults: an SSD-write burst (consecutive evaluations both
  // exhaust the per-insert retry budget and then clear) and periodic
  // flash-crowd injections large enough to shed the injecting request.
  s.faults.push_back({"storage.ssd.write_error", window(50, 60)});
  s.faults.push_back({"chaos.flash_crowd", every_nth(997)});
  // One transient fault per checkpoint crash surface; the save retry
  // budget below outlasts the five throwing sites.
  for (const char* name :
       {"checkpoint.write.bitflip", "checkpoint.write.open_fail",
        "checkpoint.write.torn", "checkpoint.write.crash",
        "checkpoint.rotate.fail", "checkpoint.rename.fail",
        "checkpoint.load.io"}) {
    s.faults.push_back({name, once()});
  }
  s.resilience.overload.enabled = true;
  s.resilience.overload.flash_crowd_burst = 150.0;
  s.resilience.watchdog.backoff = fast_backoff(3);
  s.resilience.checkpoint.backoff = fast_backoff(8);
  s.resilience.ssd_write_max_retries = 2;
  s.checkpoint = CheckpointPhase::after_replay;
  return s;
}

[[nodiscard]] ScenarioSpec make_flash_crowd() {
  ScenarioSpec s = basic_spec(
      "flash_crowd",
      "chaos.flash_crowd bursts drive a shard through degraded admission "
      "into bounded load shedding",
      &make_base_trace);
  s.faults.push_back({"chaos.flash_crowd", window(1'500, 1'502)});
  s.resilience.overload.enabled = true;
  s.resilience.overload.service_rate_per_s = 0.5;
  s.resilience.overload.flash_crowd_burst = 150.0;
  s.threads = 1;  // pins the failpoint evaluation order
  return s;
}

/// A mid-schedule retrain hangs past the threaded watchdog's timeout: the
/// barrier abandons it (shards serve the last-good model) and the replay
/// keeps going. The window sits at the third trigger so the first two
/// barriers train clean, provided each fit lands inside the timeout; the
/// hang then holds the worker until the watchdog is destroyed, so every
/// later barrier is busy however fast the host runs.
[[nodiscard]] ScenarioSpec make_retrain_hang() {
  ScenarioSpec s = basic_spec(
      "retrain_hang",
      "a hung retrain is abandoned by the threaded watchdog; earlier "
      "barriers train clean and serving never stalls",
      &make_base_trace);
  s.faults.push_back({"trainer.train.hang", window(3, 3)});
  // A 200 ms timeout abandons the hang while still dwarfing a clean fit
  // (sanitizers included).
  s.resilience.watchdog.timeout_s = 0.2;
  return s;
}

/// One retrain throws once; a single watchdog retry reproduces the exact
/// tree (the failpoint sits before any trainer state mutation).
[[nodiscard]] ScenarioSpec make_retrain_transient() {
  ScenarioSpec s = basic_spec(
      "retrain_transient",
      "transient trainer failure absorbed by one watchdog retry; replay "
      "bit-identical to the fault-free golden",
      &make_base_trace);
  s.faults.push_back({"trainer.train.fail", once()});
  s.resilience.watchdog.backoff = fast_backoff(2);
  s.golden_identical = true;
  return s;
}

[[nodiscard]] std::vector<ScenarioSpec> build_all() {
  std::vector<ScenarioSpec> specs;
  specs.push_back(make_checkpoint_corruption());
  specs.push_back(basic_spec(
      "churn_purge",
      "generational key churn: cohorts go hot, get purged, never return",
      &make_churn_purge_trace));
  specs.push_back(basic_spec(
      "cloud_block",
      "cloud block-storage volumes: long sequential runs of large blocks "
      "over a small hot random-I/O set",
      &make_cloud_block_trace));
  specs.push_back(basic_spec(
      "diurnal_shift",
      "mid-trace +8h phase shift invalidates the learned access-hour "
      "feature",
      &make_diurnal_shift_trace));
  specs.push_back(make_failpoint_storm());
  specs.push_back(make_flash_crowd());
  specs.push_back(make_retrain_hang());
  specs.push_back(make_retrain_transient());
  specs.push_back(basic_spec(
      "rocksdb_blockcache",
      "RocksDB block-cache record stream (Zipf point reads + compaction "
      "scans) through the adapter",
      &make_rocksdb_trace));
  specs.push_back(basic_spec(
      "scan_flood",
      "periodic sequential scans stream large one-time objects through the "
      "hot set",
      &make_scan_flood_trace));
  specs.push_back(basic_spec(
      "shard_failover",
      "mid-trace shard failure re-keys one shard's working set cold across "
      "the survivors",
      &make_shard_failover_trace));

  // Registry cross-check: the spec list and scenario_names.h must agree
  // exactly (same names, same order), so a rename breaks loudly here and
  // in otac-lint instead of silently dropping a scenario from CI.
  const std::size_t known = std::size(kKnownScenarios);
  if (specs.size() != known) {
    throw std::logic_error("scenario: spec count != scenario_names.h");
  }
  for (std::size_t i = 0; i < known; ++i) {
    if (specs[i].name != kKnownScenarios[i]) {
      throw std::logic_error("scenario: spec '" + specs[i].name +
                             "' does not match scenario_names.h order");
    }
  }
  return specs;
}

}  // namespace

const std::vector<ScenarioSpec>& all() {
  static const std::vector<ScenarioSpec> specs = build_all();
  return specs;
}

const ScenarioSpec& find(std::string_view name) {
  for (const ScenarioSpec& spec : all()) {
    if (spec.name == name) return spec;
  }
  std::string message = "unknown scenario: ";
  message += name;
  message += " (known:";
  for (const ScenarioSpec& spec : all()) {
    message += ' ';
    message += spec.name;
  }
  message += ')';
  throw std::invalid_argument(message);
}

ScenarioMetrics summarize(const RunResult& result) {
  ScenarioMetrics m;
  m.requests = result.stats.requests;
  m.hits = result.stats.hits;
  m.insertions = result.stats.insertions;
  m.shed_requests = result.degradation.shed_requests;
  m.degraded_admits = result.degradation.degraded_admits;
  m.file_hit_rate = result.stats.file_hit_rate();
  m.byte_write_rate = result.stats.byte_write_rate();
  const auto histogram =
      result.obs.merged.histograms.find("latency.request_us");
  if (histogram != result.obs.merged.histograms.end()) {
    m.p99_latency_us = histogram->second.quantile(0.99);
  }
  m.trainings = result.trainings;
  return m;
}

ScenarioRunner::ScenarioRunner(const ScenarioSpec& spec, std::uint64_t seed,
                               double scale)
    : spec_(&spec),
      trace_(spec.make_trace(seed, scale)),
      system_(trace_),
      sharded_(system_) {
  capacity_bytes_ = static_cast<std::uint64_t>(system_.total_object_bytes() *
                                               spec.capacity_fraction);
  hit_rate_estimate_ = system_.estimate_hit_rate(capacity_bytes_);
}

RunConfig ScenarioRunner::config(AdmissionMode mode) const {
  RunConfig config;
  config.policy = PolicyKind::lru;
  config.capacity_bytes = capacity_bytes_;
  config.mode = mode;
  config.hit_rate_estimate = hit_rate_estimate_;
  config.shards = spec_->shards;
  config.threads = spec_->threads;
  config.resilience = spec_->resilience;
  return config;
}

bool ScenarioRun::golden_identical() const {
  return !golden || (result.stats == golden->stats &&
                     result.daily == golden->daily &&
                     result.trainings == golden->trainings);
}

ScenarioRun ScenarioRunner::run_with(const RunConfig& config) const {
  fail::Registry& registry = fail::Registry::instance();
  ScenarioRun run;
  if (spec_->golden_identical) {
    registry.disable_all();
    run.golden = sharded_.run(config);
  }

  // A scratch store in a fresh directory (concurrent test processes run
  // the same specs); its snapshot content is arbitrary, only whether the
  // store survives the faults matters.
  std::optional<CheckpointManager> store;
  std::string store_dir;
  if (spec_->checkpoint != CheckpointPhase::none) {
    store_dir = (std::filesystem::temp_directory_path() /
                 ("otac_scenario_" + spec_->name + "_XXXXXX"))
                    .string();
    if (::mkdtemp(store_dir.data()) == nullptr) {
      throw std::system_error(errno, std::generic_category(), store_dir);
    }
    store.emplace(store_dir);
    store->configure_retry(spec_->resilience.checkpoint);
  }
  ClassifierSnapshot snapshot;
  snapshot.m = 1000.0;
  snapshot.h = 0.5;
  snapshot.p = 0.2;
  snapshot.cost_v = 2.0;
  const auto cycle = [&] {
    (void)store->save_with_retry(snapshot);
    (void)store->load_with_retry();
    ++run.checkpoint_cycles;
  };

  registry.disable_all();
  // enable() rearms from scratch (hit/fire counters reset), so repeated
  // runs see the exact same trigger schedule.
  for (const ScenarioFault& fault : spec_->faults) {
    registry.enable(fault.failpoint, fault.spec);  // throws on unknown name
  }
  {
    std::jthread checkpointer;
    if (spec_->checkpoint == CheckpointPhase::during_replay) {
      checkpointer = std::jthread([&](const std::stop_token& stop) {
        while (!stop.stop_requested()) {
          cycle();
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
    run.result = sharded_.run(config);
  }  // stops and joins the checkpointer
  if (spec_->checkpoint == CheckpointPhase::after_replay) {
    // Two cycles: rotation (current -> previous) needs an existing current
    // generation, so the rotate failpoint only evaluates on the second.
    cycle();
    cycle();
  }
  for (const ScenarioFault& fault : spec_->faults) {
    run.failpoint_fires += registry.fires(fault.failpoint);
  }
  registry.disable_all();

  if (store) {
    // Faults cleared: a clean save must land a current generation that
    // loads as such. A manager driven read-only fails this on purpose.
    const bool saved = store->save_with_retry(snapshot);
    run.checkpoint_recovered =
        saved && store->load_with_retry().origin == CheckpointOrigin::current;
    std::filesystem::remove_all(store_dir);
  }
  return run;
}

ScenarioRun ScenarioRunner::run(AdmissionMode mode) const {
  return run_with(config(mode));
}

}  // namespace otac::scenario
