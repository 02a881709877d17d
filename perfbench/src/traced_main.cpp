// Per-layer breakdown driver (the traced run).
//
//   otac_bench_traced --workload <proposal|original> --seed <n> --seconds <s>
//
// traced_replay() re-drives ShardedCache::run through the layers' public
// functions — CachePolicy::access/insert, ServingCore::stage/
// classify_staged/admit_staged, DailyTrainer::offer, TrainerWatchdog::
// retrain (DailyTrainer::train), CompiledTree::compile, ModelSlot::store,
// compute_criteria, the obs registries — making the same calls in the same
// order as its batched loop and retrain barrier, with clock reads around
// the calls at micro-batch granularity. Its RunResult must equal
// ShardedCache::run's (operator==, eviction hash included), so the spans
// describe the run the end-to-end driver times.
//
// Layer seconds are wall-clock shares of the traced replay: serial
// sections (estimate, criteria, partition, barriers) count as measured;
// inside a parallel epoch a layer's busy time summed over shards is
// divided by the worker count. Whatever no span covers (loop overhead,
// pool dispatch, idle workers) is bench.unattributed_s, so the layer
// seconds plus bench.unattributed_s equal bench.traced_replay_s.
//
// The replay pass of a proposal micro-batch interleaves policy and
// admission per request, so batch-granularity spans cannot split it. Every
// kSampleEvery-th micro-batch of a shard therefore times each call (minus
// the calibrated cost of a clock read), and the pass's total is split
// between cachesim.policy_s and core.admit_s in the sampled proportion.
#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/history_table.h"
#include "core/model_slot.h"
#include "core/run_metrics.h"
#include "core/serving_core.h"
#include "core/sharded_cache.h"
#include "core/trainer.h"
#include "core/trainer_watchdog.h"
#include "storage/latency_model.h"
#include "util/thread_pool.h"
#include "wire_client.h"

namespace otac::bench {
namespace {

using Ns = std::int64_t;

Ns now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double to_s(Ns ns) { return static_cast<double>(ns) / 1e9; }

/// Mean cost of one clock read.
Ns clock_read_ns() {
  constexpr Ns kReads = 1 << 20;
  const Ns start = now_ns();
  Ns last = start;
  for (Ns i = 0; i < kReads; ++i) last = now_ns();
  return (last - start) / kReads;
}

constexpr std::uint64_t kSampleEvery = 16;

/// ShardedCache::run's per-shard state plus this shard's span totals.
struct ShardState {
  std::unique_ptr<CachePolicy> policy;
  std::unique_ptr<ServingCore> core;
  std::unique_ptr<DailyTrainer> sampler;
  std::unique_ptr<obs::MetricsRegistry> registry;
  obs::LatencyRecorder recorder;
  obs::FixedHistogram* batch_sizes = nullptr;
  ml::CompiledTree compiled;
  CacheStats stats;
  std::size_t pos = 0;

  Ns busy = 0;      // whole epoch task
  Ns stage = 0;     // gather + prefetch + ServingCore::stage
  Ns offer = 0;     // DailyTrainer::offer
  Ns classify = 0;  // ServingCore::classify_staged
  Ns replay = 0;    // access / admit_staged / insert pass
  Ns sampled_policy = 0;
  Ns sampled_admit = 0;
  std::uint64_t batches = 0;
  std::uint64_t staged_rows = 0;
};

struct Breakdown {
  // Wall-clock shares of the traced replay, seconds.
  double lru_estimate = 0.0;
  double criteria = 0.0;
  double partition = 0.0;
  double shard_setup = 0.0;
  double policy = 0.0;
  double stage = 0.0;
  double offer = 0.0;
  double classify = 0.0;
  double admit = 0.0;
  double barrier_drain = 0.0;
  double fit = 0.0;
  double publish = 0.0;
  double barrier_snapshot = 0.0;
  double final_report = 0.0;
  double wall = 0.0;
  // Busy time summed over shards, ns.
  double policy_ns = 0.0;
  double stage_ns = 0.0;
  double offer_ns = 0.0;
  double classify_ns = 0.0;
  double admit_ns = 0.0;
  double fit_max = 0.0;
  std::uint64_t fits = 0;
  std::uint64_t batches = 0;
  std::uint64_t staged_rows = 0;
  std::uint64_t rectified = 0;

  [[nodiscard]] double attributed() const {
    return lru_estimate + criteria + partition + shard_setup + policy + stage +
           offer + classify + admit + barrier_drain + fit + publish +
           barrier_snapshot + final_report;
  }
};

void populate_shard_registries(std::vector<ShardState>& states,
                               bool is_proposal) {
  for (ShardState& state : states) {
    populate_cache_metrics(*state.registry, state.stats);
    if (is_proposal) {
      populate_history_metrics(*state.registry, state.core->history);
      populate_degradation_metrics(*state.registry, state.core->degradation);
    }
  }
}

obs::MetricsSnapshot merged_snapshot(const obs::MetricsRegistry& global,
                                     const std::vector<ShardState>& states) {
  obs::MetricsSnapshot merged = global.snapshot();
  for (const ShardState& state : states) {
    merged.merge(state.registry->snapshot());
  }
  return merged;
}

/// Non-proposal epoch body: ShardedCache::run's scalar loop, timed in
/// chunks of one micro-batch.
void replay_scalar(ShardState& state, const std::vector<std::uint64_t>& mine,
                   std::uint64_t epoch_end, const Trace& trace,
                   const NextAccessInfo& oracle, AdmissionMode mode,
                   double criteria_m) {
  constexpr std::size_t kChunk = ServingCore::kAdmissionBatchCapacity;
  while (state.pos < mine.size() && mine[state.pos] < epoch_end) {
    const Ns chunk_start = now_ns();
    for (std::size_t n = 0;
         n < kChunk && state.pos < mine.size() && mine[state.pos] < epoch_end;
         ++n, ++state.pos) {
      const std::uint64_t i = mine[state.pos];
      const Request& request = trace.requests[i];
      const PhotoMeta& photo = trace.catalog.photo(request.photo);
      state.policy->set_next_access_hint(oracle.next[i]);
      const bool hit = state.policy->access(request.photo, photo.size_bytes);
      state.stats.requests += 1;
      state.stats.request_bytes += photo.size_bytes;
      state.recorder.record(hit);
      if (hit) {
        state.stats.hits += 1;
        state.stats.hit_bytes += photo.size_bytes;
        continue;
      }
      bool admitted = false;
      switch (mode) {
        case AdmissionMode::original:
          admitted = true;
          break;
        case AdmissionMode::bypass:
          admitted = false;
          break;
        case AdmissionMode::ideal: {
          const std::uint64_t distance = oracle.reaccess_distance(i);
          admitted = distance != kNoNextAccess &&
                     static_cast<double>(distance) <= criteria_m;
          break;
        }
        case AdmissionMode::proposal:
          break;
      }
      if (admitted) {
        if (state.policy->insert(request.photo, photo.size_bytes)) {
          state.stats.insertions += 1;
          state.stats.inserted_bytes += photo.size_bytes;
        }
      } else {
        state.stats.rejected += 1;
        state.stats.rejected_bytes += photo.size_bytes;
      }
    }
    state.replay += now_ns() - chunk_start;
  }
}

/// Proposal epoch body: ShardedCache::run's batched loop with a span per
/// pass of every micro-batch.
void replay_batched(ShardState& state, const std::vector<std::uint64_t>& mine,
                    std::uint64_t epoch_end, const Trace& trace,
                    const NextAccessInfo& oracle, const ml::CompiledTree* tree,
                    Ns clock_cost) {
  constexpr std::size_t kBatch = ServingCore::kAdmissionBatchCapacity;
  std::array<const PhotoMeta*, kBatch> photos{};
  std::array<std::span<const float>, kBatch> rows{};
  while (state.pos < mine.size() && mine[state.pos] < epoch_end) {
    const Ns t0 = now_ns();
    std::size_t batch = 0;
    while (batch < kBatch && state.pos + batch < mine.size() &&
           mine[state.pos + batch] < epoch_end) {
      const std::uint64_t i = mine[state.pos + batch];
      const Request& request = trace.requests[i];
      photos[batch] = &trace.catalog.photo(request.photo);
      state.core->prefetch(request, *photos[batch]);
      ++batch;
    }
    // Pass 1, split in two loops: stage() touches only the extractor and
    // offer() only the sampler, and each staged row stays valid until the
    // next begin_batch(), so staging the whole batch first changes nothing.
    state.core->begin_batch();
    for (std::size_t b = 0; b < batch; ++b) {
      const Request& request = trace.requests[mine[state.pos + b]];
      rows[b] = state.core->stage(request, *photos[b]);
    }
    const Ns t1 = now_ns();
    for (std::size_t b = 0; b < batch; ++b) {
      const std::uint64_t i = mine[state.pos + b];
      state.sampler->offer(i, trace.requests[i], rows[b]);
    }
    const Ns t2 = now_ns();
    // Pass 2.
    state.core->classify_staged(tree);
    state.batch_sizes->add(static_cast<double>(batch));
    const Ns t3 = now_ns();
    // Pass 3, per-call timed on sampled batches only.
    const bool sampled = state.batches % kSampleEvery == 0;
    for (std::size_t b = 0; b < batch; ++b) {
      const std::uint64_t i = mine[state.pos + b];
      const Request& request = trace.requests[i];
      const PhotoMeta& photo = *photos[b];
      const Ns a0 = sampled ? now_ns() : 0;
      state.policy->set_next_access_hint(oracle.next[i]);
      const bool hit = state.policy->access(request.photo, photo.size_bytes);
      state.stats.requests += 1;
      state.stats.request_bytes += photo.size_bytes;
      state.recorder.record(hit);
      if (hit) {
        state.stats.hits += 1;
        state.stats.hit_bytes += photo.size_bytes;
        if (sampled) state.sampled_policy += now_ns() - a0 - clock_cost;
        continue;
      }
      const Ns a1 = sampled ? now_ns() : 0;
      const bool admitted = state.core->admit_staged(b, i, request, photo);
      const Ns a2 = sampled ? now_ns() : 0;
      if (admitted) {
        if (state.policy->insert(request.photo, photo.size_bytes)) {
          state.stats.insertions += 1;
          state.stats.inserted_bytes += photo.size_bytes;
        }
      } else {
        state.stats.rejected += 1;
        state.stats.rejected_bytes += photo.size_bytes;
      }
      if (sampled) {
        state.sampled_policy += (a1 - a0) + (now_ns() - a2) - 2 * clock_cost;
        state.sampled_admit += a2 - a1 - clock_cost;
      }
    }
    const Ns t4 = now_ns();
    state.pos += batch;
    state.stage += t1 - t0;
    state.offer += t2 - t1;
    state.classify += t3 - t2;
    state.replay += t4 - t3;
    ++state.batches;
    state.staged_rows += batch;
  }
}

/// ShardedCache::run, traced. Default resilience settings only (the
/// overload loop is out of scope: the benchmark never enables it).
RunResult traced_replay(const IntelligentCache& system, const RunConfig& config,
                        Breakdown& out) {
  if (config.resilience.overload.enabled) {
    throw std::invalid_argument("traced replay: overload loop not traced");
  }
  const Ns clock_cost = clock_read_ns();
  const Ns run_start = now_ns();
  const std::size_t shards = config.shards;
  const std::uint64_t shard_capacity = config.capacity_bytes / shards;

  RunResult result;
  const Trace& trace = system.trace();
  const NextAccessInfo& oracle = system.oracle();
  const bool is_proposal = config.mode == AdmissionMode::proposal;
  const bool needs_criteria = is_proposal || config.mode == AdmissionMode::ideal;
  if (needs_criteria) {
    Ns t = now_ns();
    const double h = config.hit_rate_estimate
                         ? *config.hit_rate_estimate
                         : system.estimate_hit_rate(config.capacity_bytes);
    out.lru_estimate += to_s(now_ns() - t);
    t = now_ns();
    result.criteria = compute_criteria(trace, oracle, config.capacity_bytes, h,
                                       config.ota.criteria_iterations);
    if (config.policy == PolicyKind::lirs) {
      result.criteria.m =
          lirs_criteria(result.criteria.m, config.lirs_lir_fraction);
    }
    result.cost_v = system.cost_v_for(config.capacity_bytes, config.ota);
    out.criteria += to_s(now_ns() - t);
  }

  Ns t = now_ns();
  std::vector<std::vector<std::uint64_t>> shard_requests(shards);
  for (std::uint64_t i = 0; i < trace.requests.size(); ++i) {
    shard_requests[shard_of_photo(trace.requests[i].photo, shards)].push_back(
        i);
  }
  out.partition += to_s(now_ns() - t);

  t = now_ns();
  ServingConfig serving;
  std::size_t history_slice = 0;
  OtaConfig sampler_ota = config.ota;
  std::size_t model_arity = 0;
  if (is_proposal) {
    serving.feature_subset = config.ota.feature_subset;
    serving.m = result.criteria.m;
    serving.admit_before_first_model = config.ota.admit_before_first_model;
    const std::size_t history_total = history_table_capacity(
        result.criteria.m, result.criteria.h, result.criteria.p,
        config.ota.history_table_factor);
    history_slice = history_total / shards;
    if (history_slice == 0 && history_total > 0) history_slice = 1;
    const int rate = config.ota.sample_records_per_minute;
    sampler_ota.sample_records_per_minute =
        rate == 0 ? 0 : std::max(1, rate / static_cast<int>(shards));
    model_arity = config.ota.feature_subset.empty()
                      ? FeatureExtractor::kFeatureCount
                      : config.ota.feature_subset.size();
  }
  const LatencyModel latency{config.latency};
  const bool classified_path = needs_criteria;
  std::vector<ShardState> states(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    ShardState& state = states[s];
    state.policy = make_policy(config.policy, shard_capacity,
                               config.lirs_lir_fraction);
    state.registry = std::make_unique<obs::MetricsRegistry>();
    state.recorder = obs::LatencyRecorder{
        state.registry->histogram(kLatencyHistogramName,
                                  LatencyModel::histogram_bounds_us()),
        latency.request_latency_us(true, classified_path),
        latency.request_latency_us(false, classified_path)};
    if (is_proposal) {
      state.core = std::make_unique<ServingCore>(trace.catalog, oracle,
                                                 serving, history_slice);
      state.core->bind_metrics(*state.registry);
      state.sampler = std::make_unique<DailyTrainer>(
          oracle, sampler_ota, result.criteria.m, result.cost_v);
      state.batch_sizes = state.registry->histogram(
          kAdmissionBatchHistogramName, admission_batch_histogram_bounds());
    }
  }
  for (ShardState& state : states) {
    CacheStats* stats = &state.stats;
    state.policy->set_eviction_callback(
        [stats](PhotoId key, std::uint32_t size) {
          stats->note_eviction(key, size);
        });
  }
  ModelSlot model;
  DailyTrainer trainer{oracle, config.ota, result.criteria.m, result.cost_v};
  TrainerWatchdog watchdog{trainer, config.resilience.watchdog};
  DegradationCounters trainer_degradation;
  obs::MetricsRegistry global_registry;
  obs::FixedHistogram* fit_seconds = global_registry.histogram(
      kFitHistogramName, duration_histogram_bounds_s());
  obs::MetricsRegistry::Counter fits = global_registry.counter("trainer.fits");
  obs::MetricsRegistry::Counter fit_skipped =
      global_registry.counter("trainer.fit_skipped");
  obs::MetricsRegistry::Counter models_published =
      global_registry.counter("trainer.models_published");
  obs::MetricsRegistry::Counter samples_drained =
      global_registry.counter("trainer.samples_drained");
  obs::MetricsRegistry::Counter compiled_tree_swaps =
      global_registry.counter("trainer.compiled_tree_swaps");
  std::vector<std::uint64_t> triggers;
  if (is_proposal) triggers = retrain_trigger_indices(trace, config.ota);
  const std::size_t hardware = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  const std::size_t threads =
      std::min(shards, config.threads != 0 ? config.threads : hardware);
  ThreadPool pool{threads};
  out.shard_setup += to_s(now_ns() - t);

  const std::uint64_t total_requests = trace.requests.size();
  std::uint64_t epoch_begin = 0;
  std::size_t next_trigger = 0;
  while (epoch_begin < total_requests) {
    const bool has_trigger = is_proposal && next_trigger < triggers.size();
    const std::uint64_t epoch_end =
        has_trigger ? triggers[next_trigger] + 1 : total_requests;
    pool.parallel_for(shards, [&](std::size_t s) {
      ShardState& state = states[s];
      const Ns task_start = now_ns();
      if (is_proposal) {
        const ml::CompiledTree* tree =
            model.load(state.compiled) ? &state.compiled : nullptr;
        replay_batched(state, shard_requests[s], epoch_end, trace, oracle,
                       tree, clock_cost);
      } else {
        replay_scalar(state, shard_requests[s], epoch_end, trace, oracle,
                      config.mode, result.criteria.m);
      }
      state.busy += now_ns() - task_start;
    });

    if (has_trigger) {
      const std::uint64_t trigger = triggers[next_trigger];
      ++next_trigger;
      Ns b = now_ns();
      std::vector<TrainingSample> drained;
      for (ShardState& state : states) {
        const std::deque<TrainingSample>& buffer = state.sampler->samples();
        drained.insert(drained.end(), buffer.begin(), buffer.end());
        state.sampler->restore({}, state.sampler->current_minute(),
                               state.sampler->minute_count());
      }
      std::sort(drained.begin(), drained.end(),
                [](const TrainingSample& x, const TrainingSample& y) {
                  return x.index < y.index;
                });
      *samples_drained += drained.size();
      const Ns fit_started = now_ns();
      out.barrier_drain += to_s(fit_started - b);
      const RetrainOutcome outcome = watchdog.retrain(
          std::move(drained), trigger, trace.requests[trigger].time);
      const Ns fit_done = now_ns();
      out.fit += to_s(fit_done - fit_started);
      out.fit_max = std::max(out.fit_max, to_s(fit_done - fit_started));
      trainer_degradation.retrain_retries +=
          static_cast<std::uint64_t>(outcome.retries);
      switch (outcome.status) {
        case RetrainOutcome::Status::trained:
          ++*fits;
          ++out.fits;
          if (validate_serving_model(*outcome.tree, model_arity)) {
            const ml::CompiledTree compiled =
                ml::CompiledTree::compile(*outcome.tree);
            if (ModelSlot::fits(compiled)) {
              model.store(compiled);
              ++result.trainings;
              ++*models_published;
              ++*compiled_tree_swaps;
            } else {
              ++trainer_degradation.rejected_models;
            }
          } else {
            ++trainer_degradation.rejected_models;
          }
          break;
        case RetrainOutcome::Status::skipped:
          ++*fit_skipped;
          break;
        case RetrainOutcome::Status::failed:
          ++trainer_degradation.retrain_failures;
          break;
        case RetrainOutcome::Status::timed_out:
        case RetrainOutcome::Status::busy:
          ++trainer_degradation.retrain_timeouts;
          break;
      }
      fit_seconds->add(to_s(now_ns() - fit_started));
      b = now_ns();
      out.publish += to_s(b - fit_done);
      populate_shard_registries(states, is_proposal);
      populate_degradation_metrics(global_registry, trainer_degradation);
      global_registry.set("trainer.trainings",
                          static_cast<std::uint64_t>(result.trainings));
      result.obs.timeline.push_back(
          obs::BarrierSample{trigger, trace.requests[trigger].time.seconds,
                             merged_snapshot(global_registry, states)});
      out.barrier_snapshot += to_s(now_ns() - b);
    }
    epoch_begin = epoch_end;
  }

  t = now_ns();
  result.stats = states[0].stats;
  for (std::size_t s = 1; s < shards; ++s) result.stats.merge(states[s].stats);
  if (is_proposal) {
    result.degradation = trainer_degradation;
    std::map<std::int64_t, DayClassifierMetrics> daily;
    for (const ShardState& state : states) {
      result.history_capacity += state.core->history.capacity();
      result.degradation.merge(state.core->degradation);
      for (const DayClassifierMetrics& metrics : state.core->daily) {
        auto [it, inserted] = daily.try_emplace(metrics.day, metrics);
        if (!inserted) {
          it->second.raw.merge(metrics.raw);
          it->second.corrected.merge(metrics.corrected);
        }
      }
    }
    result.daily.reserve(daily.size());
    for (const auto& [day, metrics] : daily) result.daily.push_back(metrics);
  }
  const double hit_rate = result.stats.file_hit_rate();
  result.mean_latency_us =
      config.mode == AdmissionMode::original ||
              config.mode == AdmissionMode::bypass
          ? latency.mean_access_time_original_us(hit_rate)
          : latency.mean_access_time_proposed_us(hit_rate);
  populate_shard_registries(states, is_proposal);
  if (is_proposal) {
    populate_degradation_metrics(global_registry, trainer_degradation);
    global_registry.set("trainer.trainings",
                        static_cast<std::uint64_t>(result.trainings));
  }
  result.obs.mode = admission_mode_name(config.mode);
  result.obs.policy = policy_name(config.policy);
  result.obs.shards = shards;
  result.obs.threads = threads;
  result.obs.per_shard.reserve(shards);
  for (const ShardState& state : states) {
    result.obs.per_shard.push_back(state.registry->snapshot());
  }
  result.obs.merged = merged_snapshot(global_registry, states);
  if (!trace.requests.empty()) {
    const std::uint64_t last = trace.requests.size() - 1;
    if (result.obs.timeline.empty() ||
        result.obs.timeline.back().request_index != last) {
      result.obs.timeline.push_back(obs::BarrierSample{
          last, trace.requests.back().time.seconds, result.obs.merged});
    }
  }
  result.obs.derived = derived_run_metrics(result.stats, result.mean_latency_us);
  out.final_report += to_s(now_ns() - t);
  out.wall = to_s(now_ns() - run_start);

  // Parallel epochs: busy time over the worker count is a layer's share
  // of wall time; the replay pass splits by the sampled proportion.
  const double lanes = static_cast<double>(threads);
  for (const ShardState& state : states) {
    const double replay = static_cast<double>(state.replay);
    const double sampled =
        static_cast<double>(state.sampled_policy + state.sampled_admit);
    const double admit_share =
        sampled > 0.0
            ? std::clamp(static_cast<double>(state.sampled_admit) / sampled,
                         0.0, 1.0)
            : 0.0;
    out.policy_ns += replay * (1.0 - admit_share);
    out.admit_ns += replay * admit_share;
    out.stage_ns += static_cast<double>(state.stage);
    out.offer_ns += static_cast<double>(state.offer);
    out.classify_ns += static_cast<double>(state.classify);
    out.batches += state.batches;
    out.staged_rows += state.staged_rows;
    if (is_proposal) out.rectified += state.core->history.rectified_count();
  }
  out.policy = out.policy_ns / 1e9 / lanes;
  out.admit = out.admit_ns / 1e9 / lanes;
  out.stage = out.stage_ns / 1e9 / lanes;
  out.offer = out.offer_ns / 1e9 / lanes;
  out.classify = out.classify_ns / 1e9 / lanes;
  return result;
}

/// Untraced reference and traced replay on fresh IntelligentCache
/// instances (so each pays the LRU estimate), alternated twice.
struct ReplayPair {
  Breakdown breakdown;  // of the last traced replay
  RunResult result;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::uint64_t served = 0;
};

ReplayPair replay_pair(const Trace& trace, const Workload& workload,
                       bool wire_shape, int rounds, Checks& checks) {
  ReplayPair pair;
  for (int round = 0; round < rounds; ++round) {
    const IntelligentCache reference_system{trace};
    const RunConfig config =
        wire_shape ? wire_config(reference_system).run
                   : replay_config(workload, reference_system);
    const Clock::time_point start = Clock::now();
    RunResult reference = ShardedCache{reference_system}.run(config);
    pair.untraced_s.push_back(seconds_since(start));

    const IntelligentCache traced_system{trace};
    Breakdown breakdown;
    const RunResult traced = traced_replay(traced_system, config, breakdown);
    pair.traced_s.push_back(breakdown.wall);
    checks.expect(traced == reference,
                  "traced RunResult equals ShardedCache::run's");
    checks.expect(breakdown.attributed() <= breakdown.wall,
                  "layer spans fit inside the traced replay");
    pair.served += reference.stats.requests + traced.stats.requests;
    pair.breakdown = breakdown;
    pair.result = std::move(reference);
  }
  return pair;
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

int run(const Args& args) {
  const Workload& workload = find_workload(args.workload);
  Checks checks;

  const Clock::time_point generate_start = Clock::now();
  const Trace trace = make_trace(kReplayScale, args.seed);
  const double generate_s = seconds_since(generate_start);
  const Clock::time_point oracle_start = Clock::now();
  { const IntelligentCache system{trace}; }
  const double oracle_s = seconds_since(oracle_start);

  const ReplayPair replay = replay_pair(trace, workload, false, 2, checks);
  const Breakdown& b = replay.breakdown;
  const CacheStats& stats = replay.result.stats;
  ml::ConfusionMatrix corrected;
  for (const DayClassifierMetrics& day : replay.result.daily) {
    corrected.merge(day.corrected);
  }

  // The wire phase: one open-loop pass for the net layer, and a GET-only
  // traced replay of the wire trace and configuration, whose barriers are
  // the ones that set wire_p99_us.
  const WirePass wire = run_wire_pass(args.seed, checks);
  std::vector<std::int64_t> lag = wire.out.send_lag_ns;
  std::sort(lag.begin(), lag.end());
  const Trace wire_trace = make_trace(kWireScale, args.seed);
  const ReplayPair wire_replay =
      replay_pair(wire_trace, workload, true, 1, checks);

  const double requests = static_cast<double>(stats.requests);
  const double misses = static_cast<double>(stats.requests - stats.hits);
  const double untraced_s = median(replay.untraced_s);
  const double traced_s = median(replay.traced_s);
  const std::vector<Metric> metrics = {
      {"trace.generate_s", generate_s, "s"},
      {"trace.oracle_s", oracle_s, "s"},
      {"cachesim.lru_estimate_s", b.lru_estimate, "s"},
      {"cachesim.policy_s", b.policy, "s"},
      {"cachesim.policy_ns_per_req", b.policy_ns / requests, "ns"},
      {"cachesim.evictions", static_cast<double>(stats.evictions), "count"},
      {"cachesim.insert_refused",
       static_cast<double>(stats.requests - stats.hits - stats.insertions -
                           stats.rejected),
       "count"},
      {"core.criteria_s", b.criteria, "s"},
      {"core.partition_s", b.partition, "s"},
      {"core.shard_setup_s", b.shard_setup, "s"},
      {"core.stage_s", b.stage, "s"},
      {"core.stage_ns_per_req", b.stage_ns / requests, "ns"},
      {"core.offer_s", b.offer, "s"},
      {"core.offer_ns_per_req", b.offer_ns / requests, "ns"},
      {"core.admit_s", b.admit, "s"},
      {"core.admit_ns_per_miss", ratio(b.admit_ns, misses), "ns"},
      {"core.barrier_drain_s", b.barrier_drain, "s"},
      {"core.rectified", static_cast<double>(b.rectified), "count"},
      {"core.rejected_misses", static_cast<double>(stats.rejected), "count"},
      {"core.rectify_ratio",
       ratio(static_cast<double>(b.rectified),
             static_cast<double>(stats.rejected)),
       "ratio"},
      {"ml.classify_s", b.classify, "s"},
      {"ml.classify_ns_per_req", b.classify_ns / requests, "ns"},
      {"ml.batch_rows_mean",
       ratio(static_cast<double>(b.staged_rows),
             static_cast<double>(b.batches)),
       "rows"},
      {"ml.fits", static_cast<double>(b.fits), "count"},
      {"ml.fit_s", b.fit, "s"},
      {"ml.fit_max_s", b.fit_max, "s"},
      {"ml.wire_fit_max_s", wire_replay.breakdown.fit_max, "s"},
      {"ml.publish_s", b.publish, "s"},
      {"ml.accuracy", corrected.accuracy(), "ratio"},
      {"obs.barrier_snapshot_s", b.barrier_snapshot, "s"},
      {"obs.final_report_s", b.final_report, "s"},
      {"net.daemon_start_s", wire.daemon_start_s, "s"},
      {"net.stop_s", wire.stop_s, "s"},
      {"net.frames_received", static_cast<double>(wire.wire.frames_received),
       "count"},
      {"net.frames_sent", static_cast<double>(wire.wire.frames_sent), "count"},
      {"net.protocol_errors", static_cast<double>(wire.wire.protocol_errors),
       "count"},
      {"net.send_lag_p99_us",
       static_cast<double>(sorted_quantile(lag, 0.99)) / 1e3, "us"},
      {"net.send_lag_max_us", static_cast<double>(lag.back()) / 1e3, "us"},
      {"bench.traced_replay_s", b.wall, "s"},
      {"bench.untraced_replay_s", untraced_s, "s"},
      {"bench.trace_overhead_frac", traced_s / untraced_s - 1.0, "ratio"},
      {"bench.unattributed_s", b.wall - b.attributed(), "s"},
  };

  Info info;
  info.strings = {{"workload", workload.name},
                  {"mode", admission_mode_name(workload.mode)}};
  info.numbers = {
      {"seed", static_cast<double>(args.seed)},
      {"replay_requests", requests},
      {"replay_photos", static_cast<double>(trace.catalog.photo_count())},
      {"wire_requests", static_cast<double>(wire.requests)},
      {"sample_every_batches", static_cast<double>(kSampleEvery)},
  };
  print_info(info);
  print_table(metrics);
  const std::uint64_t attempted = replay.served + wire_replay.served +
                                  wire.out.gets_sent + wire.out.puts_sent;
  print_result(checks.ok(), attempted, wire.out.failed_gets, metrics);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace otac::bench

int main(int argc, char** argv) {
  try {
    return otac::bench::run(otac::bench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "otac_bench_traced: %s\n", error.what());
    return 2;
  }
}
