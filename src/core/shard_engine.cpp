#include "core/shard_engine.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <map>
#include <stdexcept>

#include "core/history_table.h"
#include "core/run_metrics.h"
#include "core/shard_queue.h"
#include "core/sharded_cache.h"
#include "ml/compiled_tree.h"
#include "storage/latency_model.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace otac {

// Everything one shard touches on the request path. Shards interact only
// through the shared model slot, so concurrent batches on different
// shards never contend on this state — including the metrics registry:
// each shard accumulates into its own and the registries meet only at
// barriers (merged in shard order).
struct ShardEngine::Shard {
  std::unique_ptr<CachePolicy> policy;
  std::unique_ptr<ServingCore> core;      // proposal only
  std::unique_ptr<DailyTrainer> sampler;  // proposal only: budget + buffer
  std::unique_ptr<ShardQueue> queue;      // proposal + overload only
  std::unique_ptr<obs::MetricsRegistry> registry;
  obs::LatencyRecorder recorder;
  obs::FixedHistogram* batch_sizes = nullptr;  // proposal only
  ml::CompiledTree compiled;  // this shard's model snapshot (proposal only)
  const ml::CompiledTree* tree = nullptr;
  std::uint64_t generation = std::numeric_limits<std::uint64_t>::max();
  CacheStats stats;
};

ShardEngine::ShardEngine(const IntelligentCache& system,
                         const RunConfig& config, std::uint64_t publish_lag)
    : system_(&system),
      trace_(&system.trace()),
      oracle_(&system.oracle()),
      config_(config),
      publish_lag_(publish_lag),
      is_proposal_(config.mode == AdmissionMode::proposal),
      schedule_(config.ota) {
  if (config.capacity_bytes == 0) {
    throw std::invalid_argument("ShardEngine: zero capacity");
  }
  const std::size_t shards = config.shards;
  if (shards == 0) {
    throw std::invalid_argument("ShardEngine: zero shards");
  }
  const std::uint64_t shard_capacity = config.capacity_bytes / shards;
  if (shard_capacity == 0) {
    throw std::invalid_argument(
        "ShardEngine: capacity splits to zero bytes per shard");
  }

  // Criteria / cost are global properties of the trace and total capacity —
  // shards share one M and one cost matrix.
  system.fill_criteria(config, result_);

  ServingConfig serving;
  std::size_t history_slice = 0;
  OtaConfig sampler_ota = config.ota;
  if (is_proposal_) {
    serving.feature_subset = config.ota.feature_subset;
    serving.m = result_.criteria.m;
    serving.admit_before_first_model = config.ota.admit_before_first_model;
    const std::size_t history_total = history_table_capacity(
        result_.criteria.m, result_.criteria.h, result_.criteria.p,
        config.ota.history_table_factor);
    history_slice = history_total / shards;
    if (history_slice == 0 && history_total > 0) history_slice = 1;
    // Each shard applies its 1/N slice of the per-minute sampling budget,
    // so the aggregate sampling rate matches the paper's §3.1.1 knob (and
    // shards=1 keeps the exact unsharded budget).
    const int rate = config.ota.sample_records_per_minute;
    sampler_ota.sample_records_per_minute =
        rate == 0 ? 0 : std::max(1, rate / static_cast<int>(shards));
    model_arity_ = config.ota.feature_subset.empty()
                       ? FeatureExtractor::kFeatureCount
                       : config.ota.feature_subset.size();
  }

  const LatencyModel latency{config.latency};
  const bool classified_path = classifies(config.mode);
  shards_ = std::vector<Shard>(shards);
  for (Shard& shard : shards_) {
    shard.policy = make_policy(config.policy, shard_capacity,
                               config.lirs_lir_fraction);
    // Cold: per-shard construction, once per engine.
    // otac-lint: allow(hotpath-alloc)
    shard.registry = std::make_unique<obs::MetricsRegistry>();
    shard.recorder = obs::LatencyRecorder{
        shard.registry->histogram(kLatencyHistogramName,
                                  LatencyModel::histogram_bounds_us()),
        latency.request_latency_us(true, classified_path),
        latency.request_latency_us(false, classified_path)};
    if (is_proposal_) {
      // otac-lint: allow(hotpath-alloc)
      shard.core = std::make_unique<ServingCore>(trace_->catalog, *oracle_,
                                                 serving, history_slice);
      shard.core->bind_metrics(*shard.registry);
      // otac-lint: allow(hotpath-alloc)
      shard.sampler = std::make_unique<DailyTrainer>(
          *oracle_, sampler_ota, result_.criteria.m, result_.cost_v);
      shard.batch_sizes = shard.registry->histogram(
          kAdmissionBatchHistogramName, admission_batch_histogram_bounds());
      if (config.resilience.overload.enabled) {
        // otac-lint: allow(hotpath-alloc)
        shard.queue = std::make_unique<ShardQueue>(config.resilience.overload);
      }
    }
    CacheStats* stats = &shard.stats;  // shards_ never reallocates now
    shard.policy->set_eviction_callback(
        [stats](PhotoId key, std::uint32_t size) {
          stats->note_eviction(key, size);
        });
  }

  // The trainer side: only barriers and the watchdog's worker touch it.
  // With the default WatchdogConfig (inline, zero retries) and no lag,
  // supervision is exactly the historical try/catch-once barrier; a lag
  // fits on the worker so the shards can serve meanwhile.
  // otac-lint: allow(hotpath-alloc)
  trainer_ = std::make_unique<DailyTrainer>(*oracle_, config.ota,
                                            result_.criteria.m,
                                            result_.cost_v);
  const bool lagged = is_proposal_ && publish_lag_ > 0;
  // otac-lint: allow(hotpath-alloc)
  watchdog_ = std::make_unique<TrainerWatchdog>(
      *trainer_, config.resilience.watchdog, /*fit_on_worker=*/lagged);
  fit_seconds_ = global_registry_.histogram(kFitHistogramName,
                                            duration_histogram_bounds_s());
  if (lagged) {
    publish_wait_seconds_ = global_registry_.histogram(
        kPublishWaitHistogramName, publish_wait_histogram_bounds_s());
  }
  fits_ = global_registry_.counter("trainer.fits");
  fit_skipped_ = global_registry_.counter("trainer.fit_skipped");
  models_published_ = global_registry_.counter("trainer.models_published");
  samples_drained_ = global_registry_.counter("trainer.samples_drained");
  compiled_tree_swaps_ =
      global_registry_.counter("trainer.compiled_tree_swaps");
  if (is_proposal_) triggers_ = retrain_trigger_indices(*trace_, schedule_);
  store_epoch_end();
}

ShardEngine::~ShardEngine() = default;

obs::MetricsRegistry& ShardEngine::shard_registry(std::size_t s) {
  return *shards_.at(s).registry;
}

void ShardEngine::serve_batch(std::size_t s, const std::uint64_t* indices,
                              std::size_t n, RowOutcome* outcomes) {
  Shard& shard = shards_[s];
  const Trace& trace = *trace_;
  enum class Action : std::uint8_t { normal, degraded, shed };
  constexpr std::size_t kBatch = ServingCore::kAdmissionBatchCapacity;
  std::array<Action, kBatch> action;
  std::array<std::uint8_t, kBatch> slot;
  std::array<const PhotoMeta*, kBatch> photos;

  // The epoch rule, checked before any row is served: a row past the
  // pending trigger would be served by a model its barrier has not yet
  // replaced.
  const std::uint64_t end = epoch_end();
  for (std::size_t b = 0; b < n; ++b) {
    if (indices[b] >= end) {
      throw std::logic_error("ShardEngine::serve_batch: row past epoch end");
    }
  }

  // Pass 1 — arrival order: photo lookup and overload gating through the
  // fluid queue (a pure function of arrival times), or, off the overload
  // path, a warm-up of the extractor's per-photo/per-owner state so the
  // batch's random-access loads overlap.
  for (std::size_t b = 0; b < n; ++b) {
    const Request& request = trace.requests[indices[b]];
    photos[b] = &trace.catalog.photo(request.photo);
    action[b] = Action::normal;
    if (shard.queue != nullptr) {
      // Per-request failpoint evaluations (registry mutex + hash lookup)
      // are confined to this opt-in path.
      if (OTAC_FAILPOINT_ACTIVE("chaos.flash_crowd")) {
        shard.queue->inject(config_.resilience.overload.flash_crowd_burst);
      }
      const OverloadState pressure =
          shard.queue->on_request(static_cast<double>(request.time.seconds));
      if (pressure == OverloadState::shedding) action[b] = Action::shed;
      if (pressure == OverloadState::degraded) action[b] = Action::degraded;
    } else if (shard.core != nullptr) {
      shard.core->prefetch(request, *photos[b]);
    }
  }

  // Pass 2 — the model-independent ML half for every Normal proposal row,
  // in trace order: feature staging (extract + observe), the training
  // sample offer, then one branch-free batched tree walk. Predictions
  // depend only on extractor state, never on the cache or history, so
  // classifying ahead of the sequential replay below is bit-identical to
  // predicting at each miss. Degraded and shed rows skip the ML half.
  if (is_proposal_) {
    // One seqlock load per published generation: the model is constant
    // between barriers (a model trained at trigger i serves requests from
    // i+1 on).
    const std::uint64_t generation =
        generation_.load(std::memory_order_acquire);
    if (generation != shard.generation) {
      shard.tree = model_.load(shard.compiled) ? &shard.compiled : nullptr;
      shard.generation = generation;
    }
    shard.core->begin_batch();
    for (std::size_t b = 0; b < n; ++b) {
      if (action[b] != Action::normal) continue;
      const Request& request = trace.requests[indices[b]];
      slot[b] = static_cast<std::uint8_t>(shard.core->staged_count());
      shard.sampler->offer(indices[b], request,
                           shard.core->stage(request, *photos[b]));
    }
    if (const std::size_t staged = shard.core->staged_count(); staged > 0) {
      shard.core->classify_staged(shard.tree);
      shard.batch_sizes->add(static_cast<double>(staged));
    }
  }

  // Pass 3 — the strictly sequential cache replay.
  for (std::size_t b = 0; b < n; ++b) {
    const std::uint64_t i = indices[b];
    const Request& request = trace.requests[i];
    const PhotoMeta& photo = *photos[b];
    const bool degraded = action[b] == Action::degraded;
    outcomes[b].degraded = degraded;
    shard.stats.requests += 1;
    shard.stats.request_bytes += photo.size_bytes;
    if (action[b] == Action::shed) {
      // Dropped before any serving work — no lookup, no features, no
      // sample — and counted as a rejection so the stats stay coherent.
      shard.stats.rejected += 1;
      shard.stats.rejected_bytes += photo.size_bytes;
      shard.recorder.record(false);
      outcomes[b].outcome = Outcome::shed;
      continue;
    }
    shard.policy->set_next_access_hint(oracle_->next[i]);
    const bool hit = shard.policy->access(request.photo, photo.size_bytes);
    shard.recorder.record(hit);
    if (hit) {
      shard.stats.hits += 1;
      shard.stats.hit_bytes += photo.size_bytes;
      outcomes[b].outcome = Outcome::hit;
      continue;
    }
    bool admitted = true;
    if (degraded) {
      // The paper's Original policy as pressure relief: admit every miss.
      ++shard.core->degradation.degraded_admits;
    } else {
      switch (config_.mode) {
        case AdmissionMode::original:
          break;
        case AdmissionMode::bypass:
          admitted = false;
          break;
        case AdmissionMode::ideal: {
          const std::uint64_t distance = oracle_->reaccess_distance(i);
          admitted = distance != kNoNextAccess &&
                     static_cast<double>(distance) <= result_.criteria.m;
          break;
        }
        case AdmissionMode::proposal:
          admitted = shard.core->admit_staged(slot[b], i, request, photo);
          break;
      }
    }
    if (!admitted) {
      shard.stats.rejected += 1;
      shard.stats.rejected_bytes += photo.size_bytes;
    }
    outcomes[b].outcome = admitted && insert(shard, request, photo)
                              ? Outcome::stored
                              : Outcome::rejected;
  }

  if (shard.queue != nullptr) {
    // Snapshot of the queue's own counters (assignment — cumulative,
    // idempotent).
    shard.core->degradation.shed_requests = shard.queue->shed();
    shard.core->degradation.overload_transitions = shard.queue->transitions();
  }
}

bool ShardEngine::insert(Shard& shard, const Request& request,
                         const PhotoMeta& photo) {
  if (shard.queue != nullptr) {
    // Transient SSD write faults (modelled on the overload path only)
    // retry in place — a re-evaluation of the failpoint models the
    // re-issued write; after the budget the object is simply not cached:
    // an admission rejection, never an error on the serving path.
    int attempt = 0;
    while (OTAC_FAILPOINT_ACTIVE("storage.ssd.write_error")) {
      if (attempt >= config_.resilience.ssd_write_max_retries) {
        ++shard.core->degradation.ssd_write_drops;
        shard.stats.rejected += 1;
        shard.stats.rejected_bytes += photo.size_bytes;
        return false;
      }
      ++attempt;
      ++shard.core->degradation.ssd_write_retries;
    }
  }
  if (!shard.policy->insert(request.photo, photo.size_bytes)) {
    shard.stats.refused += 1;  // the object is larger than the shard
    return false;
  }
  shard.stats.insertions += 1;
  shard.stats.inserted_bytes += photo.size_bytes;
  return true;
}

void ShardEngine::upsert(std::size_t s, PhotoId photo) {
  // Policies require insert() of a non-resident key only, so a resident
  // photo is touched and a missing one inserted.
  Shard& shard = shards_[s];
  const std::uint32_t size = trace_->catalog.photo(photo).size_bytes;
  if (!shard.policy->access(photo, size)) {
    (void)shard.policy->insert(photo, size);
  }
}

std::uint64_t ShardEngine::epoch_end() const noexcept {
  return epoch_end_.load(std::memory_order_acquire);
}

std::uint64_t ShardEngine::next_event() const noexcept {
  // A pending publish point never lies past the next trigger.
  if (publish_at_.has_value()) return *publish_at_;
  return next_trigger_ < triggers_.size() ? triggers_[next_trigger_]
                                          : kNoEvent;
}

void ShardEngine::advance(std::uint64_t index) {
  while (next_event() < index) {
    if (publish_at_.has_value()) {
      publish_pending();
    } else {
      barrier(triggers_[next_trigger_++]);
    }
    // Stored whole after each event: a reader never sees an epoch end
    // past an event still pending.
    store_epoch_end();
  }
}

void ShardEngine::store_epoch_end() noexcept {
  const std::uint64_t next = next_event();
  epoch_end_.store(next == kNoEvent ? trace_->requests.size() : next + 1,
                   std::memory_order_release);
}

void ShardEngine::barrier(std::uint64_t trigger) {
  // Cold: once per retrain trigger. Move the shard buffers out; the
  // fitting side merges them in trace order (each is index-ascending, so
  // a k-way merge does it), which makes the training set — and its window
  // pruning — independent of both shard count and scheduling.
  std::vector<std::deque<TrainingSample>> runs;
  // otac-lint: allow(hotpath-alloc)
  runs.reserve(shards_.size());
  for (Shard& shard : shards_) {
    // otac-lint: allow(hotpath-alloc)
    runs.push_back(shard.sampler->take_samples());
    *samples_drained_ += runs.back().size();
  }
  const SimTime time = trace_->requests[trigger].time;
  (void)schedule_.due(time);  // the trigger is due by construction
  watchdog_->submit(std::move(runs), trigger, time);

  // The publish point: at once while no model serves, else the lag after
  // the trigger, capped at the next trigger (whose drain then follows the
  // publish) and at the last request.
  std::uint64_t at = trigger;
  if (generation_.load(std::memory_order_relaxed) > 0) {
    at = trigger + std::min(publish_lag_,
                            trace_->requests.size() - 1 - trigger);
    if (next_trigger_ < triggers_.size()) {
      at = std::min(at, triggers_[next_trigger_]);
    }
  }
  publish_at_ = at;
  if (at == trigger) publish_pending();
}

void ShardEngine::publish_pending() {
  const std::uint64_t at = *publish_at_;
  publish_at_.reset();
  const auto wait_started = std::chrono::steady_clock::now();
  RetrainOutcome outcome = watchdog_->collect();
  if (publish_wait_seconds_ != nullptr) {
    publish_wait_seconds_->add(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wait_started)
            .count());
  }
  trainer_degradation_.retrain_retries +=
      static_cast<std::uint64_t>(outcome.retries);
  switch (outcome.status) {
    case RetrainOutcome::Status::trained:
      ++*fits_;
      if (publish(std::move(*outcome.tree))) {
        ++result_.trainings;
        ++*models_published_;
        ++*compiled_tree_swaps_;
      }
      break;
    case RetrainOutcome::Status::skipped:
      ++*fit_skipped_;
      break;
    case RetrainOutcome::Status::failed:
      ++trainer_degradation_.retrain_failures;
      break;
    case RetrainOutcome::Status::timed_out:
    case RetrainOutcome::Status::busy:
      // Shards keep serving the last-good generation; the watchdog has
      // buffered this barrier's samples for a later idle barrier.
      ++trainer_degradation_.retrain_timeouts;
      break;
  }
  fit_seconds_->add(outcome.fit_s);

  // Barrier snapshot: every shard is quiescent, so this merged view is a
  // pure function of trace position — the report's time-series.
  populate_registries();
  // otac-lint: allow(hotpath-alloc)
  result_.obs.timeline.push_back(obs::BarrierSample{
      at, trace_->requests[at].time.seconds, merged_snapshot()});
}

bool ShardEngine::publish(ml::DecisionTree tree) {
  // Flashield's rule: a model that cannot be served safely is dropped.
  if (validate_serving_model(tree, model_arity_)) {
    const ml::CompiledTree compiled = ml::CompiledTree::compile(tree);
    if (ModelSlot::fits(compiled)) {
      model_.store(compiled);
      generation_.fetch_add(1, std::memory_order_release);
      model_tree_ = std::move(tree);
      return true;
    }
  }
  ++trainer_degradation_.rejected_models;
  return false;
}

RunResult ShardEngine::totals() const {
  RunResult out;
  out.criteria = result_.criteria;
  out.cost_v = result_.cost_v;
  out.trainings = result_.trainings;
  // Merge in shard order — deterministic, and for shards=1 the copy of
  // shard 0 keeps the eviction hash equal to the raw sequence hash.
  out.stats = shards_[0].stats;
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    out.stats.merge(shards_[s].stats);
  }
  out.degradation = trainer_degradation_;
  std::map<std::int64_t, DayClassifierMetrics> daily;
  for (const Shard& shard : shards_) {
    if (shard.core == nullptr) continue;
    out.history_capacity += shard.core->history.capacity();
    out.degradation.merge(shard.core->degradation);
    for (const DayClassifierMetrics& metrics : shard.core->daily) {
      auto [it, inserted] = daily.try_emplace(metrics.day, metrics);
      if (!inserted) {
        it->second.raw.merge(metrics.raw);
        it->second.corrected.merge(metrics.corrected);
      }
    }
  }
  // Cold: report assembly.
  // otac-lint: allow(hotpath-alloc)
  out.daily.reserve(daily.size());
  for (const auto& [day, metrics] : daily) {
    // otac-lint: allow(hotpath-alloc)
    out.daily.push_back(metrics);
  }
  out.mean_latency_us =
      IntelligentCache::mean_latency_us(config_, out.stats.file_hit_rate());
  return out;
}

RunResult& ShardEngine::finish(std::size_t threads) {
  advance(trace_->requests.size());
  obs::RunReport kept = std::move(result_.obs);
  result_ = totals();
  result_.obs = std::move(kept);
  // End-of-run per-shard snapshots, the merged view, and an end-of-trace
  // timeline sample when the last barrier wasn't already the final
  // request (non-proposal modes have no barriers at all).
  populate_registries();
  obs::RunReport& report = result_.obs;
  report.mode = admission_mode_name(config_.mode);
  report.policy = policy_name(config_.policy);
  report.shards = shards_.size();
  report.threads = threads;
  report.per_shard.clear();
  // otac-lint: allow(hotpath-alloc)
  report.per_shard.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    // otac-lint: allow(hotpath-alloc)
    report.per_shard.push_back(shard.registry->snapshot());
  }
  report.merged = merged_snapshot();
  const Trace& trace = *trace_;
  if (!trace.requests.empty()) {
    const std::uint64_t last = trace.requests.size() - 1;
    if (report.timeline.empty() ||
        report.timeline.back().request_index != last) {
      // otac-lint: allow(hotpath-alloc)
      report.timeline.push_back(obs::BarrierSample{
          last, trace.requests.back().time.seconds, report.merged});
    }
  }
  report.derived =
      derived_run_metrics(result_.stats, result_.mean_latency_us);
  return result_;
}

RunResult& ShardEngine::replay(std::size_t threads) {
  const Trace& trace = *trace_;
  const std::size_t shards = shards_.size();

  // Keyspace partition, materialized as per-shard index lists so each
  // worker walks a dense array instead of filtering the whole trace.
  std::vector<std::vector<std::uint64_t>> shard_requests(shards);
  for (std::uint64_t i = 0; i < trace.requests.size(); ++i) {
    shard_requests[shard_of_photo(trace.requests[i].photo, shards)]
        // Cold: one-time shard bucketing before the replay loop.
        // otac-lint: allow(hotpath-alloc)
        .push_back(i);
  }
  std::vector<std::size_t> cursor(shards, 0);
  ThreadPool pool{threads};

  // Bulk-synchronous epochs: every shard serves its requests up to the
  // epoch end, then advance() retrains and publishes. Batches never cross
  // an epoch, so batch boundaries depend only on the trace and the
  // schedule.
  for (std::uint64_t end = 0; end < trace.requests.size();) {
    end = epoch_end();
    pool.parallel_for(shards, [&](std::size_t s) {
      const std::vector<std::uint64_t>& mine = shard_requests[s];
      std::size_t& pos = cursor[s];
      constexpr std::size_t kBatch = ServingCore::kAdmissionBatchCapacity;
      std::array<RowOutcome, kBatch> outcomes;
      while (pos < mine.size() && mine[pos] < end) {
        std::size_t batch = 1;
        while (batch < kBatch && pos + batch < mine.size() &&
               mine[pos + batch] < end) {
          ++batch;
        }
        serve_batch(s, mine.data() + pos, batch, outcomes.data());
        pos += batch;
      }
    });
    advance(end);
  }
  return finish(threads);
}

ClassifierSnapshot ShardEngine::snapshot() const {
  if (shards_.size() != 1 || !is_proposal_) {
    throw std::invalid_argument(
        "ShardEngine::snapshot: needs one shard in proposal mode");
  }
  if (publish_at_.has_value() || !watchdog_->idle()) {
    throw std::logic_error("ShardEngine::snapshot: a fit is in flight");
  }
  const Shard& shard = shards_[0];
  ClassifierSnapshot snap;
  snap.m = result_.criteria.m;
  snap.h = result_.criteria.h;
  snap.p = result_.criteria.p;
  snap.cost_v = result_.cost_v;
  if (model_tree_) snap.model_blob = model_tree_->serialize();
  snap.history = shard.core->history.entries();
  snap.history_rectified = shard.core->history.rectified_count();
  // The trainer's reservoir, then the samples buffered since the last
  // barrier: one trace-ordered stream, as an unsharded trainer holds it.
  const std::deque<TrainingSample>& kept = trainer_->samples();
  const std::deque<TrainingSample>& buffered = shard.sampler->samples();
  snap.samples.assign(kept.begin(), kept.end());
  snap.samples.insert(snap.samples.end(), buffered.begin(), buffered.end());
  snap.trainer_minute = shard.sampler->current_minute();
  snap.trainer_minute_count = shard.sampler->minute_count();
  snap.last_trained_day = schedule_.last_trained_day();
  snap.last_trained_time = schedule_.last_trained_time();
  snap.trainings = result_.trainings;
  return snap;
}

bool ShardEngine::restore(const ClassifierSnapshot& snapshot) {
  if (shards_.size() != 1 || !is_proposal_ ||
      generation_.load(std::memory_order_acquire) != 0 ||
      next_trigger_ != 0) {
    throw std::invalid_argument(
        "ShardEngine::restore: needs one shard in proposal mode, before "
        "any barrier");
  }
  Shard& shard = shards_[0];
  shard.core->history.restore(snapshot.history, snapshot.history_rectified);
  trainer_->restore({snapshot.samples.begin(), snapshot.samples.end()},
                    snapshot.trainer_minute, snapshot.trainer_minute_count);
  shard.sampler->restore({}, snapshot.trainer_minute,
                         snapshot.trainer_minute_count);
  schedule_.restore(snapshot.last_trained_day, snapshot.last_trained_time);
  triggers_ = retrain_trigger_indices(*trace_, schedule_);
  store_epoch_end();
  result_.trainings = snapshot.trainings;

  if (snapshot.model_blob.empty()) return true;  // admit-all until a retrain
  // A model that cannot be served leaves the engine admit-all.
  try {
    return publish(ml::DecisionTree::deserialize(snapshot.model_blob));
  } catch (const std::exception&) {
    ++trainer_degradation_.rejected_models;  // undecodable blob
    return false;
  }
}

void ShardEngine::populate_registries() {
  // Idempotent assignment of cumulative totals.
  for (Shard& shard : shards_) {
    populate_cache_metrics(*shard.registry, shard.stats);
    if (shard.core != nullptr) {
      populate_history_metrics(*shard.registry, shard.core->history);
      populate_degradation_metrics(*shard.registry, shard.core->degradation);
    }
  }
  if (is_proposal_) {
    populate_degradation_metrics(global_registry_, trainer_degradation_);
    global_registry_.set("trainer.trainings",
                         static_cast<std::uint64_t>(result_.trainings));
  }
}

obs::MetricsSnapshot ShardEngine::merged_snapshot() const {
  // Trainer-side registry first, then shard registries in shard order.
  obs::MetricsSnapshot merged = global_registry_.snapshot();
  for (const Shard& shard : shards_) {
    merged.merge(shard.registry->snapshot());
  }
  return merged;
}

}  // namespace otac
