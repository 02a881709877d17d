#include "core/classifier_system.h"

#include <chrono>
#include <stdexcept>

#include "core/run_metrics.h"

namespace otac {

namespace {

ServingConfig serving_config_of(const ClassifierSystemConfig& config) {
  ServingConfig serving;
  serving.feature_subset = config.ota.feature_subset;
  serving.m = config.m;
  serving.collect_daily_metrics = config.collect_daily_metrics;
  serving.admit_before_first_model = config.ota.admit_before_first_model;
  return serving;
}

}  // namespace

ClassifierSystem::ClassifierSystem(const Trace& trace,
                                   const NextAccessInfo& oracle,
                                   const ClassifierSystemConfig& config)
    : config_(config),
      core_(trace.catalog, oracle, serving_config_of(config),
            history_table_capacity(config.m, config.h, config.p,
                                   config.ota.history_table_factor)),
      trainer_(oracle, config.ota, config.m, config.cost_v),
      schedule_(config.ota) {}

bool ClassifierSystem::admit(std::uint64_t index, const Request& request,
                             const PhotoMeta& photo) {
  return core_.admit(model_ ? &compiled_ : nullptr, index, request, photo);
}

void ClassifierSystem::observe(std::uint64_t index, const Request& request,
                               const PhotoMeta& photo, bool /*hit*/) {
  // Sample for training *before* mutating state: features must describe
  // the stream as the classifier saw it at admit() time.
  trainer_.offer(index, request, core_.extract(request, photo));
  core_.observe(request, photo);

  // Retraining (§4.4.3): daily at the trough hour, or — in the
  // "incremental" alternative — every retrain_interval_hours.
  if (schedule_.due(request.time)) {
    // Retrain failures and rejected models must not take down serving:
    // keep the last-good tree (or the admit-all fallback when none).
    // Fit timing is observed only when metrics are bound (no clock reads
    // otherwise) — wall-clock durations are the one non-deterministic
    // metric family and are excluded from determinism pins.
    const bool timed = fit_seconds_ != nullptr;
    const auto started =
        timed ? std::chrono::steady_clock::now()
              : std::chrono::steady_clock::time_point{};
    try {
      if (auto tree = trainer_.train(index, request.time)) {
        if (fits_ != nullptr) ++*fits_;
        if (validate_serving_model(*tree, deployed_arity())) {
          model_ = std::move(tree);
          compiled_ = ml::CompiledTree::compile(*model_);
          ++trainings_;
          if (models_published_ != nullptr) ++*models_published_;
        } else {
          ++core_.degradation.rejected_models;
        }
      } else if (fit_skipped_ != nullptr) {
        ++*fit_skipped_;
      }
    } catch (const std::exception&) {
      ++core_.degradation.retrain_failures;
    }
    if (timed) {
      fit_seconds_->add(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started)
                            .count());
    }
  }
}

void ClassifierSystem::bind_metrics(obs::MetricsRegistry& registry) {
  core_.bind_metrics(registry);
  fit_seconds_ =
      registry.histogram(kFitHistogramName, duration_histogram_bounds_s());
  fits_ = registry.counter("trainer.fits");
  fit_skipped_ = registry.counter("trainer.fit_skipped");
  models_published_ = registry.counter("trainer.models_published");
}

ClassifierSnapshot ClassifierSystem::snapshot() const {
  ClassifierSnapshot snap;
  snap.m = config_.m;
  snap.h = config_.h;
  snap.p = config_.p;
  snap.cost_v = config_.cost_v;
  if (model_) snap.model_blob = model_->serialize();
  snap.history = core_.history.entries();
  snap.history_rectified = core_.history.rectified_count();
  snap.samples.assign(trainer_.samples().begin(), trainer_.samples().end());
  snap.trainer_minute = trainer_.current_minute();
  snap.trainer_minute_count = trainer_.minute_count();
  snap.last_trained_day = schedule_.last_trained_day();
  snap.last_trained_time = schedule_.last_trained_time();
  snap.trainings = trainings_;
  return snap;
}

bool ClassifierSystem::restore(const ClassifierSnapshot& snapshot) {
  core_.history.restore(snapshot.history, snapshot.history_rectified);
  trainer_.restore({snapshot.samples.begin(), snapshot.samples.end()},
                   snapshot.trainer_minute, snapshot.trainer_minute_count);
  schedule_.restore(snapshot.last_trained_day, snapshot.last_trained_time);
  trainings_ = snapshot.trainings;

  model_.reset();  // absent/corrupt model == admit-all (Original behavior)
  if (snapshot.model_blob.empty()) return true;
  try {
    ml::DecisionTree tree = ml::DecisionTree::deserialize(snapshot.model_blob);
    if (!validate_serving_model(tree, deployed_arity())) {
      throw std::invalid_argument("model failed validation");
    }
    model_ = std::move(tree);
    compiled_ = ml::CompiledTree::compile(*model_);
    return true;
  } catch (const std::exception&) {
    ++core_.degradation.rejected_models;
    return false;
  }
}

}  // namespace otac
