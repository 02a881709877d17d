// The classification system of Fig. 4: CART classifier + history table,
// wired into the cache as an AdmissionPolicy.
//
// Workflow on a miss (steps 4-7 of §4.2):
//   1. extract features (online, causal),
//   2. tree predicts one-time vs not,
//   3. "not one-time"  -> admit (cache the photo),
//   4. "one-time"      -> consult the history table: a photo we rejected
//      recently and which is back within reaccess distance M was
//      misclassified — rectify and admit; otherwise record the rejection
//      in the table and bypass the cache.
//
// The model retrains daily at the configured trough hour (§4.4.3).
//
// The per-request serving body lives in core/serving_core.h (shared with
// the sharded layer); this class adds model ownership, the retrain
// schedule, and crash-safe snapshot/restore.
#pragma once

#include <optional>
#include <vector>

#include "cachesim/admission.h"
#include "core/checkpoint.h"
#include "core/config.h"
#include "core/features.h"
#include "core/history_table.h"
#include "core/serving_core.h"
#include "core/trainer.h"
#include "ml/compiled_tree.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "obs/metrics.h"

namespace otac {

struct ClassifierSystemConfig {
  OtaConfig ota{};
  double m = 0.0;       // one-time-access criteria threshold
  double h = 0.0;       // hit-rate estimate (history-table sizing)
  double p = 0.0;       // one-time fraction (history-table sizing)
  double cost_v = 2.0;  // false-positive cost for this capacity (§4.4.1)
  /// Track per-day confusion of raw/corrected decisions against the true
  /// labels (full oracle) — powers Fig. 5. Small overhead.
  bool collect_daily_metrics = true;
};

class ClassifierSystem final : public AdmissionPolicy {
 public:
  ClassifierSystem(const Trace& trace, const NextAccessInfo& oracle,
                   const ClassifierSystemConfig& config);

  bool admit(std::uint64_t index, const Request& request,
             const PhotoMeta& photo) override;
  void observe(std::uint64_t index, const Request& request,
               const PhotoMeta& photo, bool hit) override;
  [[nodiscard]] std::string name() const override { return "classifier"; }

  [[nodiscard]] bool has_model() const noexcept { return model_.has_value(); }
  [[nodiscard]] const ml::DecisionTree* model() const noexcept {
    return model_ ? &*model_ : nullptr;
  }
  [[nodiscard]] const HistoryTable& history() const noexcept {
    return core_.history;
  }
  [[nodiscard]] const std::vector<DayClassifierMetrics>& daily_metrics()
      const noexcept {
    return core_.daily;
  }
  [[nodiscard]] int trainings() const noexcept { return trainings_; }
  [[nodiscard]] const FeatureExtractor& extractor() const noexcept {
    return core_.extractor;
  }
  [[nodiscard]] const ClassifierSystemConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const DegradationCounters& degradation() const noexcept {
    return core_.degradation;
  }

  /// Bind serving-path counters (via ServingCore) plus retrain telemetry:
  /// trainer.* fit outcome counters and the wall-clock fit-duration
  /// histogram. The registry must outlive this system.
  void bind_metrics(obs::MetricsRegistry& registry);

  /// Capture the full serving state for crash-safe persistence.
  [[nodiscard]] ClassifierSnapshot snapshot() const;

  /// Install checkpointed state. A corrupt or arity-mismatched model blob
  /// leaves the system model-less (admit-all fallback), counts a rejected
  /// model, and returns false; every other section is still restored.
  bool restore(const ClassifierSnapshot& snapshot);

 private:
  [[nodiscard]] std::size_t deployed_arity() const noexcept {
    return config_.ota.feature_subset.empty()
               ? FeatureExtractor::kFeatureCount
               : config_.ota.feature_subset.size();
  }

  ClassifierSystemConfig config_;
  ServingCore core_;
  DailyTrainer trainer_;
  std::optional<ml::DecisionTree> model_;
  // Flattened serving image of model_ (ml/compiled_tree.h), rebuilt at
  // every publish/restore; admit() serves from this, model_ stays the
  // snapshot/serialization source of truth.
  ml::CompiledTree compiled_;

  // Retrain telemetry handles (null until bind_metrics).
  obs::FixedHistogram* fit_seconds_ = nullptr;
  obs::MetricsRegistry::Counter fits_ = nullptr;
  obs::MetricsRegistry::Counter fit_skipped_ = nullptr;
  obs::MetricsRegistry::Counter models_published_ = nullptr;

  RetrainSchedule schedule_;
  int trainings_ = 0;
};

}  // namespace otac
