#include "core/serving_core.h"

#include <cmath>
#include <stdexcept>

namespace otac {

namespace {

bool all_finite(std::span<const float> values) noexcept {
  for (const float v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

bool validate_serving_model(const ml::DecisionTree& tree,
                            std::size_t expected_arity) {
  if (tree.node_count() == 0) return false;
  if (tree.feature_importance().size() != expected_arity) return false;
  // The probe row is all-zero and constexpr-materialized: retrain barriers
  // validate without any transient allocation. 64 covers every deployed
  // arity (9 features) with a wide margin; larger arities take the cold
  // allocating fallback.
  static constexpr std::array<float, 64> kZeroProbe{};
  try {
    double proba;
    if (expected_arity <= kZeroProbe.size()) {
      proba = tree.predict_proba(
          std::span{kZeroProbe.data(), expected_arity});
    } else {
      // otac-lint: allow(hotpath-alloc) — unreachable for deployed models
      const std::vector<float> probe(expected_arity, 0.0F);
      proba = tree.predict_proba(probe);
    }
    return std::isfinite(proba) && proba >= 0.0 && proba <= 1.0;
  } catch (const std::exception&) {
    return false;
  }
}

ServingCore::ServingCore(const PhotoCatalog& catalog,
                         const NextAccessInfo& oracle, ServingConfig config,
                         std::size_t history_capacity)
    : extractor(catalog),
      history(history_capacity),
      config_(std::move(config)),
      oracle_(&oracle),
      arity_(config_.feature_subset.empty() ? FeatureExtractor::kFeatureCount
                                            : config_.feature_subset.size()),
      full_rows_(kAdmissionBatchCapacity * FeatureExtractor::kFeatureCount,
                 0.0F),
      projected_rows_(config_.feature_subset.empty()
                          ? 0
                          : kAdmissionBatchCapacity * arity_,
                      0.0F) {}

void ServingCore::bind_metrics(obs::MetricsRegistry& registry) {
  metrics_.no_model_admits = registry.counter("serving.no_model_admits");
  metrics_.predict_one_time = registry.counter("serving.predict_one_time");
  metrics_.predict_reuse = registry.counter("serving.predict_reuse");
  metrics_.rectified = registry.counter("serving.rectified");
  metrics_.history_recorded = registry.counter("serving.history_recorded");
  metrics_bound_ = true;
}

bool ServingCore::finish_admit(bool predicted_one_time, std::uint64_t index,
                               const Request& request) {
  if constexpr (obs::kEnabled) {
    if (metrics_bound_) {
      ++*(predicted_one_time ? metrics_.predict_one_time
                             : metrics_.predict_reuse);
    }
  }

  bool final_one_time = predicted_one_time;
  if (predicted_one_time) {
    // A recently rejected photo returning within M was misclassified.
    if (history.rectify(request.photo, index, config_.m)) {
      final_one_time = false;
      if constexpr (obs::kEnabled) {
        if (metrics_bound_) ++*metrics_.rectified;
      }
    } else {
      history.record(request.photo, index);
      if constexpr (obs::kEnabled) {
        if (metrics_bound_) ++*metrics_.history_recorded;
      }
    }
  }

  // Ground truth from the full oracle (evaluation only, never fed back into
  // the model): one-time iff no reaccess within M.
  const std::uint64_t next = oracle_->next[index];
  const int actual =
      (next != kNoNextAccess && static_cast<double>(next - index) <= config_.m)
          ? 0
          : 1;
  record_metric(day_index(request.time), actual, predicted_one_time ? 1 : 0,
                final_one_time ? 1 : 0);
  return !final_one_time;
}

std::span<const float> ServingCore::stage(const Request& request,
                                          const PhotoMeta& photo) {
  const std::size_t slot = staged_++;
  float* full =
      full_rows_.data() + slot * FeatureExtractor::kFeatureCount;
  const std::span<float, FeatureExtractor::kFeatureCount> full_row{
      full, FeatureExtractor::kFeatureCount};
  // Fused extract+observe: one pass over the per-photo/per-owner state.
  // The projection below reads the already-written row, not the extractor,
  // so observing first is safe.
  extractor.extract_and_observe(request, photo, full_row);

  // The first degradation check happens here: a subset index out of range
  // marks the row for a predict failure. The finiteness sweep is deferred
  // to admit_staged() — degradation counters only ever move on misses, so
  // sweeping per miss skips the work for every hit.
  const std::vector<std::size_t>& subset = config_.feature_subset;
  StageStatus status = StageStatus::ok;
  if (!subset.empty()) {
    float* projected = projected_rows_.data() + slot * arity_;
    for (std::size_t k = 0; k < subset.size(); ++k) {
      if (subset[k] >= FeatureExtractor::kFeatureCount) {
        status = StageStatus::degrade_predict;
        break;
      }
      projected[k] = full[subset[k]];
    }
  }
  status_[slot] = status;
  return full_row;
}

void ServingCore::classify_staged(const ml::CompiledTree* model) {
  batch_has_model_ = model != nullptr && !model->empty();
  if (!batch_has_model_ || staged_ == 0) return;
  const float* rows = config_.feature_subset.empty() ? full_rows_.data()
                                                     : projected_rows_.data();
  if (model->required_arity() <= arity_) {
    // The hot path: one branch-free level-synchronous walk over the whole
    // micro-batch. Degraded and non-finite rows ride along (NaN routes
    // right; their probability is discarded by admit_staged) — cheaper
    // than compacting.
    model->predict_proba_batch(rows, staged_, arity_, proba_.data());
    return;
  }
  // Defensive slow path: a model that reads features beyond the deployed
  // arity cannot take the unchecked batch walk. validate_serving_model
  // rejects such models before publication, so this only runs for
  // hand-constructed slots. Finiteness is checked before predicting:
  // non-finite rows are skipped un-marked, so on a miss admit_staged's
  // own finiteness check (not a predict failure) claims them.
  for (std::size_t slot = 0; slot < staged_; ++slot) {
    if (status_[slot] != StageStatus::ok) continue;
    const std::span<const float> row{rows + slot * arity_, arity_};
    if (!all_finite(row)) continue;
    try {
      proba_[slot] = static_cast<float>(model->predict_proba(row));
    } catch (const std::exception&) {
      status_[slot] = StageStatus::degrade_predict;
    }
  }
}

bool ServingCore::admit_staged(std::size_t slot, std::uint64_t index,
                               const Request& request,
                               const PhotoMeta& photo) {
  (void)photo;
  if (!batch_has_model_) {
    if constexpr (obs::kEnabled) {
      if (metrics_bound_) ++*metrics_.no_model_admits;
    }
    return config_.admit_before_first_model;
  }
  // Degradation order: a projection error first (stage() marked it), then
  // the deferred finiteness check of the row the model saw, then a predict
  // failure (classify_staged's fallback only marks finite rows: check,
  // then predict).
  if (status_[slot] == StageStatus::degrade_predict) {
    ++degradation.predict_failures;
    return true;
  }
  const float* rows = config_.feature_subset.empty() ? full_rows_.data()
                                                     : projected_rows_.data();
  if (!all_finite({rows + slot * arity_, arity_})) {
    ++degradation.nonfinite_feature_requests;
    return true;
  }
  // float >= 0.5F iff double(float) >= 0.5: the tree's own predict()
  // verdict.
  return finish_admit(proba_[slot] >= 0.5F, index, request);
}

void ServingCore::record_metric(std::int64_t day, int actual,
                                int raw_prediction,
                                int corrected_prediction) {
  if (daily.empty() || daily.back().day != day) {
    // Cold: once per simulated day. otac-lint: allow(hotpath-alloc)
    daily.push_back(DayClassifierMetrics{day, {}, {}});
  }
  daily.back().raw.add(actual, raw_prediction);
  daily.back().corrected.add(actual, corrected_prediction);
}

}  // namespace otac
