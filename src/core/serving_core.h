// Per-stream serving half of the classification system (Fig. 4),
// instantiated once per shard by the serving engine (core/shard_engine.h).
//
// A ServingCore owns everything that is private to one request stream:
// online feature extractor, history table, per-day confusion metrics, and
// the serving-path degradation counters. It does NOT own the model — the
// caller passes the tree per micro-batch, which is how the engine shares
// one read-mostly CART across shards (model-slot swap on retrain) without
// the core knowing.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/features.h"
#include "core/history_table.h"
#include "ml/compiled_tree.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "obs/metrics.h"
#include "trace/next_access.h"

namespace otac {

struct DayClassifierMetrics {
  std::int64_t day = 0;
  ml::ConfusionMatrix raw;        // tree verdicts
  ml::ConfusionMatrix corrected;  // after history-table rectification

  friend bool operator==(const DayClassifierMetrics&,
                         const DayClassifierMetrics&) = default;
};

/// Every time the serving path degrades instead of failing it increments a
/// counter here (Flashield's rule: an ML cache component must fail toward
/// conservative admission, i.e. the paper's Original admit-all behavior).
struct DegradationCounters {
  /// Retrain threw (terminally — retries exhausted or disabled) — the
  /// last-good tree kept serving. Counted once per failed barrier.
  std::uint64_t retrain_failures = 0;
  /// A trained or checkpointed model failed validation — rejected; the
  /// previous tree (or admit-all when none) keeps serving.
  std::uint64_t rejected_models = 0;
  /// Requests whose features came out non-finite — admitted via fallback.
  std::uint64_t nonfinite_feature_requests = 0;
  /// predict() threw (arity mismatch etc.) — admitted via fallback.
  std::uint64_t predict_failures = 0;

  // --- overload-resilience layer (core/resilience.h) -------------------
  /// Watchdog re-ran a thrown retrain within one barrier's retry budget.
  std::uint64_t retrain_retries = 0;
  /// A barrier gave up waiting on a hung retrain (or found the trainer
  /// still busy from a previous barrier) and proceeded on the last-good
  /// model. Counted once per affected barrier.
  std::uint64_t retrain_timeouts = 0;
  /// Admissions decided by the Original (admit-all-cheap) fallback while a
  /// shard was in the Degraded overload state.
  std::uint64_t degraded_admits = 0;
  /// Requests dropped (counted as rejected) while a shard was Shedding.
  std::uint64_t shed_requests = 0;
  /// Overload state-machine transitions (any direction, any shard).
  std::uint64_t overload_transitions = 0;
  /// SSD insert writes that failed transiently and were retried.
  std::uint64_t ssd_write_retries = 0;
  /// SSD insert writes abandoned after the retry budget — the object was
  /// not cached (counted as rejected), which only costs a future miss.
  std::uint64_t ssd_write_drops = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return retrain_failures + rejected_models + nonfinite_feature_requests +
           predict_failures + retrain_retries + retrain_timeouts +
           degraded_admits + shed_requests + overload_transitions +
           ssd_write_retries + ssd_write_drops;
  }

  void merge(const DegradationCounters& other) noexcept {
    retrain_failures += other.retrain_failures;
    rejected_models += other.rejected_models;
    nonfinite_feature_requests += other.nonfinite_feature_requests;
    predict_failures += other.predict_failures;
    retrain_retries += other.retrain_retries;
    retrain_timeouts += other.retrain_timeouts;
    degraded_admits += other.degraded_admits;
    shed_requests += other.shed_requests;
    overload_transitions += other.overload_transitions;
    ssd_write_retries += other.ssd_write_retries;
    ssd_write_drops += other.ssd_write_drops;
  }

  friend bool operator==(const DegradationCounters&,
                         const DegradationCounters&) = default;
};

/// A model is servable iff it is fitted, matches the deployed feature
/// arity, and yields a finite probability on a probe row. The engine
/// checks it before every publish: after a retrain and on a checkpoint
/// restore.
[[nodiscard]] bool validate_serving_model(const ml::DecisionTree& tree,
                                          std::size_t expected_arity);

/// Parameters the serving path needs from the full system configuration.
struct ServingConfig {
  std::vector<std::size_t> feature_subset;  // empty = all nine features
  double m = 0.0;                           // criteria threshold (§4.3)
  bool admit_before_first_model = true;
};

class ServingCore {
 public:
  /// Upper bound on requests staged per admission micro-batch.
  static constexpr std::size_t kAdmissionBatchCapacity =
      ml::CompiledTree::kMaxBatch;

  ServingCore(const PhotoCatalog& catalog, const NextAccessInfo& oracle,
              ServingConfig config, std::size_t history_capacity);

  // --- batched admission: steps 4-7 of §4.2 --------------------------
  //
  // Per micro-batch (<= kAdmissionBatchCapacity requests, never crossing a
  // retrain barrier):
  //   begin_batch();
  //   for each request: stage(request, photo);   // extract + observe
  //   classify_staged(model);                    // one batched tree walk
  //   for each request, in order: replay the cache; on a miss,
  //     admit_staged(slot, index, request, photo);
  //
  // stage() runs the model-independent half for *every* request — feature
  // extraction into a reusable arena (zero per-request allocation) and the
  // advance of the online feature state — and classify_staged() predicts
  // every staged row in one branch-free predict_proba_batch call.
  // Predictions depend only on extractor state (never on cache/history/
  // policy state), so classifying ahead of the strictly sequential replay
  // is safe: admit_staged() consumes the precomputed probability only for
  // rows that actually miss, and decides each miss from the features of
  // the stream *before* that request, exactly as a per-miss classifier
  // would. Degradation counters, daily metrics and history mutations move
  // only on misses.

  /// Reset the staging arena for a new micro-batch.
  void begin_batch() noexcept { staged_ = 0; }

  /// Extract this request's features into the arena (fused with the
  /// advance of the online feature state), recording subset projection
  /// errors. Returns the full feature row (the training sample the caller
  /// may buffer); valid until the next begin_batch().
  std::span<const float> stage(const Request& request, const PhotoMeta& photo);

  /// Classify every staged row against `model` (nullptr = no model yet)
  /// with one predict_proba_batch call.
  void classify_staged(const ml::CompiledTree* model);

  /// Admission decision for staged row `slot` (stage() call order),
  /// consuming the probability computed by classify_staged(). Only called
  /// for rows that miss. No model: admit_before_first_model. A subset
  /// index out of range counts a predict failure, a non-finite row a
  /// non-finite-feature request; both admit (Flashield's rule). Otherwise
  /// predict, rectify through the history table and record the day's
  /// confusion.
  bool admit_staged(std::size_t slot, std::uint64_t index,
                    const Request& request, const PhotoMeta& photo);

  [[nodiscard]] std::size_t staged_count() const noexcept { return staged_; }

  /// Batch warm-up: hint the extractor's per-photo/per-owner state and the
  /// history table's hash bucket for this request.
  void prefetch(const Request& request, const PhotoMeta& photo) const noexcept {
    extractor.prefetch(request, photo);
    history.prefetch(request.photo);
  }

  /// Resolve admission-decision counters against `registry` (serving.*
  /// namespace). Handles are resolved once here; per-request cost is a
  /// plain increment, compiled out entirely under OTAC_OBS_OFF. The
  /// registry must outlive this core; rebinding replaces the handles.
  void bind_metrics(obs::MetricsRegistry& registry);

  [[nodiscard]] const ServingConfig& config() const noexcept {
    return config_;
  }

  // Components, exposed for snapshot/restore and merging (ShardEngine):
  // each instance is single-stream, so outside access is only valid when
  // no batch is in flight.
  FeatureExtractor extractor;
  HistoryTable history;
  std::vector<DayClassifierMetrics> daily;
  DegradationCounters degradation;

 private:
  /// Tail of a classified admission decision: predict counters, history
  /// rectify/record, daily confusion metrics. Returns the admit verdict.
  bool finish_admit(bool predicted_one_time, std::uint64_t index,
                    const Request& request);

  void record_metric(std::int64_t day, int actual, int raw_prediction,
                     int corrected_prediction);

  // Pre-resolved obs handles; all null until bind_metrics(). One struct so
  // the hot path tests a single pointer.
  struct AdmitMetrics {
    obs::MetricsRegistry::Counter no_model_admits = nullptr;
    obs::MetricsRegistry::Counter predict_one_time = nullptr;
    obs::MetricsRegistry::Counter predict_reuse = nullptr;
    obs::MetricsRegistry::Counter rectified = nullptr;
    obs::MetricsRegistry::Counter history_recorded = nullptr;
  };
  AdmitMetrics metrics_;
  bool metrics_bound_ = false;

  ServingConfig config_;
  const NextAccessInfo* oracle_;
  std::size_t arity_;  // deployed arity (subset size, or all 9)

  // Staging arena for the batched path — sized once at construction, so
  // the per-request cost is writes into preallocated rows. When the
  // deployed subset is empty the full rows double as the classifier input
  // (projected_rows_ stays unused).
  // Non-finite rows carry no status: admit_staged() re-checks finiteness
  // lazily (misses only) so stage() never pays the sweep for hits.
  enum class StageStatus : std::uint8_t {
    ok,               // row classified normally
    degrade_predict,  // projection/predict error -> predict_failures
  };
  std::size_t staged_ = 0;
  bool batch_has_model_ = false;
  std::vector<float> full_rows_;       // staged_ x kFeatureCount
  std::vector<float> projected_rows_;  // staged_ x arity_ (subset mode)
  std::array<float, kAdmissionBatchCapacity> proba_{};
  std::array<StageStatus, kAdmissionBatchCapacity> status_{};
};

}  // namespace otac
