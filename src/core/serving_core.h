// Per-stream serving half of the classification system (Fig. 4), split out
// of ClassifierSystem so it can be instantiated once per shard by the
// sharded serving engine (core/shard_engine.h) while the unsharded
// ClassifierSystem keeps wrapping exactly the same code — that shared body
// is what makes the shards=1 path bit-identical to the single-threaded
// system by construction.
//
// A ServingCore owns everything that is private to one request stream:
// online feature extractor, history table, per-day confusion metrics, and
// the serving-path degradation counters. It does NOT own the model — the
// caller passes the tree per admit() call, which is how the sharded layer
// shares one read-mostly CART across shards (model-slot swap on retrain)
// without the core knowing.
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
/// arity, and yields a finite probability on a probe row. Shared by
/// ClassifierSystem (daily retrain / checkpoint restore) and the sharded
/// trainer (before an atomic model swap).
[[nodiscard]] bool validate_serving_model(const ml::DecisionTree& tree,
                                          std::size_t expected_arity);

/// Parameters the serving path needs from the full system configuration.
struct ServingConfig {
  std::vector<std::size_t> feature_subset;  // empty = all nine features
  double m = 0.0;                           // criteria threshold (§4.3)
  bool collect_daily_metrics = true;
  bool admit_before_first_model = true;
};

class ServingCore {
 public:
  /// Upper bound on requests staged per admission micro-batch.
  static constexpr std::size_t kAdmissionBatchCapacity =
      ml::CompiledTree::kMaxBatch;

  ServingCore(const PhotoCatalog& catalog, const NextAccessInfo& oracle,
              ServingConfig config, std::size_t history_capacity);

  /// Steps 4-7 of §4.2 against the given flattened model (nullptr = no
  /// model yet): extract features, predict one-time vs not, rectify via
  /// the history table, record daily metrics. Degrades to plain admission
  /// on non-finite features or a throwing predict. The unsharded system
  /// and the stress suite serve through this scalar entry point.
  bool admit(const ml::CompiledTree* model, std::uint64_t index,
             const Request& request, const PhotoMeta& photo);

  // --- batched admission (the sharded proposal loop) -------------------
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
  // observe() advance — and classify_staged() predicts every staged row in
  // one branch-free predict_proba_batch call. Predictions depend only on
  // extractor state (never on cache/history/policy state), so classifying
  // ahead of the strictly sequential replay is safe: admit_staged() then
  // consumes the precomputed probability only for rows that actually miss,
  // and its observable behavior (decisions, degradation counters, daily
  // metrics, history mutations) is identical to calling scalar admit() at
  // the miss point. That equivalence is what preserves shards=1
  // bit-identity with batching enabled.

  /// Reset the staging arena for a new micro-batch.
  void begin_batch() noexcept { staged_ = 0; }

  /// Extract this request's features into the arena (fused with the
  /// observe() advance), recording subset projection errors. Returns the
  /// full feature row (the training sample the caller may buffer); valid
  /// until the next begin_batch().
  std::span<const float> stage(const Request& request, const PhotoMeta& photo);

  /// Classify every staged row against `model` (nullptr = no model yet)
  /// with one predict_proba_batch call.
  void classify_staged(const ml::CompiledTree* model);

  /// Admission decision for staged row `slot` (stage() call order),
  /// consuming the probability computed by classify_staged(). Only called
  /// for rows that miss; behavior matches scalar admit() exactly.
  bool admit_staged(std::size_t slot, std::uint64_t index,
                    const Request& request, const PhotoMeta& photo);

  [[nodiscard]] std::size_t staged_count() const noexcept { return staged_; }

  /// Batch warm-up: hint the extractor's per-photo/per-owner state and the
  /// history table's hash bucket for this request.
  void prefetch(const Request& request, const PhotoMeta& photo) const noexcept {
    extractor.prefetch(request, photo);
    history.prefetch(request.photo);
  }

  /// Features of this request given the state *before* it (the training
  /// sample the caller may buffer). Valid until the next extract()/admit().
  [[nodiscard]] std::span<const float> extract(const Request& request,
                                               const PhotoMeta& photo);

  /// Advance the online feature state by one (time-ordered) request.
  void observe(const Request& request, const PhotoMeta& photo);

  /// Resolve admission-decision counters against `registry` (serving.*
  /// namespace). Handles are resolved once here; per-request cost is a
  /// plain increment, compiled out entirely under OTAC_OBS_OFF. The
  /// registry must outlive this core; rebinding replaces the handles.
  void bind_metrics(obs::MetricsRegistry& registry);

  [[nodiscard]] const ServingConfig& config() const noexcept {
    return config_;
  }

  // Components, exposed for snapshotting (ClassifierSystem) and merging
  // (ShardEngine): each instance is single-stream, so outside access is
  // only valid when no admit/extract/observe is in flight.
  FeatureExtractor extractor;
  HistoryTable history;
  std::vector<DayClassifierMetrics> daily;
  DegradationCounters degradation;

 private:
  /// Shared tail of every admission decision: predict counters, history
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
  std::array<float, FeatureExtractor::kFeatureCount> scratch_{};
  std::size_t arity_;             // deployed arity (subset size, or all 9)
  std::vector<float> projected_;  // scratch for the deployed feature subset

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
