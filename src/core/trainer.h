// Daily training pipeline (§4.4.3 + §3.1.1): sample the request stream at
// 100 records/minute, label each sample against the one-time-access
// criteria (reaccess distance > M), apply the cost matrix, and fit a CART
// tree on the previous 24 hours.
//
// Labeling is *log-truncated*: at training time T we only know accesses
// that already happened, so a sample whose next access lies beyond T is
// labeled from what the log shows (not yet reaccessed => one-time so far).
// This is exactly what an online production trainer can do, and avoids
// oracle leakage into the deployed model.
#pragma once

#include <deque>
#include <limits>
#include <optional>
#include <span>
#include <stop_token>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/features.h"
#include "ml/decision_tree.h"
#include "trace/next_access.h"
#include "trace/trace.h"

namespace otac {

struct TrainingSample {
  std::array<float, FeatureExtractor::kFeatureCount> features;
  std::uint64_t index = 0;  // trace position
  SimTime time{};
};

/// Merge runs that are each index-ascending into one index-ascending
/// vector, reserved to the total size. Ties go to the earlier run, so this
/// is a stable sort of the concatenated runs — and, with indices unique
/// across runs (each request belongs to one shard), exactly what sorting
/// the concatenation by index gives.
[[nodiscard]] std::vector<TrainingSample> merge_by_index(
    std::span<const std::deque<TrainingSample>* const> runs);

/// When the model retrains (§4.4.3): daily at the trough hour, or — in the
/// "incremental" alternative — every retrain_interval_hours. The schedule
/// reads only request times, which is what lets the sharded front ends
/// precompute their barriers (retrain_trigger_indices).
class RetrainSchedule {
 public:
  static constexpr std::int64_t kNever =
      std::numeric_limits<std::int64_t>::min();

  explicit RetrainSchedule(const OtaConfig& ota);

  /// True when a retrain is due at `time`. Every due event advances the
  /// schedule, whether or not the retrain it triggers produces a model.
  bool due(SimTime time);

  [[nodiscard]] std::int64_t last_trained_day() const noexcept {
    return last_trained_day_;
  }
  [[nodiscard]] std::int64_t last_trained_time() const noexcept {
    return last_trained_time_;
  }
  /// Resume from checkpointed state.
  void restore(std::int64_t last_trained_day,
               std::int64_t last_trained_time) noexcept {
    last_trained_day_ = last_trained_day;
    last_trained_time_ = last_trained_time;
  }

 private:
  int retrain_hour_;
  bool interval_mode_;
  std::int64_t interval_seconds_;
  std::int64_t last_trained_day_ = kNever;
  std::int64_t last_trained_time_ = kNever;
};

class DailyTrainer {
 public:
  DailyTrainer(const NextAccessInfo& oracle, OtaConfig config, double m,
               double cost_v);

  /// Offer one request's features; kept iff the per-minute sample budget
  /// (§3.1.1: 100/minute) still has room.
  void offer(std::uint64_t index, const Request& request,
             std::span<const float> features);

  /// Append already-budgeted samples (time/index-ascending) directly to the
  /// reservoir. Used by the sharded serving layer, whose per-shard samplers
  /// apply their slice of the per-minute budget before the trainer drains
  /// the shard buffers at a retrain barrier.
  void ingest(std::span<const TrainingSample> samples);

  /// One-time-access label for a sample at `index` given knowledge up to
  /// `known_until` (exclusive): 1 = one-time.
  [[nodiscard]] static int label_of(const NextAccessInfo& oracle,
                                    std::uint64_t index, double m,
                                    std::uint64_t known_until);

  /// Fit a tree on samples inside the training window ending at `now`.
  /// Returns nullopt when there are too few samples or only one class.
  /// `cancel` is the supervisor's handle on a hung train: with a stop
  /// possible, the `trainer.train.hang` failpoint holds the caller until
  /// stop is requested and then returns nullopt; without one (the inline
  /// watchdog, which nothing could ever cancel) it stalls 250 ms.
  [[nodiscard]] std::optional<ml::DecisionTree> train(
      std::uint64_t now_index, SimTime now, std::stop_token cancel = {});

  [[nodiscard]] std::size_t sample_count() const noexcept {
    return samples_.size();
  }

  // --- checkpointing ---------------------------------------------------
  [[nodiscard]] const std::deque<TrainingSample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] std::int64_t current_minute() const noexcept {
    return current_minute_;
  }
  [[nodiscard]] int minute_count() const noexcept { return minute_count_; }

  /// Move the reservoir out, leaving it empty and the per-minute budget
  /// cursor as it was (a shard sampler's drain at a retrain trigger).
  [[nodiscard]] std::deque<TrainingSample> take_samples() noexcept {
    return std::exchange(samples_, {});
  }

  /// Replace the reservoir with checkpointed samples (time-ascending) and
  /// the per-minute budget cursor.
  void restore(std::deque<TrainingSample> samples, std::int64_t minute,
               int minute_count);

 private:
  const NextAccessInfo* oracle_;
  OtaConfig config_;
  double m_;
  double cost_v_;

  std::deque<TrainingSample> samples_;
  std::int64_t current_minute_ = std::numeric_limits<std::int64_t>::min();
  int minute_count_ = 0;
};

}  // namespace otac
