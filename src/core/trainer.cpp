#include "core/trainer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "util/failpoint.h"

namespace otac {

std::vector<TrainingSample> merge_by_index(
    std::span<const std::deque<TrainingSample>* const> runs) {
  using Cursor = std::deque<TrainingSample>::const_iterator;
  std::vector<std::pair<Cursor, Cursor>> heads;  // non-empty runs, in order
  std::size_t total = 0;
  for (const std::deque<TrainingSample>* run : runs) {
    total += run->size();
    if (!run->empty()) heads.emplace_back(run->begin(), run->end());
  }
  std::vector<TrainingSample> merged;
  merged.reserve(total);
  // A linear scan of the heads (the run count is the shard count, times
  // the barriers a busy watchdog buffered) until one run is left, which is
  // copied whole.
  while (heads.size() > 1) {
    std::size_t min = 0;
    for (std::size_t h = 1; h < heads.size(); ++h) {
      if (heads[h].first->index < heads[min].first->index) min = h;
    }
    merged.push_back(*heads[min].first);
    if (++heads[min].first == heads[min].second) {
      heads.erase(heads.begin() + static_cast<std::ptrdiff_t>(min));
    }
  }
  if (!heads.empty()) {
    merged.insert(merged.end(), heads[0].first, heads[0].second);
  }
  return merged;
}

RetrainSchedule::RetrainSchedule(const OtaConfig& ota)
    : retrain_hour_(ota.retrain_hour),
      interval_mode_(ota.retrain_interval_hours > 0.0),
      interval_seconds_(static_cast<std::int64_t>(ota.retrain_interval_hours *
                                                  kSecondsPerHour)) {}

bool RetrainSchedule::due(SimTime time) {
  bool due = false;
  if (interval_mode_) {
    due = last_trained_time_ == kNever ||
          time.seconds - last_trained_time_ >= interval_seconds_;
  } else {
    const std::int64_t day = day_index(time);
    due = hour_of_day(time) >= retrain_hour_ && day > last_trained_day_;
    if (due) last_trained_day_ = day;
  }
  if (due) last_trained_time_ = time.seconds;
  return due;
}

DailyTrainer::DailyTrainer(const NextAccessInfo& oracle, OtaConfig config,
                           double m, double cost_v)
    : oracle_(&oracle), config_(config), m_(m), cost_v_(cost_v) {}

void DailyTrainer::offer(std::uint64_t index, const Request& request,
                         std::span<const float> features) {
  const std::int64_t minute = request.time.seconds / kSecondsPerMinute;
  if (minute != current_minute_) {
    current_minute_ = minute;
    minute_count_ = 0;
  }
  if (minute_count_ >= config_.sample_records_per_minute) return;
  ++minute_count_;

  TrainingSample sample;
  std::copy_n(features.begin(), FeatureExtractor::kFeatureCount,
              sample.features.begin());
  sample.index = index;
  sample.time = request.time;
  samples_.push_back(sample);
}

void DailyTrainer::ingest(std::span<const TrainingSample> samples) {
  samples_.insert(samples_.end(), samples.begin(), samples.end());
}

int DailyTrainer::label_of(const NextAccessInfo& oracle, std::uint64_t index,
                           double m, std::uint64_t known_until) {
  const std::uint64_t next = oracle.next[index];
  const bool reaccessed_within_m =
      next != kNoNextAccess && next < known_until &&
      static_cast<double>(next - index) <= m;
  return reaccessed_within_m ? 0 : 1;  // 1 = one-time-access (positive)
}

void DailyTrainer::restore(std::deque<TrainingSample> samples,
                           std::int64_t minute, int minute_count) {
  samples_ = std::move(samples);
  current_minute_ = minute;
  minute_count_ = minute_count;
}

std::optional<ml::DecisionTree> DailyTrainer::train(std::uint64_t now_index,
                                                    SimTime now,
                                                    std::stop_token cancel) {
  // Fault-injection surface: a production retrain can die on anything from
  // OOM to a poisoned sample batch; the serving tier must keep the
  // last-good tree (see ShardEngine::barrier).
  OTAC_FAILPOINT_THROW("trainer.train.fail");
  // Hung-retrain surface for the watchdog. Under a supervisor that can
  // cancel, the hang lasts until it does, so whether a later barrier finds
  // the trainer busy never depends on host speed. Like train.fail it sits
  // before any state mutation.
  if (OTAC_FAILPOINT_ACTIVE("trainer.train.hang")) {
    if (cancel.stop_possible()) {
      std::atomic<bool> cancelled{false};
      const std::stop_callback wake(cancel, [&cancelled] {
        cancelled.store(true);
        cancelled.notify_all();
      });
      cancelled.wait(false);
      return std::nullopt;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
  // Drop samples older than the training window.
  const SimTime window_start =
      now - static_cast<std::int64_t>(config_.training_window_days *
                                      kSecondsPerDay);
  while (!samples_.empty() && samples_.front().time < window_start) {
    samples_.pop_front();
  }
  constexpr std::size_t kMinSamples = 50;
  if (samples_.size() < kMinSamples) return std::nullopt;

  // Project onto the deployed feature subset (§3.2.2); empty = all nine.
  const std::vector<std::size_t>& subset = config_.feature_subset;
  std::vector<std::string> names;
  if (subset.empty()) {
    names = FeatureExtractor::feature_names();
  } else {
    for (const std::size_t f : subset) {
      names.push_back(FeatureExtractor::feature_names().at(f));
    }
  }
  ml::Dataset data{std::move(names)};
  data.reserve(samples_.size());
  std::vector<float> projected(subset.size());
  std::size_t positives = 0;
  for (const TrainingSample& sample : samples_) {
    if (sample.index >= now_index) continue;  // future-proofing
    const int label = label_of(*oracle_, sample.index, m_, now_index);
    positives += static_cast<std::size_t>(label);
    if (subset.empty()) {
      data.add_row(sample.features, label);
    } else {
      for (std::size_t k = 0; k < subset.size(); ++k) {
        projected[k] = sample.features[subset[k]];
      }
      data.add_row(projected, label);
    }
  }
  if (data.num_rows() < kMinSamples || positives == 0 ||
      positives == data.num_rows()) {
    return std::nullopt;
  }
  data.apply_cost_matrix(cost_v_);  // §4.4.1: false positives cost v

  ml::DecisionTreeConfig tree_config;
  tree_config.max_splits = config_.tree_max_splits;
  tree_config.max_depth = config_.tree_max_depth;
  ml::DecisionTree tree{tree_config};
  tree.fit(data);
  return tree;
}

}  // namespace otac
