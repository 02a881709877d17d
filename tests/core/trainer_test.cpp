#include "core/trainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "trace/trace_generator.h"
#include "util/rng.h"

namespace otac {
namespace {

Trace small_trace() {
  WorkloadConfig config;
  config.num_owners = 500;
  config.num_photos = 10'000;
  return TraceGenerator{config}.generate();
}

TEST(TrainerLabel, TruncatedLabels) {
  // Sequence 0 1 0: next[0] = 2.
  Trace trace;
  std::vector<PhotoMeta> photos(2);
  for (auto& p : photos) p.size_bytes = 10;
  trace.catalog = PhotoCatalog{std::move(photos), {OwnerMeta{}}};
  for (const PhotoId id : {0u, 1u, 0u}) {
    Request r;
    r.photo = id;
    trace.requests.push_back(r);
  }
  const NextAccessInfo oracle = compute_next_access(trace);
  // Known until 3 (everything): distance 2 <= m=5 -> non-one-time.
  EXPECT_EQ(DailyTrainer::label_of(oracle, 0, 5.0, 3), 0);
  // Known until 2: the reaccess at index 2 hasn't been seen yet.
  EXPECT_EQ(DailyTrainer::label_of(oracle, 0, 5.0, 2), 1);
  // m too small: one-time even with full knowledge.
  EXPECT_EQ(DailyTrainer::label_of(oracle, 0, 1.0, 3), 1);
  // Photo 1 never reaccessed.
  EXPECT_EQ(DailyTrainer::label_of(oracle, 1, 100.0, 3), 1);
}

TEST(Trainer, SamplingHonoursPerMinuteBudget) {
  const Trace trace = small_trace();
  const NextAccessInfo oracle = compute_next_access(trace);
  OtaConfig config;
  config.sample_records_per_minute = 2;
  DailyTrainer trainer{oracle, config, 100.0, 2.0};
  // 10 requests within one minute: only 2 kept.
  std::array<float, FeatureExtractor::kFeatureCount> row{};
  for (int i = 0; i < 10; ++i) {
    Request r;
    r.time = SimTime{30 + i};
    trainer.offer(static_cast<std::uint64_t>(i), r, row);
  }
  EXPECT_EQ(trainer.sample_count(), 2u);
  // Next minute opens a fresh budget.
  Request r;
  r.time = SimTime{65};
  trainer.offer(10, r, row);
  EXPECT_EQ(trainer.sample_count(), 3u);
}

TEST(Trainer, TrainsUsableModelOnRealTrace) {
  const Trace trace = small_trace();
  const NextAccessInfo oracle = compute_next_access(trace);
  OtaConfig config;
  DailyTrainer trainer{oracle, config, /*m=*/2000.0, /*cost_v=*/2.0};

  FeatureExtractor fx{trace.catalog};
  std::array<float, FeatureExtractor::kFeatureCount> row{};
  const std::uint64_t cutoff = trace.requests.size() / 2;
  for (std::uint64_t i = 0; i < cutoff; ++i) {
    const Request& r = trace.requests[i];
    const PhotoMeta& photo = trace.catalog.photo(r.photo);
    fx.extract(r, photo, row);
    trainer.offer(i, r, row);
    fx.observe(r, photo);
  }
  ASSERT_GT(trainer.sample_count(), 500u);
  const auto tree = trainer.train(cutoff, trace.requests[cutoff - 1].time);
  ASSERT_TRUE(tree.has_value());
  EXPECT_LE(tree->split_count(), config.tree_max_splits);
  EXPECT_GE(tree->split_count(), 1u);

  // The model must beat the trivial always-one-time baseline on
  // ground-truth labels of the second half.
  std::uint64_t correct = 0;
  std::uint64_t positive = 0;
  std::uint64_t total = 0;
  FeatureExtractor fx2{trace.catalog};
  for (std::uint64_t i = 0; i < trace.requests.size(); ++i) {
    const Request& r = trace.requests[i];
    const PhotoMeta& photo = trace.catalog.photo(r.photo);
    if (i >= cutoff) {
      fx2.extract(r, photo, row);
      const int truth =
          DailyTrainer::label_of(oracle, i, 2000.0, trace.requests.size());
      const int predicted = tree->predict(row);
      correct += (predicted == truth);
      positive += (truth == 1);
      ++total;
    }
    fx2.observe(r, photo);
  }
  const double accuracy = static_cast<double>(correct) / total;
  const double base_rate =
      std::max(static_cast<double>(positive) / total,
               1.0 - static_cast<double>(positive) / total);
  EXPECT_GT(accuracy, base_rate + 0.02);
}

TEST(Trainer, RefusesTinySampleSets) {
  const Trace trace = small_trace();
  const NextAccessInfo oracle = compute_next_access(trace);
  DailyTrainer trainer{oracle, OtaConfig{}, 100.0, 2.0};
  std::array<float, FeatureExtractor::kFeatureCount> row{};
  for (int i = 0; i < 10; ++i) {
    Request r;
    r.time = SimTime{i * 61};  // one per minute
    trainer.offer(static_cast<std::uint64_t>(i), r, row);
  }
  EXPECT_FALSE(trainer.train(10, SimTime{700}).has_value());
}

TEST(Trainer, WindowDropsOldSamples) {
  const Trace trace = small_trace();
  const NextAccessInfo oracle = compute_next_access(trace);
  OtaConfig config;
  config.training_window_days = 1.0;
  DailyTrainer trainer{oracle, config, 100.0, 2.0};
  std::array<float, FeatureExtractor::kFeatureCount> row{};
  // 100 samples two days ago, spread one per minute.
  for (int i = 0; i < 100; ++i) {
    Request r;
    r.time = SimTime{i * 61};
    trainer.offer(static_cast<std::uint64_t>(i), r, row);
  }
  EXPECT_EQ(trainer.sample_count(), 100u);
  // Training "now" = 3 days later: all samples fall outside the window.
  EXPECT_FALSE(trainer.train(200, SimTime{3 * kSecondsPerDay}).has_value());
  EXPECT_EQ(trainer.sample_count(), 0u);
}

TEST(MergeByIndex, EqualsSortOnRandomRuns) {
  // The barrier's drain: one index-ascending run per shard, indices unique
  // across runs, some runs empty. The merge must equal concatenate + sort.
  Rng rng{2024};
  for (const std::size_t shards : {1U, 4U, 8U}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::deque<TrainingSample>> runs(shards);
      // A few trials leave whole shards empty.
      const std::size_t live = trial % 4 == 0 ? (shards + 1) / 2 : shards;
      const std::size_t samples = rng.next_below(2000);
      std::uint64_t index = 0;
      for (std::size_t i = 0; i < samples; ++i) {
        index += 1 + rng.next_below(5);
        TrainingSample sample{};
        sample.index = index;
        sample.time = SimTime{static_cast<std::int64_t>(index / 3)};
        sample.features[0] = static_cast<float>(rng.next_below(100));
        runs[rng.next_below(live)].push_back(sample);
      }
      std::vector<const std::deque<TrainingSample>*> views;
      std::vector<TrainingSample> expected;
      for (const auto& run : runs) {
        views.push_back(&run);
        expected.insert(expected.end(), run.begin(), run.end());
      }
      std::sort(expected.begin(), expected.end(),
                [](const TrainingSample& a, const TrainingSample& b) {
                  return a.index < b.index;
                });
      const std::vector<TrainingSample> merged = merge_by_index(views);
      ASSERT_EQ(merged.size(), expected.size());
      for (std::size_t i = 0; i < merged.size(); ++i) {
        ASSERT_EQ(merged[i].index, expected[i].index);
        ASSERT_EQ(merged[i].time, expected[i].time);
        ASSERT_EQ(merged[i].features, expected[i].features);
      }
    }
  }
}

}  // namespace
}  // namespace otac
