// The classification system of Fig. 4 as the serving engine runs it:
// admit-all before the first model, history-table sizing, the daily
// retrain, and end-to-end filtering quality.
#include <gtest/gtest.h>

#include "core/shard_engine.h"
#include "trace/trace_generator.h"

namespace otac {
namespace {

class ClassificationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.num_owners = 1'000;
    config.num_photos = 30'000;
    trace_ = new Trace{TraceGenerator{config}.generate()};
    system_ = new IntelligentCache{*trace_};
  }
  static void TearDownTestSuite() {
    delete system_;
    delete trace_;
    system_ = nullptr;
    trace_ = nullptr;
  }

  static RunConfig config_for(std::uint64_t capacity) {
    RunConfig config;
    config.policy = PolicyKind::lru;
    config.capacity_bytes = capacity;
    config.mode = AdmissionMode::proposal;
    return config;
  }

  static Trace* trace_;
  static IntelligentCache* system_;
};

Trace* ClassificationFixture::trace_ = nullptr;
IntelligentCache* ClassificationFixture::system_ = nullptr;

TEST_F(ClassificationFixture, AdmitsEverythingBeforeFirstModel) {
  ShardEngine engine{*system_, config_for(50'000'000)};
  EXPECT_TRUE(engine.snapshot().model_blob.empty());
  const std::uint64_t first = 0;
  ShardEngine::RowOutcome row;
  engine.serve_batch(0, &first, 1, &row);
  EXPECT_EQ(row.outcome, ShardEngine::Outcome::stored);
}

TEST_F(ClassificationFixture, HistoryCapacityFollowsRule) {
  const RunConfig config = config_for(50'000'000);
  const ShardEngine engine{*system_, config};
  const RunResult setup = engine.totals();
  EXPECT_EQ(setup.history_capacity,
            history_table_capacity(setup.criteria.m, setup.criteria.h,
                                   setup.criteria.p,
                                   config.ota.history_table_factor));
}

TEST_F(ClassificationFixture, TrainsDailyAtConfiguredHour) {
  ShardEngine engine{*system_, config_for(50'000'000)};
  const RunResult& result = engine.replay(1);
  // 9-day trace, training every day at 05:00 from day 0.
  EXPECT_GE(result.trainings, 8);
  const std::string blob = engine.snapshot().model_blob;
  ASSERT_FALSE(blob.empty());
  EXPECT_LE(ml::DecisionTree::deserialize(blob).split_count(), 30u);
}

TEST_F(ClassificationFixture, EndToEndRejectsSubstantialShareOfMisses) {
  const RunResult result = system_->run(config_for(50'000'000));
  // After day-0 training, a large share of one-time misses must be barred.
  EXPECT_GT(result.stats.rejected, result.stats.requests / 20);
  // And the classifier's daily metrics must exist for most days.
  EXPECT_GE(result.daily.size(), 7u);
}

TEST_F(ClassificationFixture, DailyMetricsAreReasonable) {
  const RunResult result = system_->run(config_for(50'000'000));
  // Skip day 0 (no model for the first 5 hours -> no admit decisions
  // recorded before the model exists is fine; after training they are).
  double worst_accuracy = 1.0;
  std::uint64_t decisions = 0;
  for (const DayClassifierMetrics& day : result.daily) {
    if (day.day == 0) continue;
    worst_accuracy = std::min(worst_accuracy, day.raw.accuracy());
    decisions += day.raw.total();
  }
  EXPECT_GT(decisions, 1000u);
  EXPECT_GT(worst_accuracy, 0.55);  // must beat coin flipping every day
}

TEST_F(ClassificationFixture, HistoryTableRectifies) {
  const RunResult result = system_->run(config_for(20'000'000));
  // Corrected decisions should flip some raw one-time verdicts: the number
  // of corrected positives must not exceed raw positives.
  std::uint64_t raw_positive = 0;
  std::uint64_t corrected_positive = 0;
  for (const DayClassifierMetrics& day : result.daily) {
    raw_positive += day.raw.tp + day.raw.fp;
    corrected_positive += day.corrected.tp + day.corrected.fp;
  }
  EXPECT_LE(corrected_positive, raw_positive);
}

}  // namespace
}  // namespace otac
