// The engine's epoch rule: the barrier for trigger t runs after request t
// is served and before request t+1 is. ShardEngine keeps the trigger
// cursor itself — drivers see only epoch_end() and advance() — so these
// tests hold the engine to the rule every driver relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

#include "core/shard_engine.h"
#include "core/sharded_cache.h"
#include "trace/trace_generator.h"

namespace otac {
namespace {

class EpochFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.num_owners = 500;
    config.num_photos = 12'000;
    trace_ = new Trace{TraceGenerator{config}.generate()};
    system_ = new IntelligentCache{*trace_};
  }
  static void TearDownTestSuite() {
    delete system_;
    delete trace_;
    system_ = nullptr;
    trace_ = nullptr;
  }

  static RunConfig config_for(AdmissionMode mode) {
    RunConfig config;
    config.policy = PolicyKind::lru;
    config.capacity_bytes =
        static_cast<std::uint64_t>(system_->total_object_bytes() * 0.015);
    config.mode = mode;
    return config;
  }

  /// Serve requests [begin, end) on shard 0 in full admission batches.
  static void serve(ShardEngine& engine, std::uint64_t begin,
                    std::uint64_t end) {
    constexpr std::size_t kBatch = ServingCore::kAdmissionBatchCapacity;
    std::array<std::uint64_t, kBatch> rows;
    std::array<ShardEngine::RowOutcome, kBatch> outcomes;
    while (begin < end) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(kBatch, end - begin));
      for (std::size_t b = 0; b < n; ++b) rows[b] = begin + b;
      engine.serve_batch(0, rows.data(), n, outcomes.data());
      begin += n;
    }
  }

  static std::vector<std::uint64_t> timeline_indices(const RunResult& run) {
    std::vector<std::uint64_t> indices;
    for (const obs::BarrierSample& sample : run.obs.timeline) {
      indices.push_back(sample.request_index);
    }
    return indices;
  }

  static Trace* trace_;
  static IntelligentCache* system_;
};

Trace* EpochFixture::trace_ = nullptr;
IntelligentCache* EpochFixture::system_ = nullptr;

TEST_F(EpochFixture, EpochEndIsNextPendingTriggerPlusOne) {
  const std::vector<std::uint64_t> triggers =
      retrain_trigger_indices(*trace_, OtaConfig{});
  ASSERT_GE(triggers.size(), 3u);
  ShardEngine engine{*system_, config_for(AdmissionMode::proposal)};
  EXPECT_EQ(engine.epoch_end(), triggers[0] + 1);
  engine.advance(triggers[0]);  // the trigger itself is not below it
  EXPECT_EQ(engine.epoch_end(), triggers[0] + 1);
  engine.advance(triggers[1]);
  EXPECT_EQ(engine.epoch_end(), triggers[1] + 1);
  engine.advance(trace_->requests.size());
  EXPECT_EQ(engine.epoch_end(), trace_->requests.size());

  const ShardEngine original{*system_, config_for(AdmissionMode::original)};
  EXPECT_EQ(original.epoch_end(), trace_->requests.size());
}

TEST_F(EpochFixture, RestoreRefusesAnEngineThatRanABarrier) {
  // restore() recomputes the triggers from the restored schedule, so it
  // needs the cursor still at the first one. A barrier with no samples
  // trains nothing and publishes no generation, which alone must not let
  // a restore through.
  const ClassifierSnapshot snapshot =
      ShardEngine{*system_, config_for(AdmissionMode::proposal)}.snapshot();
  ShardEngine engine{*system_, config_for(AdmissionMode::proposal)};
  engine.advance(engine.epoch_end());
  EXPECT_TRUE(engine.snapshot().model_blob.empty());
  EXPECT_THROW((void)engine.restore(snapshot), std::invalid_argument);
}

TEST_F(EpochFixture, ServeBatchThrowsAtOrPastEpochEnd) {
  ShardEngine engine{*system_, config_for(AdmissionMode::proposal)};
  const std::uint64_t end = engine.epoch_end();
  ASSERT_LT(end, trace_->requests.size());
  std::array<ShardEngine::RowOutcome, 2> outcomes;

  const std::uint64_t at_end = end;
  EXPECT_THROW(engine.serve_batch(0, &at_end, 1, outcomes.data()),
               std::logic_error);
  // A batch that starts inside the epoch and reaches past it is refused
  // whole: no row of it is served.
  const std::array<std::uint64_t, 2> straddling{end - 1, end};
  EXPECT_THROW(engine.serve_batch(0, straddling.data(), 2, outcomes.data()),
               std::logic_error);
  EXPECT_EQ(engine.totals().stats.requests, 0u);

  serve(engine, 0, end);
  EXPECT_EQ(engine.totals().stats.requests, end);
  EXPECT_THROW(engine.serve_batch(0, &at_end, 1, outcomes.data()),
               std::logic_error);
  engine.advance(end);
  EXPECT_NO_THROW(engine.serve_batch(0, &at_end, 1, outcomes.data()));

  // Outside proposal mode the only epoch is the trace.
  ShardEngine original{*system_, config_for(AdmissionMode::original)};
  const std::uint64_t past_trace = trace_->requests.size();
  EXPECT_THROW(original.serve_batch(0, &past_trace, 1, outcomes.data()),
               std::logic_error);
}

TEST_F(EpochFixture, AdvancePastSeveralTriggersEqualsStepwiseWalk) {
  // The daemon's end-of-stream flush: a prefix is served, then one
  // advance() runs every remaining barrier. It must run each of them, in
  // trigger order, exactly as a walk that advances one epoch at a time.
  const std::vector<std::uint64_t> triggers =
      retrain_trigger_indices(*trace_, OtaConfig{});
  ASSERT_GE(triggers.size(), 3u);
  const std::uint64_t total = trace_->requests.size();

  ShardEngine stepwise{*system_, config_for(AdmissionMode::proposal)};
  serve(stepwise, 0, stepwise.epoch_end());
  while (stepwise.epoch_end() < total) stepwise.advance(stepwise.epoch_end());
  stepwise.advance(total);
  const RunResult& walked = stepwise.finish(1);

  ShardEngine flushed{*system_, config_for(AdmissionMode::proposal)};
  serve(flushed, 0, flushed.epoch_end());
  flushed.advance(total);
  const RunResult& at_once = flushed.finish(1);

  // One sample per barrier, then finish()'s end-of-trace sample.
  std::vector<std::uint64_t> expected = triggers;
  if (expected.back() != total - 1) expected.push_back(total - 1);
  EXPECT_EQ(timeline_indices(walked), expected);
  EXPECT_EQ(timeline_indices(at_once), expected);
  EXPECT_GE(at_once.trainings, 1);
  EXPECT_EQ(at_once.trainings, walked.trainings);
  EXPECT_EQ(at_once.degradation, walked.degradation);
  EXPECT_EQ(at_once.stats, walked.stats);
  EXPECT_EQ(flushed.snapshot().model_blob, stepwise.snapshot().model_blob);
}

}  // namespace
}  // namespace otac
