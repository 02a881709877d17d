// The engine's epoch rule: the events at index e — a trigger's drain, a
// publish point — run after request e is served and before request e+1
// is. ShardEngine keeps the trigger cursor and the pending publish itself
// — drivers see only epoch_end() and advance() — so these tests hold the
// engine to the rule every driver relies on, at publish lag 0 (one
// barrier per trigger) and with the fit lagged onto the trainer thread.
// Lagged engines start that thread, hence the `concurrency` label.
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

  static RunConfig config_for(AdmissionMode mode, std::size_t shards = 1) {
    RunConfig config;
    config.policy = PolicyKind::lru;
    config.capacity_bytes =
        static_cast<std::uint64_t>(system_->total_object_bytes() * 0.015);
    config.mode = mode;
    config.shards = shards;
    return config;
  }

  /// Serve and advance one epoch at a time until the first model is
  /// published; returns the number of epochs walked.
  static std::size_t walk_to_first_model(ShardEngine& engine) {
    std::size_t epochs = 0;
    while (engine.totals().trainings == 0 &&
           engine.epoch_end() < trace_->requests.size()) {
      const std::uint64_t end = engine.epoch_end();
      serve(engine, engine.totals().stats.requests, end);
      engine.advance(end);
      ++epochs;
    }
    return epochs;
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

TEST_F(EpochFixture, FirstPublishIsImmediateThenThePublishLags) {
  const std::vector<std::uint64_t> triggers =
      retrain_trigger_indices(*trace_, OtaConfig{});
  constexpr std::uint64_t kLag = 500;
  ShardEngine engine{*system_, config_for(AdmissionMode::proposal), kLag};

  // Until a model serves, every fit publishes at its own trigger: the
  // epoch after each drain ends at the next trigger.
  const std::size_t walked = walk_to_first_model(engine);
  ASSERT_GE(walked, 1u);
  ASSERT_LT(walked + 1, triggers.size());
  EXPECT_EQ(engine.totals().trainings, 1);
  const std::uint64_t t = triggers[walked];
  EXPECT_EQ(engine.epoch_end(), t + 1);

  // With a model serving, the drain at t leaves the fit in flight and
  // the epoch ends at its publish point instead.
  ASSERT_LT(t + kLag, triggers[walked + 1]);
  serve(engine, engine.totals().stats.requests, t + 1);
  engine.advance(t + 1);
  EXPECT_EQ(engine.epoch_end(), t + kLag + 1);
  EXPECT_EQ(engine.totals().trainings, 1);
  const std::uint64_t past_publish = t + kLag + 1;
  std::array<ShardEngine::RowOutcome, 1> outcome;
  EXPECT_THROW(engine.serve_batch(0, &past_publish, 1, outcome.data()),
               std::logic_error);
  engine.advance(t + kLag);  // the publish point itself is not below it
  EXPECT_EQ(engine.epoch_end(), t + kLag + 1);

  serve(engine, t + 1, t + kLag + 1);
  engine.advance(t + kLag + 1);
  EXPECT_EQ(engine.totals().trainings, 2);
  EXPECT_EQ(engine.epoch_end(), triggers[walked + 1] + 1);
  EXPECT_NO_THROW(engine.serve_batch(0, &past_publish, 1, outcome.data()));
}

TEST_F(EpochFixture, SnapshotThrowsWhileALaggedFitIsInFlight) {
  ShardEngine engine{*system_, config_for(AdmissionMode::proposal),
                     /*publish_lag=*/500};
  walk_to_first_model(engine);
  EXPECT_NO_THROW((void)engine.snapshot());
  const std::uint64_t t = engine.epoch_end() - 1;
  serve(engine, engine.totals().stats.requests, t + 1);
  engine.advance(t + 1);
  ASSERT_EQ(engine.epoch_end(), t + 501);
  // The trainer belongs to the worker until the publish point.
  EXPECT_THROW((void)engine.snapshot(), std::logic_error);
  serve(engine, t + 1, t + 501);
  engine.advance(t + 501);
  EXPECT_NO_THROW((void)engine.snapshot());
}

TEST_F(EpochFixture, LagPastTheNextTriggerPublishesBeforeItsDrain) {
  const std::vector<std::uint64_t> triggers =
      retrain_trigger_indices(*trace_, OtaConfig{});
  const std::uint64_t total = trace_->requests.size();
  ShardEngine engine{*system_, config_for(AdmissionMode::proposal),
                     /*publish_lag=*/total};
  const std::size_t walked = walk_to_first_model(engine);
  ASSERT_LT(walked + 2, triggers.size());

  // Each fit publishes at the next trigger, just before that trigger's
  // drain submits the next fit; the last one publishes at the last
  // request.
  for (std::size_t k = walked; k + 1 < triggers.size(); ++k) {
    const std::uint64_t end = engine.epoch_end();
    EXPECT_EQ(end, triggers[k] + 1);
    serve(engine, engine.totals().stats.requests, end);
    engine.advance(end);
    EXPECT_EQ(engine.epoch_end(), triggers[k + 1] + 1);
  }
  const int before_last = engine.totals().trainings;
  const RunResult& run = engine.finish(1);
  EXPECT_GE(run.trainings, before_last);

  std::vector<std::uint64_t> expected(triggers.begin(),
                                      triggers.begin() + walked);
  expected.insert(expected.end(), triggers.begin() + walked + 1,
                  triggers.end());
  expected.push_back(total - 1);
  EXPECT_EQ(timeline_indices(run), expected);
}

TEST_F(EpochFixture, LaggedReplayIsIndependentOfThreadCount) {
  const std::uint64_t total = trace_->requests.size();
  // 1024 is the daemon's default publish lag (DaemonConfig); the daemon
  // e2e suite replays at the default itself.
  constexpr std::uint64_t kDaemonLag = 1024;
  const RunResult unlagged =
      ShardEngine{*system_, config_for(AdmissionMode::proposal, 4)}.replay(4);
  for (const std::uint64_t lag :
       {std::uint64_t{1}, kDaemonLag, total}) {
    SCOPED_TRACE("lag " + std::to_string(lag));
    const RunResult reference =
        ShardEngine{*system_, config_for(AdmissionMode::proposal, 4), lag}
            .replay(1);
    EXPECT_GE(reference.trainings, 2);
    // The lag moved every publish after the first off its trigger.
    EXPECT_NE(timeline_indices(reference), timeline_indices(unlagged));
    for (const std::size_t threads : {2u, 4u}) {
      const RunResult run =
          ShardEngine{*system_, config_for(AdmissionMode::proposal, 4), lag}
              .replay(threads);
      EXPECT_TRUE(run == reference) << threads << " threads";
      EXPECT_EQ(run.stats.eviction_hash, reference.stats.eviction_hash);
      EXPECT_EQ(timeline_indices(run), timeline_indices(reference));
    }
  }
}

}  // namespace
}  // namespace otac
