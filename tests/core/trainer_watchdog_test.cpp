#include "core/trainer_watchdog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <deque>
#include <stdexcept>
#include <thread>
#include <vector>

#include "trace/trace_generator.h"
#include "util/failpoint.h"

namespace otac {
namespace {

/// Watchdog tests script trainer failpoints on the process-wide registry;
/// disarm on both sides so nothing leaks between tests.
class WatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::Registry::instance().disable_all(); }
  void TearDown() override { fail::Registry::instance().disable_all(); }
};

struct TrainerHarness {
  Trace trace;
  NextAccessInfo oracle;
  DailyTrainer trainer;

  TrainerHarness()
      : trace([] {
          WorkloadConfig config;
          config.num_owners = 200;
          config.num_photos = 2'000;
          return TraceGenerator{config}.generate();
        }()),
        oracle(compute_next_access(trace)),
        trainer(oracle, OtaConfig{}, /*m=*/2000.0, /*cost_v=*/2.0) {}

  /// Samples from the first half of the trace, enough to fit a tree.
  [[nodiscard]] std::vector<TrainingSample> real_samples() {
    std::vector<TrainingSample> samples;
    FeatureExtractor fx{trace.catalog};
    const std::uint64_t cutoff = trace.requests.size() / 2;
    for (std::uint64_t i = 0; i < cutoff; ++i) {
      const Request& request = trace.requests[i];
      const PhotoMeta& photo = trace.catalog.photo(request.photo);
      TrainingSample sample;
      fx.extract(request, photo, sample.features);
      sample.index = i;
      sample.time = request.time;
      samples.push_back(sample);
      fx.observe(request, photo);
    }
    return samples;
  }

  [[nodiscard]] std::uint64_t cutoff() const {
    return trace.requests.size() / 2;
  }
  [[nodiscard]] SimTime cutoff_time() const {
    return trace.requests[cutoff() - 1].time;
  }
};

TEST_F(WatchdogTest, InlineTrainsFromDrainedSamples) {
  TrainerHarness h;
  TrainerWatchdog watchdog{h.trainer, WatchdogConfig{}};
  EXPECT_FALSE(watchdog.threaded());
  const RetrainOutcome outcome =
      watchdog.retrain(h.real_samples(), h.cutoff(), h.cutoff_time());
  ASSERT_EQ(outcome.status, RetrainOutcome::Status::trained);
  EXPECT_TRUE(outcome.tree.has_value());
  EXPECT_EQ(outcome.retries, 0);
}

TEST_F(WatchdogTest, InlineSkipsOnTooFewSamples) {
  TrainerHarness h;
  TrainerWatchdog watchdog{h.trainer, WatchdogConfig{}};
  const RetrainOutcome outcome = watchdog.retrain({}, 10, SimTime{1000});
  EXPECT_EQ(outcome.status, RetrainOutcome::Status::skipped);
  EXPECT_FALSE(outcome.tree.has_value());
}

TEST_F(WatchdogTest, InlineZeroRetriesMatchesHistoricalTryCatch) {
  if (!fail::kSitesCompiled) GTEST_SKIP() << "OTAC_FAILPOINTS=OFF";
  TrainerHarness h;
  TrainerWatchdog watchdog{h.trainer, WatchdogConfig{}};  // no retries
  fail::Registry::instance().enable("trainer.train.fail");
  const RetrainOutcome outcome =
      watchdog.retrain(h.real_samples(), h.cutoff(), h.cutoff_time());
  EXPECT_EQ(outcome.status, RetrainOutcome::Status::failed);
  EXPECT_EQ(outcome.retries, 0);
  // Exactly one attempt reached the trainer.
  EXPECT_EQ(fail::Registry::instance().hits("trainer.train.fail"), 1u);
}

TEST_F(WatchdogTest, InlineRetryAbsorbsTransientFailure) {
  if (!fail::kSitesCompiled) GTEST_SKIP() << "OTAC_FAILPOINTS=OFF";
  TrainerHarness h;
  WatchdogConfig config;
  config.backoff.max_retries = 2;
  TrainerWatchdog watchdog{h.trainer, config};
  // Fires on the first evaluation only: the retry lands on a clean trainer
  // (the failpoint throws before any state mutation).
  fail::Registry::instance().enable_once("trainer.train.fail");
  const RetrainOutcome outcome =
      watchdog.retrain(h.real_samples(), h.cutoff(), h.cutoff_time());
  ASSERT_EQ(outcome.status, RetrainOutcome::Status::trained);
  EXPECT_EQ(outcome.retries, 1);
}

TEST_F(WatchdogTest, InlineTerminalFailureAfterBudget) {
  if (!fail::kSitesCompiled) GTEST_SKIP() << "OTAC_FAILPOINTS=OFF";
  TrainerHarness h;
  WatchdogConfig config;
  config.backoff.max_retries = 2;
  TrainerWatchdog watchdog{h.trainer, config};
  fail::Registry::instance().enable("trainer.train.fail");  // always
  const RetrainOutcome outcome =
      watchdog.retrain(h.real_samples(), h.cutoff(), h.cutoff_time());
  EXPECT_EQ(outcome.status, RetrainOutcome::Status::failed);
  EXPECT_EQ(outcome.retries, 2);
  EXPECT_EQ(fail::Registry::instance().hits("trainer.train.fail"), 3u);
}

TEST_F(WatchdogTest, ThreadedCompletesWithinTimeout) {
  TrainerHarness h;
  WatchdogConfig config;
  config.timeout_s = 30.0;  // generous: the train itself is fast
  TrainerWatchdog watchdog{h.trainer, config};
  EXPECT_TRUE(watchdog.threaded());
  const RetrainOutcome outcome =
      watchdog.retrain(h.real_samples(), h.cutoff(), h.cutoff_time());
  ASSERT_EQ(outcome.status, RetrainOutcome::Status::trained);
  EXPECT_TRUE(outcome.tree.has_value());
}

TEST_F(WatchdogTest, WorkerWithoutTimeoutFitsTheInlineTree) {
  TrainerHarness inline_h;
  TrainerWatchdog inline_watchdog{inline_h.trainer, WatchdogConfig{}};
  const RetrainOutcome expected = inline_watchdog.retrain(
      inline_h.real_samples(), inline_h.cutoff(), inline_h.cutoff_time());
  ASSERT_EQ(expected.status, RetrainOutcome::Status::trained);

  // The same samples as two shard runs; the worker merges them by index.
  TrainerHarness h;
  std::vector<std::deque<TrainingSample>> runs(2);
  for (const TrainingSample& sample : h.real_samples()) {
    runs[sample.index % 3 == 0 ? 0 : 1].push_back(sample);
  }
  TrainerWatchdog watchdog{h.trainer, WatchdogConfig{},
                           /*fit_on_worker=*/true};
  EXPECT_TRUE(watchdog.threaded());
  EXPECT_THROW((void)watchdog.collect(), std::logic_error);
  watchdog.submit(std::move(runs), h.cutoff(), h.cutoff_time());
  EXPECT_FALSE(watchdog.idle());
  EXPECT_THROW(watchdog.submit({}, h.cutoff(), h.cutoff_time()),
               std::logic_error);
  const RetrainOutcome outcome = watchdog.collect();
  EXPECT_TRUE(watchdog.idle());
  ASSERT_EQ(outcome.status, RetrainOutcome::Status::trained);
  EXPECT_EQ(outcome.tree->serialize(), expected.tree->serialize());
}

TEST_F(WatchdogTest, WorkerWithoutTimeoutWaitsOutAHang) {
  if (!fail::kSitesCompiled) GTEST_SKIP() << "OTAC_FAILPOINTS=OFF";
  // Without a timeout nothing can cancel, so the hang is the bounded
  // stall of the inline watchdog and the collect simply waits for it.
  TrainerHarness h;
  TrainerWatchdog watchdog{h.trainer, WatchdogConfig{},
                           /*fit_on_worker=*/true};
  fail::Registry::instance().enable_once("trainer.train.hang");
  const RetrainOutcome outcome =
      watchdog.retrain(h.real_samples(), h.cutoff(), h.cutoff_time());
  EXPECT_EQ(outcome.status, RetrainOutcome::Status::trained);
  EXPECT_GE(outcome.fit_s, 0.25);
}

TEST_F(WatchdogTest, ThreadedHangTimesOutBuffersAndRecovers) {
  if (!fail::kSitesCompiled) GTEST_SKIP() << "OTAC_FAILPOINTS=OFF";
  TrainerHarness h;
  WatchdogConfig config;
  config.timeout_s = 0.02;  // 20 ms vs a hang held until cancel()
  TrainerWatchdog watchdog{h.trainer, config};
  fail::Registry::instance().enable_once("trainer.train.hang");

  // The last few hundred samples before the cutoff (inside the training
  // window) keep each real fit far below the timeout.
  std::vector<TrainingSample> samples = h.real_samples();
  samples.erase(samples.begin(),
                samples.end() - std::min<std::ptrdiff_t>(
                                    std::ssize(samples), 400));
  const std::size_t half = samples.size() / 2;
  std::vector<TrainingSample> first(samples.begin(),
                                    samples.begin() + half);
  std::vector<TrainingSample> second(samples.begin() + half, samples.end());

  // Barrier 1: the hung train exceeds the timeout and is abandoned.
  const RetrainOutcome stalled =
      watchdog.retrain(std::move(first), h.cutoff(), h.cutoff_time());
  EXPECT_EQ(stalled.status, RetrainOutcome::Status::timed_out);
  EXPECT_FALSE(stalled.tree.has_value());

  // Barrier 2, immediately after: the worker is still sleeping — samples
  // are buffered, the barrier returns without blocking.
  const RetrainOutcome busy =
      watchdog.retrain(std::move(second), h.cutoff(), h.cutoff_time());
  EXPECT_EQ(busy.status, RetrainOutcome::Status::busy);
  EXPECT_GT(watchdog.buffered_samples(), 0u);

  // The hang holds the worker until cancelled, so every barrier until
  // then finds it busy, however long the wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const RetrainOutcome still_busy = watchdog.retrain({}, h.cutoff(),
                                                     h.cutoff_time());
  EXPECT_EQ(still_busy.status, RetrainOutcome::Status::busy);

  // Cancel the hang; its (stale) result must have been discarded, and a
  // later barrier ingests the buffered samples and trains normally. A
  // real fit is not bounded by the 20 ms timeout (a sanitizer build on a
  // loaded box can take longer), so a recovery barrier may find the
  // worker busy or time out itself; keep holding barriers until one
  // trains.
  watchdog.cancel();
  RetrainOutcome recovered =
      watchdog.retrain({}, h.cutoff(), h.cutoff_time());
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (recovered.stalled() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    recovered = watchdog.retrain({}, h.cutoff(), h.cutoff_time());
  }
  ASSERT_EQ(recovered.status, RetrainOutcome::Status::trained);
  EXPECT_TRUE(recovered.tree.has_value());
  EXPECT_EQ(watchdog.buffered_samples(), 0u);
}

TEST_F(WatchdogTest, DestructorAbandonsHungJobWithoutDeadlock) {
  if (!fail::kSitesCompiled) GTEST_SKIP() << "OTAC_FAILPOINTS=OFF";
  TrainerHarness h;
  WatchdogConfig config;
  config.timeout_s = 0.01;
  fail::Registry::instance().enable_once("trainer.train.hang");
  {
    TrainerWatchdog watchdog{h.trainer, config};
    const RetrainOutcome outcome =
        watchdog.retrain(h.real_samples(), h.cutoff(), h.cutoff_time());
    EXPECT_EQ(outcome.status, RetrainOutcome::Status::timed_out);
    // Destructor joins the sleeping worker; must terminate promptly.
  }
  SUCCEED();
}

}  // namespace
}  // namespace otac
