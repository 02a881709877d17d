// Concurrency stress suite (ctest label: concurrency; run under TSan by
// `scripts/ci.sh concurrency`). The sharded layer's safety claim is narrow
// and checkable: worker threads share exactly one mutable object — the
// model slot (core/model_slot.h) — plus the mutex-protected failpoint
// registry. These
// tests hammer the three cross-thread interactions the design allows:
//   1. admission on every shard while the model is concurrently swapped,
//   2. checkpoint save/load cycles (with fault injection) while serving
//      threads keep admitting,
//   3. a full sharded replay with a failing trainer (failpoint throws cross
//      the retrain barrier on the coordinator, never a worker).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "core/checkpoint.h"
#include "core/model_slot.h"
#include "core/serving_core.h"
#include "core/sharded_cache.h"
#include "util/sim_time.h"
#include "ml/compiled_tree.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "trace/next_access.h"
#include "trace/trace_generator.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace otac {
namespace {

class ShardedStressFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.num_owners = 300;
    config.num_photos = 8'000;
    trace_ = new Trace{TraceGenerator{config}.generate()};
    oracle_ = new NextAccessInfo{compute_next_access(*trace_)};
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete trace_;
    oracle_ = nullptr;
    trace_ = nullptr;
  }

  /// A servable 9-feature tree fit on a synthetic (deterministic) dataset;
  /// `flavor` perturbs the labels so successive swaps install trees that
  /// genuinely differ.
  static ml::DecisionTree make_tree(int flavor) {
    ml::Dataset data{FeatureExtractor::feature_names()};
    std::array<float, FeatureExtractor::kFeatureCount> row{};
    for (int i = 0; i < 400; ++i) {
      for (std::size_t f = 0; f < row.size(); ++f) {
        row[f] = static_cast<float>((i * 7 + static_cast<int>(f) * 13) % 97);
      }
      data.add_row(row, (i + flavor) % 3 == 0 ? 1 : 0);
    }
    ml::DecisionTreeConfig config;
    config.max_splits = 8;
    ml::DecisionTree tree{config};
    tree.fit(data);
    return tree;
  }

  static Trace* trace_;
  static NextAccessInfo* oracle_;
};

Trace* ShardedStressFixture::trace_ = nullptr;
NextAccessInfo* ShardedStressFixture::oracle_ = nullptr;

TEST_F(ShardedStressFixture, EightThreadsHammerAdmissionDuringModelSwaps) {
  constexpr std::size_t kWorkers = 8;
  constexpr std::uint64_t kOpsPerWorker = 150'000;  // 1.2M ops total

  ModelSlot model;
  const ml::CompiledTree tree_a = ml::CompiledTree::compile(make_tree(0));
  const ml::CompiledTree tree_b = ml::CompiledTree::compile(make_tree(1));

  std::atomic<bool> serving_done{false};
  std::atomic<std::uint64_t> swaps{0};
  std::thread swapper{[&] {
    ml::CompiledTree readback;
    while (!serving_done.load()) {
      model.store((swaps.load() % 2 == 0) ? tree_a : tree_b);
      swaps.fetch_add(1);
      // A periodic read from the swapper side too (checkpointing reads the
      // live model the same way). A decoded snapshot must always equal one
      // of the published trees — a torn read slipping through the seqlock
      // would trip this.
      ASSERT_TRUE(model.load(readback));
      ASSERT_TRUE(readback == tree_a || readback == tree_b);
    }
  }};

  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> admitted{0};
  ThreadPool pool{kWorkers};
  pool.parallel_for(kWorkers, [&](std::size_t shard) {
    // Per-shard private state, like one ShardEngine shard, served through
    // the batched path: stage a micro-batch, classify it, admit each row.
    ServingConfig serving;
    ServingCore core{trace_->catalog, *oracle_, serving, 512};
    const std::uint64_t total = trace_->requests.size();
    std::uint64_t local_ops = 0;
    std::uint64_t local_admitted = 0;
    std::uint64_t pass = 0;
    ml::CompiledTree snapshot;  // reader-owned storage, reused across loads
    constexpr std::size_t kBatch = 16;
    std::array<Request, kBatch> batch;
    std::array<std::uint64_t, kBatch> batch_index;
    while (local_ops < kOpsPerWorker) {
      std::uint64_t i = shard;
      while (i < total && local_ops < kOpsPerWorker) {
        core.begin_batch();
        const ml::CompiledTree* tree = nullptr;
        std::size_t n = 0;
        for (; n < kBatch && i < total && local_ops < kOpsPerWorker;
             ++n, i += kWorkers, ++local_ops) {
          batch[n] = trace_->requests[i];
          batch_index[n] = i;
          // Keep the stream time-monotonic across replay passes.
          batch[n].time.seconds +=
              static_cast<std::int64_t>(pass) * 10 * kSecondsPerDay;
          (void)core.stage(batch[n], trace_->catalog.photo(batch[n].photo));
          // One seqlock load per op — far hotter than production (one
          // load per shard per generation) precisely to hammer load/store
          // overlap. The batch classifies with the last load.
          tree = model.load(snapshot) ? &snapshot : nullptr;
        }
        core.classify_staged(tree);
        for (std::size_t b = 0; b < n; ++b) {
          if (core.admit_staged(b, batch_index[b], batch[b],
                                trace_->catalog.photo(batch[b].photo))) {
            ++local_admitted;
          }
        }
      }
      ++pass;
    }
    ops.fetch_add(local_ops);
    admitted.fetch_add(local_admitted);
    EXPECT_EQ(core.degradation.predict_failures, 0u);
    EXPECT_EQ(core.degradation.nonfinite_feature_requests, 0u);
  });
  serving_done.store(true);
  swapper.join();

  EXPECT_EQ(ops.load(), kWorkers * kOpsPerWorker);
  EXPECT_GT(swaps.load(), 0u);
  EXPECT_GT(admitted.load(), 0u);
}

#if defined(OTAC_FAILPOINTS_ENABLED) && OTAC_FAILPOINTS_ENABLED

TEST_F(ShardedStressFixture, CheckpointCyclesWithFailpointsDuringServing) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "otac_ckpt_stress").string();
  std::filesystem::remove_all(dir);
  CheckpointManager manager{dir};

  ClassifierSnapshot snapshot;
  snapshot.m = 1000.0;
  snapshot.h = 0.5;
  snapshot.p = 0.2;
  snapshot.model_blob = make_tree(0).serialize();

  std::atomic<bool> serving_done{false};
  std::atomic<std::uint64_t> saves_attempted{0};
  std::atomic<std::uint64_t> saves_failed{0};
  std::thread checkpointer{[&] {
    // Probabilistic fault injection on every crash surface inside
    // save()/load(); the registry is mutex-protected, so scripting it from
    // this thread while workers run is itself part of the TSan exercise.
    for (const std::string& name : CheckpointManager::failpoint_names()) {
      fail::Registry::instance().enable_probability(name, 0.3, 1234);
    }
    while (!serving_done.load()) {
      ++saves_attempted;
      try {
        manager.save(snapshot);
      } catch (const std::exception&) {
        ++saves_failed;  // torn/crashed write; generations stay recoverable
      }
      (void)manager.load();
    }
    fail::Registry::instance().disable_all();
  }};

  // Serving keeps going, pass after pass, until the checkpointer has
  // cycled a few times, so saves and loads always overlap serving however
  // the threads are scheduled.
  constexpr std::uint64_t kMinSaves = 3;
  ThreadPool pool{4};
  pool.parallel_for(4, [&](std::size_t shard) {
    ServingConfig serving;
    ServingCore core{trace_->catalog, *oracle_, serving, 256};
    const std::uint64_t total = trace_->requests.size();
    for (std::uint64_t pass = 0;
         pass == 0 || saves_attempted.load() < kMinSaves; ++pass) {
      for (std::uint64_t i = shard; i < total; i += 4) {
        Request request = trace_->requests[i];
        // Keep the stream time-monotonic across replay passes.
        request.time.seconds +=
            static_cast<std::int64_t>(pass) * 10 * kSecondsPerDay;
        const PhotoMeta& photo = trace_->catalog.photo(request.photo);
        core.begin_batch();
        (void)core.stage(request, photo);
        core.classify_staged(nullptr);
        (void)core.admit_staged(0, i, request, photo);
      }
    }
  });
  serving_done.store(true);
  checkpointer.join();

  EXPECT_GT(saves_attempted.load(), 0u);
  // With failpoints off, the store must have survived the abuse.
  fail::Registry::instance().disable_all();
  manager.save(snapshot);
  const CheckpointLoad loaded = manager.load();
  EXPECT_NE(loaded.origin, CheckpointOrigin::none);
  EXPECT_DOUBLE_EQ(loaded.snapshot.m, snapshot.m);
  std::filesystem::remove_all(dir);
}

// Serving threads keep running while the checkpointer injects faults; the
// sharded replay below proves the retrain-barrier failure path is clean
// under TSan too. Both need compiled failpoint sites.
TEST_F(ShardedStressFixture, ShardedReplaySurvivesAlwaysFailingTrainer) {
  IntelligentCache system{*trace_};
  const ShardedCache sharded{system};
  RunConfig config;
  config.policy = PolicyKind::lru;
  config.capacity_bytes =
      static_cast<std::uint64_t>(system.total_object_bytes() * 0.02);
  config.mode = AdmissionMode::proposal;
  config.shards = 8;
  config.threads = 8;

  fail::Registry::instance().enable("trainer.train.fail");
  RunResult result;
  ASSERT_NO_THROW(result = sharded.run(config));
  fail::Registry::instance().disable_all();

  // Every retrain barrier threw; serving degraded to admit-all and kept
  // going. The failure count must equal the precomputed trigger count.
  const std::size_t expected_triggers =
      retrain_trigger_indices(*trace_, config.ota).size();
  EXPECT_EQ(result.degradation.retrain_failures, expected_triggers);
  EXPECT_EQ(result.trainings, 0);
  EXPECT_EQ(result.stats.requests, trace_->requests.size());
}

#endif  // OTAC_FAILPOINTS_ENABLED

}  // namespace
}  // namespace otac
