// Crash-recovery harness (the acceptance gate of the robustness PR): every
// failpoint registered inside the checkpoint write/load path is fired in
// turn, plus direct on-disk corruption (truncation at every boundary, bit
// flips, deleted generations). After each injected failure the recovered
// system must hold either the last-good model — verified by serialized-blob
// comparison — or a clean cold start with the admit-all fallback active.
// Never UB, never a half-loaded model.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>

#include "core/checkpoint.h"
#include "core/shard_engine.h"
#include "trace/trace_generator.h"
#include "util/failpoint.h"

namespace otac {
namespace {

/// One trained engine state shared by all tests (training is the slow
/// part): a single-shard proposal replay at 1.5% of the dataset with the
/// hit-rate estimate fixed at 0.5.
struct TrainedWorld {
  Trace trace;
  std::unique_ptr<IntelligentCache> system;
  RunConfig config;
  ClassifierSnapshot trained;  // end-of-run snapshot of the trained engine

  TrainedWorld() {
    WorkloadConfig workload;
    workload.seed = 7;
    workload.num_owners = 500;
    workload.num_photos = 12'000;
    workload.horizon_days = 3.0;
    trace = TraceGenerator{workload}.generate();
    system = std::make_unique<IntelligentCache>(trace);

    double dataset_bytes = 0.0;
    for (const auto& photo : trace.catalog.photos()) {
      dataset_bytes += photo.size_bytes;
    }
    config.policy = PolicyKind::lru;
    config.capacity_bytes =
        static_cast<std::uint64_t>(dataset_bytes * 0.015);
    config.mode = AdmissionMode::proposal;
    config.hit_rate_estimate = 0.5;

    ShardEngine engine{*system, config};
    (void)engine.replay(1);
    trained = engine.snapshot();
  }
};

TrainedWorld& world() {
  static TrainedWorld instance;
  return instance;
}

/// Serve requests [0, n) one row at a time, advancing the engine past
/// each one (a barrier runs after every trigger), and return their
/// outcomes.
std::vector<ShardEngine::Outcome> serve_prefix(ShardEngine& engine,
                                               std::uint64_t n) {
  std::vector<ShardEngine::Outcome> outcomes;
  for (std::uint64_t i = 0; i < n; ++i) {
    ShardEngine::RowOutcome row;
    engine.serve_batch(0, &i, 1, &row);
    outcomes.push_back(row.outcome);
    engine.advance(i + 1);
  }
  return outcomes;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::Registry::instance().disable_all();
    dir_ = testing::TempDir() + "/otac_crash_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    fail::Registry::instance().disable_all();
    std::filesystem::remove_all(dir_);
  }

  /// Restore `snapshot` into a fresh engine and serve a slice of the trace
  /// through it — proves the recovered state is actually servable.
  static void serve_with(const ClassifierSnapshot& snapshot,
                         bool expect_model) {
    ShardEngine engine{*world().system, world().config};
    (void)engine.restore(snapshot);
    EXPECT_EQ(!engine.snapshot().model_blob.empty(), expect_model);
    const std::uint64_t n =
        std::min<std::uint64_t>(2000, world().trace.requests.size());
    for (const ShardEngine::Outcome outcome : serve_prefix(engine, n)) {
      if (!expect_model) {
        // Cold start == admit-all fallback: every miss is stored.
        EXPECT_NE(outcome, ShardEngine::Outcome::rejected);
      }
    }
  }

  std::string dir_;
};

TEST_F(CrashRecoveryTest, WorldActuallyTrained) {
  ASSERT_FALSE(world().trained.model_blob.empty())
      << "harness precondition: the shared world must end up with a model";
  ASSERT_GT(world().trained.trainings, 0);
}

TEST_F(CrashRecoveryTest, EngineSnapshotReproducesPinnedBytes) {
  // Literal pins of the checkpoint this world produced before the engine
  // owned snapshot/restore: FNV-1a 64 of the encoded bytes, their length,
  // and the section counts.
  const std::string bytes = CheckpointManager::encode(world().trained);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    digest ^= c;
    digest *= 0x100000001b3ULL;
  }
  EXPECT_EQ(bytes.size(), 1'679'318u);
  EXPECT_EQ(digest, 0x0c4b2dec3707a83bULL);
  EXPECT_EQ(world().trained.samples.size(), 32'258u);
  EXPECT_EQ(world().trained.history.size(), 6u);
  EXPECT_EQ(world().trained.history_rectified, 11u);
  EXPECT_EQ(world().trained.trainings, 3);
}

#if defined(OTAC_FAILPOINTS_ENABLED) && OTAC_FAILPOINTS_ENABLED

TEST_F(CrashRecoveryTest, EveryWriteFailpointRecoversToLastGoodOrNew) {
  const ClassifierSnapshot& good = world().trained;
  ClassifierSnapshot older = good;
  older.trainings = good.trainings - 1;  // distinguishable older generation

  for (const std::string& name : CheckpointManager::failpoint_names()) {
    if (name == "checkpoint.load.io") continue;  // load-side; covered below
    SCOPED_TRACE(name);
    const std::string dir = dir_ + "/" + name;
    CheckpointManager manager{dir};
    manager.save(older);  // becomes the previous generation
    manager.save(good);   // last-good current

    ClassifierSnapshot newer = good;
    newer.trainings = good.trainings + 1;
    fail::Registry::instance().enable_once(name);
    bool save_ok = true;
    try {
      manager.save(newer);
    } catch (const std::exception&) {
      save_ok = false;
    }
    fail::Registry::instance().disable_all();
    EXPECT_GT(fail::Registry::instance().fires(name), 0u)
        << "failpoint never evaluated — the site was removed or renamed";

    const CheckpointLoad loaded = manager.load();
    ASSERT_NE(loaded.origin, CheckpointOrigin::none)
        << "a failed save must never destroy both on-disk generations";
    // The recovered model must be byte-identical to a known generation:
    // the new one (save survived), or last-good / older (rolled back).
    const bool is_known = loaded.snapshot.model_blob == good.model_blob ||
                          loaded.snapshot.model_blob == older.model_blob;
    EXPECT_TRUE(is_known) << "recovered blob matches no known generation";
    EXPECT_TRUE(save_ok || loaded.snapshot.trainings != newer.trainings ||
                loaded.snapshot.model_blob == good.model_blob)
        << "failed save must not surface the interrupted snapshot unless "
           "it landed completely";

    // And the recovered snapshot must actually serve.
    serve_with(loaded.snapshot, /*expect_model=*/true);

    // The failure must not wedge the manager: a clean retry lands.
    manager.save(newer);
    const CheckpointLoad after_retry = manager.load();
    EXPECT_EQ(after_retry.origin, CheckpointOrigin::current);
    EXPECT_EQ(after_retry.snapshot.trainings, newer.trainings);
  }
}

TEST_F(CrashRecoveryTest, BitflipSaveIsCaughtAtLoadTime) {
  // checkpoint.write.bitflip "succeeds" silently — the CRC must reject the
  // current generation and fall back to the previous one.
  const ClassifierSnapshot& good = world().trained;
  CheckpointManager manager{dir_};
  manager.save(good);

  ClassifierSnapshot newer = good;
  newer.trainings = good.trainings + 1;
  fail::Registry::instance().enable_once("checkpoint.write.bitflip");
  manager.save(newer);  // no exception: the corruption is silent
  fail::Registry::instance().disable_all();

  const CheckpointLoad loaded = manager.load();
  EXPECT_EQ(loaded.origin, CheckpointOrigin::previous);
  EXPECT_EQ(loaded.rejected_files, 1);
  EXPECT_EQ(loaded.snapshot.model_blob, good.model_blob);
  serve_with(loaded.snapshot, /*expect_model=*/true);
}

TEST_F(CrashRecoveryTest, LoadIoFailureFallsBack) {
  const ClassifierSnapshot& good = world().trained;
  CheckpointManager manager{dir_};
  ClassifierSnapshot older = good;
  older.trainings = good.trainings - 1;
  manager.save(older);
  manager.save(good);

  fail::Registry::instance().enable_once("checkpoint.load.io");
  const CheckpointLoad loaded = manager.load();
  fail::Registry::instance().disable_all();
  EXPECT_EQ(loaded.origin, CheckpointOrigin::previous);
  EXPECT_EQ(loaded.snapshot.trainings, older.trainings);
  serve_with(loaded.snapshot, /*expect_model=*/true);
}

TEST_F(CrashRecoveryTest, RetrainFailureKeepsServingLastGoodTree) {
  // trainer.train.fail on every retrain: the engine must keep the restored
  // tree and count the failures — serving never stops.
  ShardEngine engine{*world().system, world().config};
  // Reset the retrain schedule: a snapshot taken at the end of the trace
  // would otherwise suppress retraining for the whole replay.
  ClassifierSnapshot snapshot = world().trained;
  snapshot.last_trained_day = std::numeric_limits<std::int64_t>::min();
  snapshot.last_trained_time = std::numeric_limits<std::int64_t>::min();
  ASSERT_TRUE(engine.restore(snapshot));
  const std::string before = engine.snapshot().model_blob;
  ASSERT_FALSE(before.empty());
  ASSERT_LT(engine.epoch_end(), world().trace.requests.size())
      << "the reset schedule must leave a retrain trigger pending";

  fail::Registry::instance().enable("trainer.train.fail");
  const RunResult& result = engine.replay(1);
  fail::Registry::instance().disable_all();

  EXPECT_GT(result.degradation.retrain_failures, 0u);
  const std::string after = engine.snapshot().model_blob;
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(after, before)
      << "failed retrains must not replace the last-good tree";
}

#endif  // OTAC_FAILPOINTS_ENABLED

TEST_F(CrashRecoveryTest, TruncatedCurrentAtEveryBoundaryFallsBack) {
  const ClassifierSnapshot& good = world().trained;
  CheckpointManager manager{dir_};
  ClassifierSnapshot older = good;
  older.trainings = good.trainings - 1;
  manager.save(older);
  manager.save(good);

  std::string bytes;
  {
    std::ifstream in(manager.current_path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>{in}, {});
  }
  // Simulated torn writes of the *published* file (e.g. filesystem without
  // atomic rename semantics): every prefix must fall back to previous.
  for (std::size_t cut = 0; cut < bytes.size();
       cut += std::max<std::size_t>(1, bytes.size() / 64)) {
    std::ofstream out(manager.current_path(),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    const CheckpointLoad loaded = manager.load();
    ASSERT_EQ(loaded.origin, CheckpointOrigin::previous) << "cut " << cut;
    ASSERT_EQ(loaded.snapshot.model_blob, older.model_blob);
  }
}

TEST_F(CrashRecoveryTest, BitFlippedCurrentFallsBack) {
  const ClassifierSnapshot& good = world().trained;
  CheckpointManager manager{dir_};
  ClassifierSnapshot older = good;
  older.trainings = good.trainings - 1;
  manager.save(older);
  manager.save(good);

  std::string bytes;
  {
    std::ifstream in(manager.current_path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>{in}, {});
  }
  for (std::size_t pos = 0; pos < bytes.size();
       pos += std::max<std::size_t>(1, bytes.size() / 97)) {
    std::string corrupt = bytes;
    corrupt[pos] ^= 0x08;
    {
      std::ofstream out(manager.current_path(),
                        std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    const CheckpointLoad loaded = manager.load();
    ASSERT_EQ(loaded.origin, CheckpointOrigin::previous) << "byte " << pos;
    ASSERT_EQ(loaded.snapshot.model_blob, older.model_blob);
  }
}

TEST_F(CrashRecoveryTest, BothGenerationsGoneMeansCleanColdStart) {
  const ClassifierSnapshot& good = world().trained;
  CheckpointManager manager{dir_};
  manager.save(good);
  manager.save(good);
  for (const std::string& path :
       {manager.current_path(), manager.previous_path()}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "\xde\xad\xbe\xef corrupted beyond recognition";
  }
  const CheckpointLoad loaded = manager.load();
  EXPECT_EQ(loaded.origin, CheckpointOrigin::none);
  EXPECT_EQ(loaded.rejected_files, 2);
  // Cold start: fresh system, no model, admit-all fallback active.
  serve_with(loaded.snapshot, /*expect_model=*/false);
}

TEST_F(CrashRecoveryTest, CorruptModelBlobDegradesToAdmitAll) {
  // A snapshot whose model section is valid CRC-wise but holds a logically
  // corrupt tree (e.g. written by a buggy trainer) must degrade to
  // admit-all, not crash or serve garbage.
  ClassifierSnapshot snapshot = world().trained;
  snapshot.model_blob = "otac-dtree 1 2 1 1 9\n0 nan 1 1 0.5 0\n";

  ShardEngine engine{*world().system, world().config};
  EXPECT_FALSE(engine.restore(snapshot));
  const ClassifierSnapshot state = engine.snapshot();
  EXPECT_TRUE(state.model_blob.empty());
  EXPECT_EQ(engine.totals().degradation.rejected_models, 1u);
  // History/trainer sections still restored — only the model degraded.
  EXPECT_EQ(state.history_rectified, snapshot.history_rectified);
  EXPECT_EQ(state.samples.size(), snapshot.samples.size());

  EXPECT_EQ(serve_prefix(engine, 1).front(), ShardEngine::Outcome::stored);
}

TEST_F(CrashRecoveryTest, ArityMismatchedModelIsRejectedOnRestore) {
  // A tree trained for a different feature subset must not be served.
  ClassifierSnapshot snapshot = world().trained;
  snapshot.model_blob = "otac-dtree 1 1 0 0 3\n-1 0 -1 -1 0.5 0\n0 0 0 \n";
  ShardEngine engine{*world().system, world().config};
  EXPECT_FALSE(engine.restore(snapshot));
  EXPECT_TRUE(engine.snapshot().model_blob.empty());
  EXPECT_EQ(engine.totals().degradation.rejected_models, 1u);
}

TEST_F(CrashRecoveryTest, MisconfiguredSubsetDegradesPerRequest) {
  // A deployed feature subset pointing outside the extractor's nine
  // features must route every prediction to the fallback admit, counted
  // as predict_failures — not read out of bounds.
  RunConfig config = world().config;
  config.ota.feature_subset = {0, 99};
  ShardEngine engine{*world().system, config};

  ClassifierSnapshot snapshot;
  snapshot.model_blob = "otac-dtree 1 1 0 0 2\n-1 0 -1 -1 0.9 0\n0 0 \n";
  ASSERT_TRUE(engine.restore(snapshot));
  ASSERT_FALSE(engine.snapshot().model_blob.empty());

  EXPECT_EQ(serve_prefix(engine, 1).front(), ShardEngine::Outcome::stored);
  EXPECT_EQ(engine.totals().degradation.predict_failures, 1u);
}

TEST_F(CrashRecoveryTest, SnapshotRestoreRoundTripPreservesServingState) {
  // restore(snapshot()) must reproduce byte-identical serving state.
  ShardEngine restored{*world().system, world().config};
  ASSERT_TRUE(restored.restore(world().trained));
  const ClassifierSnapshot again = restored.snapshot();
  EXPECT_EQ(again.model_blob, world().trained.model_blob);
  EXPECT_EQ(again.trainings, world().trained.trainings);
  EXPECT_EQ(again.history_rectified, world().trained.history_rectified);
  EXPECT_EQ(again.samples.size(), world().trained.samples.size());
  EXPECT_EQ(again.history.size(), world().trained.history.size());
  EXPECT_EQ(CheckpointManager::encode(again),
            CheckpointManager::encode(world().trained));
}

TEST_F(CrashRecoveryTest, SnapshotAndRestoreRejectShardedEngines) {
  RunConfig config = world().config;
  config.shards = 2;
  ShardEngine engine{*world().system, config};
  EXPECT_THROW((void)engine.snapshot(), std::invalid_argument);
  EXPECT_THROW((void)engine.restore(world().trained), std::invalid_argument);
}

}  // namespace
}  // namespace otac
