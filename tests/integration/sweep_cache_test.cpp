// Disk-cache behaviour of the experiment layer: a second load must hit the
// cache (identical results, no recomputation) and corrupt cache files must
// be regenerated rather than trusted.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "experiments/capacity_sweep.h"
#include "experiments/workloads.h"

namespace otac {
namespace {

class SweepCacheFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("otac_sweep_cache_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    setenv("OTAC_CACHE_DIR", dir_.c_str(), 1);
  }
  void TearDown() override {
    unsetenv("OTAC_CACHE_DIR");
    std::filesystem::remove_all(dir_);
  }

  static SweepConfig tiny_sweep() {
    SweepConfig config;
    config.paper_gb = {8.0};
    config.policies = {PolicyKind::lru};
    config.include_belady = false;
    return config;
  }

  std::filesystem::path dir_;
};

TEST_F(SweepCacheFixture, SecondLoadHitsCacheAndMatches) {
  const Trace trace = load_bench_trace(0.05, 3);
  const BenchWorkloadInfo info = describe(trace, 0.05, 3);
  const SweepConfig config = tiny_sweep();

  const auto t0 = std::chrono::steady_clock::now();
  const SweepResult first = load_or_run_sweep(trace, config, info);
  const auto compute_time = std::chrono::steady_clock::now() - t0;

  // One CSV must now exist in the cache dir.
  std::size_t csv_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    csv_files += entry.path().extension() == ".csv";
  }
  EXPECT_EQ(csv_files, 1u);

  const auto t1 = std::chrono::steady_clock::now();
  const SweepResult second = load_or_run_sweep(trace, config, info);
  const auto cached_time = std::chrono::steady_clock::now() - t1;

  ASSERT_EQ(second.cells.size(), first.cells.size());
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    EXPECT_NEAR(second.cells[i].file_hit_rate, first.cells[i].file_hit_rate,
                1e-9);
    EXPECT_EQ(second.cells[i].insertions, first.cells[i].insertions);
  }
  EXPECT_LT(cached_time, compute_time / 2);
}

TEST_F(SweepCacheFixture, DifferentConfigGetsDifferentCacheEntry) {
  const Trace trace = load_bench_trace(0.05, 3);
  const BenchWorkloadInfo info = describe(trace, 0.05, 3);
  (void)load_or_run_sweep(trace, tiny_sweep(), info);
  SweepConfig other = tiny_sweep();
  other.paper_gb = {4.0};
  (void)load_or_run_sweep(trace, other, info);
  std::size_t csv_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    csv_files += entry.path().extension() == ".csv";
  }
  EXPECT_EQ(csv_files, 2u);
}

TEST_F(SweepCacheFixture, CorruptCacheIsRegenerated) {
  const Trace trace = load_bench_trace(0.05, 3);
  const BenchWorkloadInfo info = describe(trace, 0.05, 3);
  const SweepConfig config = tiny_sweep();
  const SweepResult first = load_or_run_sweep(trace, config, info);

  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".csv") {
      std::ofstream file(entry.path(), std::ios::trunc);
      file << "garbage";
    }
  }
  const SweepResult regenerated = load_or_run_sweep(trace, config, info);
  ASSERT_EQ(regenerated.cells.size(), first.cells.size());
  EXPECT_NEAR(regenerated.cells[0].file_hit_rate,
              first.cells[0].file_hit_rate, 1e-9);
}

TEST_F(SweepCacheFixture, TraceCacheRoundTrips) {
  const Trace first = load_bench_trace(0.05, 9);
  // Second call must load the cached binary and agree exactly.
  const Trace second = load_bench_trace(0.05, 9);
  ASSERT_EQ(second.requests.size(), first.requests.size());
  for (std::size_t i = 0; i < first.requests.size(); i += 997) {
    ASSERT_EQ(second.requests[i].photo, first.requests[i].photo);
    ASSERT_EQ(second.requests[i].time.seconds, first.requests[i].time.seconds);
  }
}

TEST_F(SweepCacheFixture, TraceCacheIsKeyedOnEveryFieldAndTheRevision) {
  const WorkloadConfig base = bench_workload_config(0.05, 9);
  const auto nudge = [](double& v) {
    v = std::nextafter(v, std::numeric_limits<double>::infinity());
  };
  std::vector<std::function<void(WorkloadConfig&)>> edits = {
      [](WorkloadConfig& c) { c.seed += 1; },
      [](WorkloadConfig& c) { c.num_owners += 1; },
      [](WorkloadConfig& c) { c.num_photos += 1; },
      [&](WorkloadConfig& c) { nudge(c.horizon_days); },
      [&](WorkloadConfig& c) { nudge(c.backlog_days); },
      [&](WorkloadConfig& c) { nudge(c.one_time_object_fraction); },
      [&](WorkloadConfig& c) { nudge(c.one_time_access_share); },
      [](WorkloadConfig& c) { c.max_accesses_per_photo += 1; },
      [&](WorkloadConfig& c) { nudge(c.owner_activity_sigma); },
      [&](WorkloadConfig& c) { nudge(c.friends_activity_coupling); },
      [&](WorkloadConfig& c) { nudge(c.mean_active_friends); },
      [&](WorkloadConfig& c) { nudge(c.owner_quality_sigma); },
      [&](WorkloadConfig& c) { nudge(c.weight_owner_quality); },
      [&](WorkloadConfig& c) { nudge(c.weight_type); },
      [&](WorkloadConfig& c) { nudge(c.weight_upload_hour); },
      [&](WorkloadConfig& c) { nudge(c.weight_noise); },
      [&](WorkloadConfig& c) { nudge(c.weight_window_mass); },
      [&](WorkloadConfig& c) { nudge(c.sigmoid_tau); },
      [&](WorkloadConfig& c) { nudge(c.count_tail_alpha); },
      [&](WorkloadConfig& c) { nudge(c.count_score_beta); },
      [](WorkloadConfig& c) { c.type_popularity_rotation_days += 1; },
      [&](WorkloadConfig& c) { nudge(c.decay_shape); },
      [&](WorkloadConfig& c) { nudge(c.decay_scale_days); },
      [&](WorkloadConfig& c) { nudge(c.mobile_share); },
      [&](WorkloadConfig& c) { nudge(c.diurnal.trough_hour); },
      [&](WorkloadConfig& c) { nudge(c.diurnal.peak_hour); },
      [&](WorkloadConfig& c) { nudge(c.diurnal.peak_to_trough); },
      [&](WorkloadConfig& c) { nudge(c.png_size_factor); },
      [&](WorkloadConfig& c) { nudge(c.size_sigma); },
  };
  for (std::size_t i = 0; i < base.type_mix.size(); ++i) {
    edits.push_back([&, i](WorkloadConfig& c) { nudge(c.type_mix[i]); });
    edits.push_back(
        [&, i](WorkloadConfig& c) { nudge(c.type_popularity[i]); });
  }
  for (std::size_t i = 0; i < base.resolution_size_bytes.size(); ++i) {
    edits.push_back(
        [&, i](WorkloadConfig& c) { nudge(c.resolution_size_bytes[i]); });
  }

  std::set<std::string> names = {bench_trace_cache_name(base)};
  for (std::size_t e = 0; e < edits.size(); ++e) {
    WorkloadConfig edited = base;
    edits[e](edited);
    EXPECT_TRUE(names.insert(bench_trace_cache_name(edited)).second)
        << "edit " << e << " kept a cache entry";
  }
  EXPECT_TRUE(names
                  .insert(bench_trace_cache_name(
                      base, kTraceGeneratorRevision + 1))
                  .second)
      << "a new generator revision kept the cache entry";

  // load_bench_trace stores its trace under exactly this name.
  (void)load_bench_trace(0.05, 9);
  EXPECT_TRUE(std::filesystem::exists(dir_ / bench_trace_cache_name(base)));
}

}  // namespace
}  // namespace otac
