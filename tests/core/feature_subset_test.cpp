#include <gtest/gtest.h>

#include <numeric>

#include "core/intelligent_cache.h"
#include "trace/trace_generator.h"

namespace otac {
namespace {

Trace small_trace() {
  WorkloadConfig config;
  config.num_owners = 800;
  config.num_photos = 20'000;
  return TraceGenerator{config}.generate();
}

RunResult run_with_subset(const IntelligentCache& system,
                          std::vector<std::size_t> subset) {
  RunConfig config;
  config.policy = PolicyKind::lru;
  config.capacity_bytes = 30'000'000;
  config.mode = AdmissionMode::proposal;
  config.ota.feature_subset = std::move(subset);
  return system.run(config);
}

TEST(FeatureSubset, SubsetModelTrainsAndFilters) {
  const Trace trace = small_trace();
  const IntelligentCache system{trace};
  const RunResult result = run_with_subset(
      system, {FeatureExtractor::kRecency, FeatureExtractor::kAvgOwnerViews});
  EXPECT_GT(result.trainings, 0);  // a subset model was published
  EXPECT_GT(result.stats.rejected, result.stats.requests / 20);
  // Per-day accuracy still beats chance with just two features.
  for (const auto& day : result.daily) {
    if (day.day == 0) continue;
    EXPECT_GT(day.raw.accuracy(), 0.55) << "day " << day.day;
  }
}

TEST(FeatureSubset, EmptySubsetEqualsAllFeatures) {
  const Trace trace = small_trace();
  const IntelligentCache system{trace};
  const CacheStats all = run_with_subset(system, {}).stats;
  // Identity check: explicit full subset behaves exactly like empty.
  std::vector<std::size_t> full(FeatureExtractor::kFeatureCount);
  std::iota(full.begin(), full.end(), 0);
  const CacheStats explicit_full = run_with_subset(system, full).stats;
  EXPECT_EQ(all.hits, explicit_full.hits);
  EXPECT_EQ(all.insertions, explicit_full.insertions);
  EXPECT_EQ(all.rejected, explicit_full.rejected);
}

TEST(FeatureSubset, WeakSubsetFiltersLess) {
  const Trace trace = small_trace();
  const IntelligentCache system{trace};
  const CacheStats strong =
      run_with_subset(system, {FeatureExtractor::kRecency,
                               FeatureExtractor::kAvgOwnerViews})
          .stats;
  const CacheStats weak =
      run_with_subset(system, {FeatureExtractor::kTerminal,
                               FeatureExtractor::kAccessHour})
          .stats;
  // The weak slice must not out-hit the strong one.
  EXPECT_LE(weak.file_hit_rate(), strong.file_hit_rate() + 0.01);
}

}  // namespace
}  // namespace otac
