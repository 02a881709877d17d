// Scenario registry pins (scenario/registry.h):
//
//  - the registered names are exactly scenario_names.h's kKnownScenarios,
//    and find() rejects anything else listing the known names;
//  - every scenario replayed twice with the same seed is bit-identical —
//    RunResult's defaulted operator== covers stats (including the
//    eviction-sequence fingerprint), criteria, daily matrices, trainings,
//    and degradation counters, so one EXPECT per (scenario, mode);
//  - shards=1 vs shards=4 are sum-equivalent per scenario: same request
//    count, hits + insertions + rejected + refused == requests exactly on
//    both, and identical global admission criteria.
//
// Two Proposal runs depend on thread timing and skip the bit-identity and
// trainings-equality checks (timing_dependent() below says why).
#include "scenario/registry.h"

#include <gtest/gtest.h>

#include <string>

#include "scenario/scenario_names.h"

namespace otac::scenario {
namespace {

constexpr std::uint64_t kSeed = 42;
constexpr double kScale = 0.1;  // small replica of the CI-scale workloads

/// Proposal runs whose result depends on thread timing, not only on the
/// trace: failpoint_storm evaluates per-request failpoints on 4 workers,
/// so which requests the every_nth / window triggers hit depends on thread
/// interleaving. Original mode does not evaluate them. (retrain_hang's
/// hang holds the watchdog worker until the replay ends, so every barrier
/// after it is busy however fast the replay runs; the two clean fits
/// before it must each land inside the 0.2 s timeout, which they do with
/// a wide margin but which a slow enough host could miss.)
[[nodiscard]] bool timing_dependent(const ScenarioSpec& spec,
                                    AdmissionMode mode) {
  return mode == AdmissionMode::proposal && spec.name == "failpoint_storm";
}

TEST(ScenarioRegistry, NamesMatchPinnedRegistry) {
  const std::vector<ScenarioSpec>& specs = all();
  ASSERT_EQ(specs.size(), std::size(kKnownScenarios));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].name, kKnownScenarios[i]);
    EXPECT_TRUE(is_known_scenario(specs[i].name));
    EXPECT_FALSE(specs[i].description.empty());
    ASSERT_NE(specs[i].make_trace, nullptr);
    EXPECT_GT(specs[i].shards, 0u);
    EXPECT_GT(specs[i].capacity_fraction, 0.0);
  }
}

TEST(ScenarioRegistry, FindRejectsUnknownNamesListingKnownOnes) {
  EXPECT_EQ(find("scan_flood").name, "scan_flood");
  try {
    (void)find("not_a_scenario");
    FAIL() << "unknown scenario accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("not_a_scenario"), std::string::npos);
    // The message must teach the caller the valid vocabulary.
    for (const std::string_view name : kKnownScenarios) {
      EXPECT_NE(message.find(name), std::string::npos) << name;
    }
  }
}

TEST(ScenarioRegistry, TracesAreDeterministicSortedAndNonTrivial) {
  for (const ScenarioSpec& spec : all()) {
    const Trace a = spec.make_trace(kSeed, kScale);
    const Trace b = spec.make_trace(kSeed, kScale);
    ASSERT_GT(a.requests.size(), 1'000u) << spec.name;
    ASSERT_EQ(a.requests.size(), b.requests.size()) << spec.name;
    ASSERT_EQ(a.catalog.photo_count(), b.catalog.photo_count()) << spec.name;
    std::int64_t previous = 0;
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
      ASSERT_EQ(a.requests[i].time.seconds, b.requests[i].time.seconds)
          << spec.name;
      ASSERT_EQ(a.requests[i].photo, b.requests[i].photo) << spec.name;
      ASSERT_LT(a.requests[i].photo, a.catalog.photo_count()) << spec.name;
      ASSERT_GE(a.requests[i].time.seconds, previous) << spec.name;
      previous = a.requests[i].time.seconds;
    }
    // Adapter traces come through the CSV import path without a latent
    // score; synthetic ones carry one entry per photo. Either way it must
    // stay aligned with the catalog.
    ASSERT_TRUE(a.latent_score.empty() ||
                a.latent_score.size() == a.catalog.photo_count())
        << spec.name;
  }
}

TEST(ScenarioRegistry, EveryScenarioReplaysBitIdentically) {
  for (const ScenarioSpec& spec : all()) {
    const ScenarioRunner runner{spec, kSeed, kScale};
    for (const AdmissionMode mode :
         {AdmissionMode::original, AdmissionMode::proposal}) {
      const RunResult first = runner.run(mode).result;
      const RunResult second = runner.run(mode).result;
      EXPECT_EQ(first.stats.requests, runner.trace().requests.size());
      if (mode == AdmissionMode::proposal) {
        EXPECT_GT(first.trainings, 0) << spec.name;
      }
      if (timing_dependent(spec, mode)) continue;
      EXPECT_TRUE(first == second)
          << spec.name << '/' << admission_mode_name(mode)
          << ": hits " << first.stats.hits << " vs " << second.stats.hits
          << ", eviction_hash " << first.stats.eviction_hash << " vs "
          << second.stats.eviction_hash << ", shed "
          << first.degradation.shed_requests << " vs "
          << second.degradation.shed_requests;
    }
  }
}

TEST(ScenarioRegistry, ShardCountsAreSumEquivalent) {
  for (const ScenarioSpec& spec : all()) {
    const ScenarioRunner runner{spec, kSeed, kScale};
    for (const AdmissionMode mode :
         {AdmissionMode::original, AdmissionMode::proposal}) {
      RunConfig config = runner.config(mode);
      config.shards = 1;
      const RunResult one = runner.run_with(config).result;
      config.shards = 4;
      const RunResult four = runner.run_with(config).result;
      const std::string label =
          spec.name + "/" + std::string{admission_mode_name(mode)};
      // Shard partitioning must conserve the request stream...
      EXPECT_EQ(one.stats.requests, four.stats.requests) << label;
      EXPECT_EQ(four.stats.requests, runner.trace().requests.size()) << label;
      // ...and the per-shard accounting must close exactly on both. Shed
      // requests count as rejections, and an admitted miss whose object
      // exceeds the (per-shard) capacity counts as refused.
      for (const auto& [shards, result] :
           {std::pair<int, const RunResult*>{1, &one}, {4, &four}}) {
        const CacheStats& stats = result->stats;
        EXPECT_EQ(stats.hits + stats.insertions + stats.rejected +
                      stats.refused,
                  stats.requests)
            << label << " shards=" << shards << " hits=" << stats.hits
            << " insertions=" << stats.insertions
            << " rejected=" << stats.rejected << " refused=" << stats.refused;
      }
      // Admission criteria are global — independent of sharding.
      EXPECT_TRUE(one.criteria == four.criteria) << label;
      EXPECT_EQ(one.cost_v, four.cost_v) << label;
      if (!timing_dependent(spec, mode)) {
        EXPECT_EQ(one.trainings, four.trainings) << label;
      }
    }
  }
}

TEST(ScenarioMetricsSummary, DerivedRatesMatchRawCounters) {
  const ScenarioRunner runner{find("churn_purge"), kSeed, kScale};
  const RunResult result = runner.run(AdmissionMode::proposal).result;
  const ScenarioMetrics metrics = summarize(result);
  EXPECT_EQ(metrics.requests, result.stats.requests);
  EXPECT_EQ(metrics.hits, result.stats.hits);
  EXPECT_EQ(metrics.insertions, result.stats.insertions);
  EXPECT_EQ(metrics.shed_requests, result.degradation.shed_requests);
  EXPECT_EQ(metrics.degraded_admits, result.degradation.degraded_admits);
  EXPECT_EQ(metrics.trainings, result.trainings);
  EXPECT_EQ(metrics.file_hit_rate,
            static_cast<double>(result.stats.hits) /
                static_cast<double>(result.stats.requests));
  EXPECT_GT(metrics.p99_latency_us, 0.0);
}

TEST(ScenarioRegistry, FlashCrowdDeclaresItsFailpoint) {
  const ScenarioSpec& spec = find("flash_crowd");
  ASSERT_EQ(spec.faults.size(), 1u);
  EXPECT_EQ(spec.faults[0].failpoint, "chaos.flash_crowd");
  EXPECT_TRUE(spec.resilience.overload.enabled);
  // Per-request failpoints need a pinned evaluation order.
  EXPECT_EQ(spec.threads, 1u);
}

}  // namespace
}  // namespace otac::scenario
