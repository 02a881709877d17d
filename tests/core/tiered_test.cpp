#include "core/tiered.h"

#include <gtest/gtest.h>

#include "trace/trace_generator.h"

namespace otac {
namespace {

Trace make_manual_trace(const std::vector<PhotoId>& sequence,
                        std::uint32_t size) {
  Trace trace;
  PhotoId max_id = 0;
  for (const PhotoId id : sequence) max_id = std::max(max_id, id);
  std::vector<PhotoMeta> photos(max_id + 1);
  for (auto& p : photos) p.size_bytes = size;
  trace.catalog = PhotoCatalog{std::move(photos), {OwnerMeta{}}};
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    Request r;
    r.time = SimTime{static_cast<std::int64_t>(i)};
    r.photo = sequence[i];
    trace.requests.push_back(r);
  }
  trace.horizon = SimTime{static_cast<std::int64_t>(sequence.size())};
  return trace;
}

/// One LRU tier of `capacity` bytes; Original admits every miss, Bypass
/// none.
RunConfig tier(std::uint64_t capacity,
               AdmissionMode mode = AdmissionMode::original) {
  RunConfig config;
  config.policy = PolicyKind::lru;
  config.capacity_bytes = capacity;
  config.mode = mode;
  return config;
}

TEST(Tiered, OcHitShieldsDc) {
  // A A A: first access misses both; the next two hit OC, so DC sees one
  // request only.
  const Trace trace = make_manual_trace({1, 1, 1}, 10);
  const IntelligentCache system{trace};
  const TieredStats stats = run_tiered(system, tier(100), tier(100));
  EXPECT_EQ(stats.oc.requests, 3u);
  EXPECT_EQ(stats.oc.hits, 2u);
  EXPECT_EQ(stats.dc.requests, 1u);
  EXPECT_EQ(stats.dc.hits, 0u);
  EXPECT_EQ(stats.backend_reads, 1u);
  EXPECT_DOUBLE_EQ(stats.combined_hit_rate(), 2.0 / 3.0);
}

TEST(Tiered, DcCatchesOcEvictions) {
  // OC holds 1 object, DC holds many: cycling two objects misses OC every
  // time but hits DC after the first round.
  const Trace trace = make_manual_trace({1, 2, 1, 2, 1, 2}, 10);
  const IntelligentCache system{trace};
  const TieredStats stats = run_tiered(system, tier(10), tier(100));
  EXPECT_EQ(stats.oc.hits, 0u);
  EXPECT_EQ(stats.dc.requests, 6u);
  EXPECT_EQ(stats.dc.hits, 4u);
  EXPECT_EQ(stats.backend_reads, 2u);
  EXPECT_DOUBLE_EQ(stats.combined_hit_rate(), 4.0 / 6.0);
}

TEST(Tiered, AdmissionPerTier) {
  // OC rejects everything: all requests reach DC; DC admits normally.
  const Trace trace = make_manual_trace({1, 1, 2, 2}, 10);
  const IntelligentCache system{trace};
  const TieredStats stats =
      run_tiered(system, tier(100, AdmissionMode::bypass), tier(100));
  EXPECT_EQ(stats.oc.hits, 0u);
  EXPECT_EQ(stats.oc.insertions, 0u);
  EXPECT_EQ(stats.oc.rejected, 4u);
  EXPECT_EQ(stats.dc.requests, 4u);
  EXPECT_EQ(stats.dc.hits, 2u);
  EXPECT_EQ(stats.dc.insertions, 2u);
}

TEST(Tiered, LatencyOrdering) {
  const Trace trace = make_manual_trace({1, 1, 2, 3}, 10);
  const IntelligentCache system{trace};
  const TieredStats stats = run_tiered(system, tier(100), tier(100));
  const LatencyModel model{};
  const double with_fast_wan = stats.mean_latency_us(model, 1'000.0);
  const double with_slow_wan = stats.mean_latency_us(model, 20'000.0);
  EXPECT_GT(with_slow_wan, with_fast_wan);
  EXPECT_GT(with_fast_wan, model.hit_cost_us());
}

TEST(Tiered, CombinedBeatsSingleTierOfSameOcSize) {
  WorkloadConfig config;
  config.num_owners = 500;
  config.num_photos = 10'000;
  const Trace trace = TraceGenerator{config}.generate();
  const IntelligentCache system{trace};
  double dataset = 0.0;
  for (const auto& p : trace.catalog.photos()) dataset += p.size_bytes;

  const auto oc_capacity = static_cast<std::uint64_t>(dataset * 0.005);
  const TieredStats tiered = run_tiered(
      system, tier(oc_capacity),
      tier(static_cast<std::uint64_t>(dataset * 0.05)));
  // Single-tier equivalent of the OC alone: a one-byte DC that caches
  // nothing.
  const TieredStats oc_only = run_tiered(
      system, tier(oc_capacity), tier(1, AdmissionMode::bypass));

  EXPECT_GT(tiered.combined_hit_rate(), oc_only.combined_hit_rate());
}

TEST(TieredStatsStruct, EmptyIsZero) {
  const TieredStats stats;
  EXPECT_DOUBLE_EQ(stats.combined_hit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_latency_us(LatencyModel{}, 1000.0), 0.0);
}

}  // namespace
}  // namespace otac
