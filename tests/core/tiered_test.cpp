#include "core/tiered.h"

#include <gtest/gtest.h>

#include <bit>

#include "core/sharded_cache.h"
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

CacheStats stats_of(std::uint64_t requests, std::uint64_t hits,
                    std::uint64_t request_bytes, std::uint64_t hit_bytes,
                    std::uint64_t insertions, std::uint64_t inserted_bytes,
                    std::uint64_t evictions, std::uint64_t evicted_bytes,
                    std::uint64_t rejected, std::uint64_t rejected_bytes,
                    std::uint64_t refused, std::uint64_t eviction_hash) {
  CacheStats stats;
  stats.requests = requests;
  stats.hits = hits;
  stats.request_bytes = std::bit_cast<double>(request_bytes);
  stats.hit_bytes = std::bit_cast<double>(hit_bytes);
  stats.insertions = insertions;
  stats.inserted_bytes = std::bit_cast<double>(inserted_bytes);
  stats.evictions = evictions;
  stats.evicted_bytes = std::bit_cast<double>(evicted_bytes);
  stats.rejected = rejected;
  stats.rejected_bytes = std::bit_cast<double>(rejected_bytes);
  stats.refused = refused;
  stats.eviction_hash = eviction_hash;
  return stats;
}

TEST(Tiered, ProposalTiersWithRetrainsArePinned) {
  // Both tiers in Proposal mode on a trace with daily retrains: each
  // engine runs its own barriers while the DC engine serves only the OC's
  // misses. The literals were recorded before the engines took over the
  // trigger walk from run_tiered, so they pin its epoch cuts too.
  WorkloadConfig config;
  config.num_owners = 500;
  config.num_photos = 12'000;
  const Trace trace = TraceGenerator{config}.generate();
  ASSERT_GE(retrain_trigger_indices(trace, OtaConfig{}).size(), 2u);
  const IntelligentCache system{trace};
  const double dataset = system.total_object_bytes();
  const TieredStats stats = run_tiered(
      system,
      tier(static_cast<std::uint64_t>(dataset * 0.005),
           AdmissionMode::proposal),
      tier(static_cast<std::uint64_t>(dataset * 0.02),
           AdmissionMode::proposal));
  EXPECT_EQ(stats.oc,
            stats_of(47459u, 25102u, 0x41de29b243000000u, 0x41d12abb64400000u,
                     2522u, 0x41985645a0000000u, 2475u, 0x4197c6a25c000000u,
                     19835u, 0x41c6f32509800000u, 0u, 0x0d1ba670cfa96da2u));
  EXPECT_EQ(stats.dc,
            stats_of(22357u, 3252u, 0x41c9fdedbd800000u, 0x419f514eac000000u,
                     2231u, 0x4195ad5fc4000000u, 2001u, 0x41936f5358000000u,
                     16874u, 0x41c35e17ef800000u, 0u, 0xa2a1dc7e8ecabfd3u));
  EXPECT_EQ(stats.backend_reads, 22357u - 3252u);
}

TEST(TieredStatsStruct, EmptyIsZero) {
  const TieredStats stats;
  EXPECT_DOUBLE_EQ(stats.combined_hit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_latency_us(LatencyModel{}, 1000.0), 0.0);
}

}  // namespace
}  // namespace otac
