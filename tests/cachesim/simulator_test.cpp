#include "cachesim/simulator.h"

#include <gtest/gtest.h>

#include "cachesim/lru.h"
#include "trace/trace_generator.h"

namespace otac {
namespace {

Trace make_manual_trace(const std::vector<PhotoId>& sequence,
                        std::uint32_t size_bytes) {
  Trace trace;
  PhotoId max_id = 0;
  for (const PhotoId id : sequence) max_id = std::max(max_id, id);
  std::vector<PhotoMeta> photos(max_id + 1);
  for (auto& p : photos) p.size_bytes = size_bytes;
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

TEST(Simulator, CountsHitsAndWrites) {
  // A B A A B -> misses: A,B; hits: A,A,B.
  const Trace trace = make_manual_trace({1, 2, 1, 1, 2}, 10);
  LruCache cache{100};
  AlwaysAdmit admission;
  const CacheStats stats = Simulator{trace}.run(cache, admission);
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_DOUBLE_EQ(stats.request_bytes, 50.0);
  EXPECT_DOUBLE_EQ(stats.hit_bytes, 30.0);
  EXPECT_DOUBLE_EQ(stats.inserted_bytes, 20.0);
  EXPECT_DOUBLE_EQ(stats.file_hit_rate(), 0.6);
  EXPECT_DOUBLE_EQ(stats.byte_hit_rate(), 0.6);
  EXPECT_DOUBLE_EQ(stats.file_write_rate(), 0.4);
  EXPECT_DOUBLE_EQ(stats.byte_write_rate(), 0.4);
}

TEST(Simulator, NeverAdmitMeansZeroHitsAndWrites) {
  const Trace trace = make_manual_trace({1, 1, 1, 2, 2}, 10);
  LruCache cache{100};
  NeverAdmit admission;
  const CacheStats stats = Simulator{trace}.run(cache, admission);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.rejected, 5u);
  EXPECT_DOUBLE_EQ(stats.rejected_bytes, 50.0);
}

TEST(Simulator, EvictionAccounting) {
  const Trace trace = make_manual_trace({1, 2, 3, 4}, 10);
  LruCache cache{20};  // holds 2 objects
  AlwaysAdmit admission;
  const CacheStats stats = Simulator{trace}.run(cache, admission);
  EXPECT_EQ(stats.insertions, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_DOUBLE_EQ(stats.evicted_bytes, 20.0);
}

TEST(Simulator, RefusedInsertsCloseTheAccounting) {
  // Every object is larger than the cache: each admitted miss is refused.
  const Trace trace = make_manual_trace({1, 2, 1, 3}, 100);
  LruCache cache{50};
  AlwaysAdmit admission;
  const CacheStats stats = Simulator{trace}.run(cache, admission);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.refused, 4u);
  EXPECT_EQ(stats.hits + stats.insertions + stats.rejected + stats.refused,
            stats.requests);
}

TEST(Simulator, OracleAdmissionFiltersOneTimers) {
  // Objects 1,2 reaccessed closely; 3,4,5 one-time.
  const Trace trace = make_manual_trace({1, 2, 1, 2, 3, 4, 5}, 10);
  const NextAccessInfo oracle = compute_next_access(trace);
  LruCache cache{1000};
  OracleAdmission admission{oracle, /*reaccess_threshold=*/10};
  Simulator sim{trace};
  sim.set_oracle(oracle);
  const CacheStats stats = sim.run(cache, admission);
  EXPECT_EQ(stats.insertions, 2u);  // only 1 and 2 admitted
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST(Simulator, OracleAdmissionHonoursThreshold) {
  // Object 1 reaccess distance is 4 (> threshold 2): rejected both times.
  const Trace trace = make_manual_trace({1, 2, 3, 4, 1}, 10);
  const NextAccessInfo oracle = compute_next_access(trace);
  LruCache cache{1000};
  OracleAdmission admission{oracle, 2};
  Simulator sim{trace};
  sim.set_oracle(oracle);
  const CacheStats stats = sim.run(cache, admission);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.insertions, 0u);
}

TEST(Simulator, GeneratedTraceSanity) {
  WorkloadConfig config;
  config.num_owners = 500;
  config.num_photos = 10'000;
  const Trace trace = TraceGenerator{config}.generate();
  LruCache cache{static_cast<std::uint64_t>(2e7)};
  AlwaysAdmit admission;
  const CacheStats stats = Simulator{trace}.run(cache, admission);
  EXPECT_EQ(stats.requests, trace.requests.size());
  EXPECT_GT(stats.file_hit_rate(), 0.0);
  EXPECT_LT(stats.file_hit_rate(), 1.0);
  EXPECT_EQ(stats.hits + stats.insertions + stats.rejected, stats.requests);
}

TEST(CacheStatsStruct, MergeAddsFields) {
  CacheStats a;
  a.requests = 10;
  a.hits = 5;
  a.request_bytes = 100;
  CacheStats b;
  b.requests = 6;
  b.hits = 1;
  b.request_bytes = 50;
  a.refused = 2;
  b.refused = 3;
  a.merge(b);
  EXPECT_EQ(a.refused, 5u);
  EXPECT_EQ(a.requests, 16u);
  EXPECT_EQ(a.hits, 6u);
  EXPECT_EQ(a.misses(), 10u);
  EXPECT_DOUBLE_EQ(a.request_bytes, 150.0);
}

TEST(CacheStatsStruct, RatesOnEmptyAreZero) {
  const CacheStats stats;
  EXPECT_DOUBLE_EQ(stats.file_hit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(stats.byte_hit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(stats.file_write_rate(), 0.0);
  EXPECT_DOUBLE_EQ(stats.byte_write_rate(), 0.0);
}

}  // namespace
}  // namespace otac
