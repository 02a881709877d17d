// Exactness of the chunk-parallel admit-all LRU hit count: for every trace,
// capacity, cut set and pool size it must equal the hits of a serial
// Simulator + LRU + AlwaysAdmit replay.
#include "cachesim/lru_estimate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cachesim/simulator.h"
#include "trace/trace_generator.h"

namespace otac {
namespace {

std::uint64_t simulator_hits(const Trace& trace, std::uint64_t capacity) {
  const auto policy = make_policy(PolicyKind::lru, capacity);
  AlwaysAdmit admission;
  return Simulator{trace}.run(*policy, admission).hits;
}

/// Sum of lru_chunk_hits over the chunks [cuts[k], cuts[k+1]).
std::uint64_t hits_over_cuts(const Trace& trace, const NextAccessInfo& oracle,
                             std::uint64_t capacity,
                             const std::vector<std::uint64_t>& cuts) {
  std::uint64_t hits = 0;
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    hits += lru_chunk_hits(trace, oracle, capacity, cuts[k], cuts[k + 1]);
  }
  return hits;
}

/// `chunks` near-equal chunks covering [0, n).
std::vector<std::uint64_t> even_cuts(std::uint64_t n, std::uint64_t chunks) {
  std::vector<std::uint64_t> cuts;
  for (std::uint64_t c = 0; c <= chunks; ++c) cuts.push_back(n * c / chunks);
  return cuts;
}

Trace make_trace(const std::vector<std::uint32_t>& sizes,
                 const std::vector<PhotoId>& sequence) {
  Trace trace;
  std::vector<PhotoMeta> photos(sizes.size());
  for (std::size_t p = 0; p < sizes.size(); ++p) {
    photos[p].size_bytes = sizes[p];
  }
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

/// Repeated photos of mixed sizes; photo 7 (60000 B) exceeds every
/// capacity below the footprint and photo 4 (5000 B) most of them.
Trace hand_built_trace() {
  const std::vector<std::uint32_t> sizes = {100,  250, 400, 1000,
                                            5000, 100, 250, 60000};
  const std::vector<PhotoId> sequence = {
      0, 1, 2, 0, 3, 4, 1, 0, 7, 2, 5, 6, 0, 4, 4, 3, 7, 1, 2, 5,
      0, 6, 6, 3, 1, 4, 0, 2, 7, 7, 5, 3, 0, 1, 6, 2, 4, 0, 3, 1};
  return make_trace(sizes, sequence);
}

Trace generated_trace() {
  WorkloadConfig config;
  config.seed = 42;
  config.num_owners = 3000;
  config.num_photos = 60000;
  return TraceGenerator{config}.generate();
}

/// The capacities every trace is checked at: below the smallest object,
/// between object sizes, 2% and 50% of the footprint, the full footprint
/// and four times it.
std::vector<std::uint64_t> capacities_for(const Trace& trace,
                                          const NextAccessInfo& oracle) {
  std::uint32_t smallest = UINT32_MAX;
  for (const Request& r : trace.requests) {
    smallest = std::min(smallest, trace.catalog.photo(r.photo).size_bytes);
  }
  const auto footprint =
      static_cast<std::uint64_t>(oracle.total_object_bytes);
  return {smallest == UINT32_MAX ? 0 : smallest - 1,
          smallest == UINT32_MAX ? 1 : std::uint64_t{smallest} * 3 + 7,
          footprint / 50,
          footprint / 2,
          footprint,
          footprint * 4};
}

TEST(LruEstimate, HandBuiltTraceMatchesSimulatorForAnyCut) {
  const Trace trace = hand_built_trace();
  const NextAccessInfo oracle = compute_next_access(trace);
  const std::uint64_t n = trace.requests.size();
  for (const std::uint64_t capacity :
       {std::uint64_t{50}, std::uint64_t{300}, std::uint64_t{1200},
        std::uint64_t{6000}}) {
    SCOPED_TRACE(capacity);
    const std::uint64_t expected = simulator_hits(trace, capacity);
    for (const std::uint64_t chunks : {1, 2, 3, 7}) {
      EXPECT_EQ(hits_over_cuts(trace, oracle, capacity, even_cuts(n, chunks)),
                expected)
          << chunks << " chunks";
    }
    EXPECT_EQ(hits_over_cuts(trace, oracle, capacity, even_cuts(n, n)),
              expected)
        << "one chunk per request";
  }
  for (const std::uint64_t capacity : capacities_for(trace, oracle)) {
    SCOPED_TRACE(capacity);
    const std::uint64_t expected = simulator_hits(trace, capacity);
    EXPECT_EQ(hits_over_cuts(trace, oracle, capacity, even_cuts(n, n)),
              expected);
    EXPECT_EQ(hits_over_cuts(trace, oracle, capacity, {0, 0, 5, 5, 6, 39, n}),
              expected)
        << "uneven cuts with empty chunks";
  }
}

TEST(LruEstimate, HandBuiltTraceCountsAreNontrivial) {
  // Guards the exactness test above against a degenerate trace: the
  // capacities must produce distinct, partial hit counts.
  const Trace trace = hand_built_trace();
  EXPECT_EQ(simulator_hits(trace, 50), 0u);
  const std::uint64_t mid = simulator_hits(trace, 1200);
  const std::uint64_t large = simulator_hits(trace, 6000);
  EXPECT_GT(mid, 0u);
  EXPECT_LT(mid, large);
  EXPECT_LT(large, trace.requests.size());
}

TEST(LruEstimate, TinyTraces) {
  const Trace empty = make_trace({100}, {});
  const Trace single = make_trace({100}, {0});
  for (const Trace* trace : {&empty, &single}) {
    const NextAccessInfo oracle = compute_next_access(*trace);
    const std::uint64_t n = trace->requests.size();
    for (const std::uint64_t capacity :
         {std::uint64_t{0}, std::uint64_t{99}, std::uint64_t{100},
          std::uint64_t{1000}}) {
      const std::uint64_t expected = simulator_hits(*trace, capacity);
      EXPECT_EQ(expected, 0u);
      for (const std::uint64_t chunks : {1, 2, 3, 7}) {
        EXPECT_EQ(
            hits_over_cuts(*trace, oracle, capacity, even_cuts(n, chunks)),
            expected);
      }
      ThreadPool pool{3};
      EXPECT_EQ(lru_hit_count(*trace, oracle, capacity, pool), expected);
    }
  }
}

TEST(LruEstimate, GeneratedTraceMatchesSimulatorForAnyCutAndPool) {
  const Trace trace = generated_trace();
  const NextAccessInfo oracle = compute_next_access(trace);
  const std::uint64_t n = trace.requests.size();
  ASSERT_EQ(n, 237300u);
  ThreadPool p1{1};
  ThreadPool p2{2};
  ThreadPool p3{3};
  ThreadPool p8{8};
  for (const std::uint64_t capacity : capacities_for(trace, oracle)) {
    SCOPED_TRACE(capacity);
    const std::uint64_t expected = simulator_hits(trace, capacity);
    // One chunk per request would rescan the prefix n times here; the
    // hand-built trace covers that cut.
    for (const std::uint64_t chunks : {1, 2, 3, 7}) {
      EXPECT_EQ(hits_over_cuts(trace, oracle, capacity, even_cuts(n, chunks)),
                expected)
          << chunks << " chunks";
    }
    EXPECT_EQ(hits_over_cuts(trace, oracle, capacity,
                             {0, 1, 1, 4093, 100'000, 100'001, 236'000, n}),
              expected)
        << "uneven cuts with empty chunks";
    for (ThreadPool* pool : {&p1, &p2, &p3, &p8}) {
      EXPECT_EQ(lru_hit_count(trace, oracle, capacity, *pool), expected)
          << pool->thread_count() << " threads";
    }
  }
}

}  // namespace
}  // namespace otac
