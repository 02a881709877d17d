#include "trace/next_access.h"

#include <gtest/gtest.h>

#include "trace/trace_generator.h"
#include "trace/trace_stats.h"

namespace otac {
namespace {

/// Photo i is 1000 + 37*i bytes, so footprints tell photos apart.
Trace make_manual_trace(const std::vector<PhotoId>& sequence,
                        std::size_t photo_count) {
  Trace trace;
  std::vector<PhotoMeta> photos(photo_count);
  for (std::size_t i = 0; i < photo_count; ++i) {
    photos[i].size_bytes = static_cast<std::uint32_t>(1000 + 37 * i);
  }
  trace.catalog = PhotoCatalog{std::move(photos), {OwnerMeta{}}};
  trace.horizon = SimTime{static_cast<std::int64_t>(sequence.size())};
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    Request r;
    r.time = SimTime{static_cast<std::int64_t>(i)};
    r.photo = sequence[i];
    trace.requests.push_back(r);
  }
  return trace;
}

/// reached[i] = some earlier request's next pointer lands on i, i.e. request
/// i is not its photo's first access.
std::vector<bool> reached_by_next(const NextAccessInfo& info) {
  std::vector<bool> reached(info.next.size(), false);
  for (const std::uint64_t nxt : info.next) {
    if (nxt != kNoNextAccess) reached[nxt] = true;
  }
  return reached;
}

TEST(NextAccess, HandPickedSequence) {
  // photos: A B A C B A
  const Trace trace = make_manual_trace({0, 1, 0, 2, 1, 0}, 3);
  const NextAccessInfo info = compute_next_access(trace);
  EXPECT_EQ(info.next[0], 2u);
  EXPECT_EQ(info.next[1], 4u);
  EXPECT_EQ(info.next[2], 5u);
  EXPECT_EQ(info.next[3], kNoNextAccess);
  EXPECT_EQ(info.next[4], kNoNextAccess);
  EXPECT_EQ(info.next[5], kNoNextAccess);

  const std::vector<bool> reached = reached_by_next(info);
  EXPECT_FALSE(reached[0]);
  EXPECT_FALSE(reached[1]);
  EXPECT_TRUE(reached[2]);
  EXPECT_FALSE(reached[3]);
  EXPECT_TRUE(reached[4]);
  EXPECT_TRUE(reached[5]);
}

TEST(NextAccess, ReaccessDistance) {
  const Trace trace = make_manual_trace({0, 1, 0}, 2);
  const NextAccessInfo info = compute_next_access(trace);
  EXPECT_EQ(info.reaccess_distance(0), 2u);
  EXPECT_EQ(info.reaccess_distance(1), kNoNextAccess);
}

TEST(NextAccess, EmptyTrace) {
  const Trace trace = make_manual_trace({}, 1);
  const NextAccessInfo info = compute_next_access(trace);
  EXPECT_TRUE(info.next.empty());
  EXPECT_TRUE(reached_by_next(info).empty());
}

TEST(NextAccess, ConsistentOnGeneratedTrace) {
  WorkloadConfig config;
  config.num_owners = 500;
  config.num_photos = 5000;
  const Trace trace = TraceGenerator{config}.generate();
  const NextAccessInfo info = compute_next_access(trace);
  ASSERT_EQ(info.next.size(), trace.requests.size());
  std::vector<int> landed(trace.requests.size(), 0);
  std::size_t last_accesses = 0;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const std::uint64_t nxt = info.next[i];
    if (nxt == kNoNextAccess) {
      ++last_accesses;
      continue;
    }
    ASSERT_LT(nxt, trace.requests.size());
    ASSERT_GT(nxt, i);
    EXPECT_EQ(trace.requests[nxt].photo, trace.requests[i].photo);
    landed[nxt] += 1;
  }
  // No intermediate occurrence is skipped: every request is the next of at
  // most one earlier request, and each distinct photo ends exactly one
  // chain.
  for (const int count : landed) ASSERT_LE(count, 1);
  EXPECT_EQ(last_accesses, compute_trace_stats(trace).distinct_objects);
}

TEST(NextAccess, FootprintEqualsTraceStatsOnGeneratedTrace) {
  WorkloadConfig config;
  config.num_owners = 500;
  config.num_photos = 5000;
  const Trace trace = TraceGenerator{config}.generate();
  const double footprint = compute_next_access(trace).total_object_bytes;
  EXPECT_GT(footprint, 0.0);
  EXPECT_EQ(footprint, compute_trace_stats(trace).total_object_bytes);
}

TEST(NextAccess, FootprintSkipsNeverRequestedPhotos) {
  // Photos 1, 3 and 4 are in the catalog but never requested.
  const Trace trace = make_manual_trace({0, 2, 0, 5, 2}, 6);
  const double footprint = compute_next_access(trace).total_object_bytes;
  EXPECT_EQ(footprint, 1000.0 + 1074.0 + 1185.0);
  EXPECT_EQ(footprint, compute_trace_stats(trace).total_object_bytes);
}

TEST(NextAccess, FootprintOfEmptyTraceIsZero) {
  const Trace trace = make_manual_trace({}, 3);
  const double footprint = compute_next_access(trace).total_object_bytes;
  EXPECT_EQ(footprint, 0.0);
  EXPECT_EQ(footprint, compute_trace_stats(trace).total_object_bytes);
}

}  // namespace
}  // namespace otac
