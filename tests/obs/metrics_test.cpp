// Unit coverage for the obs metrics layer: histogram bucket/quantile edge
// cases (empty, single-bucket, overflow), merge semantics (grid adoption,
// mismatch rejection), registry handle stability, merge associativity
// across shard counts, and the LatencyRecorder fast path.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace otac::obs {
namespace {

TEST(FixedHistogram, EmptyReportsZero) {
  const FixedHistogram h{std::vector<double>{1.0, 10.0}};
  EXPECT_EQ(h.count(), 0U);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.999), 0.0);
}

TEST(FixedHistogram, NoBoundsIsSingleOverflowBucket) {
  FixedHistogram h{std::vector<double>{}};
  h.add(5.0);
  h.add(1e9);
  EXPECT_EQ(h.count(), 2U);
  EXPECT_DOUBLE_EQ(h.sum(), 5.0 + 1e9);
  // No finite bound exists, so the quantile cannot resolve a value.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(FixedHistogram, SingleBucketSplitsAtBound) {
  FixedHistogram h{std::vector<double>{10.0}};
  h.add(3.0);    // below: bucket 0
  h.add(10.0);   // le semantics: exactly the bound stays in bucket 0
  h.add(10.01);  // above: overflow bucket
  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 2U);
  EXPECT_EQ(snap.counts[0], 2U);
  EXPECT_EQ(snap.counts[1], 1U);
}

TEST(FixedHistogram, OverflowQuantileClampsToLastBound) {
  FixedHistogram h{std::vector<double>{1.0, 10.0}};
  for (int i = 0; i < 100; ++i) h.add(1e6);  // everything overflows
  EXPECT_EQ(h.count(), 100U);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.999), 10.0);
  EXPECT_DOUBLE_EQ(h.sum(), 1e8);
}

TEST(FixedHistogram, QuantileInterpolatesInsideBucket) {
  FixedHistogram h{std::vector<double>{100.0, 200.0}};
  for (int i = 0; i < 100; ++i) h.add(150.0);  // all in (100, 200]
  // The whole mass sits in bucket 1: the median interpolates halfway
  // through [100, 200].
  EXPECT_NEAR(h.quantile(0.5), 150.0, 1.0);
  EXPECT_GT(h.quantile(0.99), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.999), 200.0);
}

TEST(FixedHistogram, BucketOfMatchesLeSemantics) {
  const FixedHistogram h{std::vector<double>{1.0, 2.0, 5.0}};
  EXPECT_EQ(h.bucket_of(0.0), 0U);
  EXPECT_EQ(h.bucket_of(1.0), 0U);
  EXPECT_EQ(h.bucket_of(1.5), 1U);
  EXPECT_EQ(h.bucket_of(2.0), 1U);
  EXPECT_EQ(h.bucket_of(5.0), 2U);
  EXPECT_EQ(h.bucket_of(5.1), 3U);
}

TEST(FixedHistogram, MergePreservesCountsAndSum) {
  FixedHistogram a{std::vector<double>{1.0, 10.0}};
  FixedHistogram b{std::vector<double>{1.0, 10.0}};
  a.add(0.5);
  a.add(5.0);
  b.add(5.0);
  b.add(100.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4U);
  EXPECT_DOUBLE_EQ(a.sum(), 110.5);
  const HistogramSnapshot snap = a.snapshot();
  EXPECT_EQ(snap.counts[0], 1U);
  EXPECT_EQ(snap.counts[1], 2U);
  EXPECT_EQ(snap.counts[2], 1U);
}

TEST(FixedHistogram, MergeRejectsMismatchedBounds) {
  FixedHistogram a{std::vector<double>{1.0, 10.0}};
  FixedHistogram b{std::vector<double>{1.0, 20.0}};
  a.add(1.0);
  b.add(1.0);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(FixedHistogram, MergeIntoDefaultAdoptsGrid) {
  FixedHistogram empty;  // default: no grid yet
  FixedHistogram data{std::vector<double>{1.0, 10.0}};
  data.add(5.0, 3);
  empty.merge(data);
  EXPECT_EQ(empty.count(), 3U);
  EXPECT_EQ(empty.upper_bounds(), data.upper_bounds());
  EXPECT_DOUBLE_EQ(empty.sum(), 15.0);
}

TEST(MetricsRegistry, HandlesAreStableAndShared) {
  MetricsRegistry registry;
  MetricsRegistry::Counter a = registry.counter("x");
  // Creating more metrics must not invalidate existing handles (node-based
  // map storage).
  for (int i = 0; i < 100; ++i) {
    (void)registry.counter(std::string{"c"}.append(std::to_string(i)));
  }
  MetricsRegistry::Counter b = registry.counter("x");
  EXPECT_EQ(a, b);
  ++*a;
  *b += 2;
  EXPECT_EQ(registry.snapshot().counters.at("x"), 3U);
}

TEST(MetricsRegistry, HistogramFirstRegistrationWins) {
  MetricsRegistry registry;
  FixedHistogram* first = registry.histogram("h", {1.0, 2.0});
  FixedHistogram* second = registry.histogram("h", {5.0, 6.0, 7.0});
  EXPECT_EQ(first, second);
  EXPECT_EQ(first->upper_bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsRegistry, SetIsIdempotentAssignment) {
  MetricsRegistry registry;
  registry.set("cum", 10);
  registry.set("cum", 10);
  registry.set("cum", 25);
  EXPECT_EQ(registry.snapshot().counters.at("cum"), 25U);
  registry.set_gauge("g", 1.5);
  registry.set_gauge("g", 2.5);
  EXPECT_DOUBLE_EQ(registry.snapshot().gauges.at("g"), 2.5);
}

TEST(MetricsSnapshot, MergeSumsAndAdoptsMissingNames) {
  MetricsRegistry a;
  MetricsRegistry b;
  *a.counter("shared") = 2;
  *b.counter("shared") = 3;
  *b.counter("only_b") = 7;
  *a.gauge("bytes") = 10.0;
  *b.gauge("bytes") = 2.5;
  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.counters.at("shared"), 5U);
  EXPECT_EQ(merged.counters.at("only_b"), 7U);
  EXPECT_DOUBLE_EQ(merged.gauges.at("bytes"), 12.5);
}

// Deterministic per-shard content for the associativity pins below.
MetricsSnapshot shard_snapshot(std::size_t shard) {
  MetricsRegistry registry;
  *registry.counter("requests") = 100 * (shard + 1);
  *registry.counter("shard_" + std::to_string(shard)) = shard + 1;
  *registry.gauge("bytes") = 0.5 * static_cast<double>(shard + 1);
  FixedHistogram* h = registry.histogram("lat", {1.0, 10.0, 100.0});
  for (std::size_t i = 0; i <= shard; ++i) {
    h->add(static_cast<double>(i) * 7.0 + 0.5);
  }
  return registry.snapshot();
}

TEST(MetricsSnapshot, MergeIsAssociativeAcrossShardCounts) {
  for (const std::size_t shards : {1U, 2U, 3U, 5U, 8U}) {
    std::vector<MetricsSnapshot> parts;
    for (std::size_t s = 0; s < shards; ++s) {
      parts.push_back(shard_snapshot(s));
    }
    // Left fold: ((s0 + s1) + s2) + ...
    MetricsSnapshot left;
    for (const MetricsSnapshot& part : parts) left.merge(part);
    // Right fold: s0 + (s1 + (s2 + ...))
    MetricsSnapshot right;
    for (std::size_t s = shards; s-- > 0;) {
      MetricsSnapshot next = parts[s];
      next.merge(right);
      right = next;
    }
    EXPECT_EQ(left, right) << "shards=" << shards;
    // Pairwise tree fold must agree too (how a hierarchical aggregator
    // would combine them).
    std::vector<MetricsSnapshot> level = parts;
    while (level.size() > 1) {
      std::vector<MetricsSnapshot> next;
      for (std::size_t i = 0; i < level.size(); i += 2) {
        MetricsSnapshot pair = level[i];
        if (i + 1 < level.size()) pair.merge(level[i + 1]);
        next.push_back(pair);
      }
      level = next;
    }
    EXPECT_EQ(left, level[0]) << "shards=" << shards;
  }
}

TEST(MetricsRegistry, MergeMatchesSnapshotMerge) {
  MetricsRegistry target;
  *target.counter("c") = 1;
  target.histogram("lat", {1.0, 10.0, 100.0})->add(5.0);
  MetricsSnapshot expected = target.snapshot();
  expected.merge(shard_snapshot(2));

  target.merge(shard_snapshot(2));
  EXPECT_EQ(target.snapshot(), expected);
}

TEST(LatencyRecorder, RecordsPrecomputedBuckets) {
  MetricsRegistry registry;
  FixedHistogram* h = registry.histogram("lat", {1.0, 100.0, 10'000.0});
  LatencyRecorder recorder{h, /*hit_us=*/50.0, /*miss_us=*/3'000.0};
  recorder.record(true);
  recorder.record(true);
  recorder.record(false);
  const HistogramSnapshot snap = h->snapshot();
  if constexpr (kEnabled) {
    EXPECT_EQ(snap.counts[1], 2U);  // 50us -> (1, 100]
    EXPECT_EQ(snap.counts[2], 1U);  // 3000us -> (100, 10000]
    EXPECT_DOUBLE_EQ(snap.sum, 3'100.0);
  } else {
    // OTAC_OBS_OFF compiles record() down to nothing.
    EXPECT_EQ(snap.count(), 0U);
  }
}

TEST(LatencyRecorder, NullHistogramIsNoop) {
  LatencyRecorder recorder;  // default: no histogram bound
  recorder.record(true);     // must not crash
  recorder.record(false);
}

}  // namespace
}  // namespace otac::obs
