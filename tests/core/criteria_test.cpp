#include "core/ota_criteria.h"

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
  return trace;
}

TEST(Criteria, OneTimeFractionByThreshold) {
  // Distances: photo 0 -> 2, photo 1 -> 2, then terminal accesses.
  const Trace trace = make_manual_trace({0, 1, 0, 1}, 100);
  const NextAccessInfo oracle = compute_next_access(trace);
  ThreadPool pool{2};
  EXPECT_DOUBLE_EQ(one_time_fraction(oracle, 4, 1.0, pool), 1.0);   // all > 1
  EXPECT_DOUBLE_EQ(one_time_fraction(oracle, 4, 2.0, pool), 0.5);   // dist 2 kept
  EXPECT_DOUBLE_EQ(one_time_fraction(oracle, 4, 100.0, pool), 0.5); // terminals stay
  EXPECT_DOUBLE_EQ(one_time_fraction(oracle, 0, 1.0, pool), 0.0);
}

TEST(Criteria, ParallelOneTimeFractionEqualsSerialCount) {
  WorkloadConfig config;
  config.num_owners = 3000;
  config.num_photos = 60'000;
  const Trace trace = TraceGenerator{config}.generate();
  const NextAccessInfo oracle = compute_next_access(trace);
  const std::uint64_t n = trace.requests.size();
  const auto serial_fraction = [&](double m) {
    std::uint64_t one_time = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (oracle.next[i] == kNoNextAccess ||
          static_cast<double>(oracle.next[i] - i) > m) {
        ++one_time;
      }
    }
    return static_cast<double>(one_time) / static_cast<double>(n);
  };
  for (const double m : {1.0, 1000.0, 1e5, 1e9}) {
    for (const std::size_t threads : {1, 2, 3, 8}) {
      ThreadPool pool{threads};
      EXPECT_EQ(one_time_fraction(oracle, n, m, pool), serial_fraction(m))
          << "m " << m << ", " << threads << " threads";
    }
  }
  // The fixpoint's third p is the serial count at the M of its second.
  const CriteriaResult two = compute_criteria(trace, oracle, 50'000'000, 0.4, 2);
  const CriteriaResult three =
      compute_criteria(trace, oracle, 50'000'000, 0.4, 3);
  EXPECT_EQ(three.p, serial_fraction(two.m));
}

TEST(Criteria, FormulaMatchesEquation) {
  const Trace trace = make_manual_trace({0, 1, 0, 1}, 100);
  const NextAccessInfo oracle = compute_next_access(trace);
  // One iteration from p=0: M0 = C/(S(1-h)); with C=1000, S=100, h=0.5:
  // M0 = 20 -> p(20) = 0.5 -> final M = 20/(1-0.5) = 40.
  const CriteriaResult r =
      compute_criteria(trace, oracle, 1000, 0.5, /*iterations=*/3);
  EXPECT_DOUBLE_EQ(r.mean_size, 100.0);
  EXPECT_DOUBLE_EQ(r.p, 0.5);
  EXPECT_DOUBLE_EQ(r.m, 40.0);
  EXPECT_DOUBLE_EQ(r.h, 0.5);
}

TEST(Criteria, MGrowsWithCapacity) {
  WorkloadConfig config;
  config.num_owners = 500;
  config.num_photos = 10'000;
  const Trace trace = TraceGenerator{config}.generate();
  const NextAccessInfo oracle = compute_next_access(trace);
  const CriteriaResult small = compute_criteria(trace, oracle, 1'000'000, 0.3);
  const CriteriaResult large = compute_criteria(trace, oracle, 10'000'000, 0.3);
  EXPECT_GT(large.m, small.m);
  EXPECT_LE(large.p, small.p);  // bigger M -> fewer accesses are one-time
}

TEST(Criteria, FixpointConverges) {
  WorkloadConfig config;
  config.num_owners = 500;
  config.num_photos = 10'000;
  const Trace trace = TraceGenerator{config}.generate();
  const NextAccessInfo oracle = compute_next_access(trace);
  const CriteriaResult three = compute_criteria(trace, oracle, 5'000'000, 0.4, 3);
  const CriteriaResult eight = compute_criteria(trace, oracle, 5'000'000, 0.4, 8);
  EXPECT_NEAR(three.m, eight.m, 0.05 * eight.m);  // paper: 3 rounds suffice
}

TEST(Criteria, RejectsDegenerateInput) {
  const Trace trace = make_manual_trace({0}, 100);
  const NextAccessInfo oracle = compute_next_access(trace);
  EXPECT_THROW((void)compute_criteria(trace, oracle, 0, 0.5),
               std::invalid_argument);
  Trace empty;
  empty.catalog = PhotoCatalog{{}, {}};
  const NextAccessInfo none = compute_next_access(empty);
  EXPECT_THROW((void)compute_criteria(empty, none, 100, 0.5),
               std::invalid_argument);
}

TEST(Criteria, HitRateClamped) {
  const Trace trace = make_manual_trace({0, 1, 0, 1}, 100);
  const NextAccessInfo oracle = compute_next_access(trace);
  const CriteriaResult r = compute_criteria(trace, oracle, 1000, 5.0);
  EXPECT_LE(r.h, 0.999);
  EXPECT_GT(r.m, 0.0);
}

TEST(Criteria, LirsAdjustmentShrinksM) {
  EXPECT_DOUBLE_EQ(lirs_criteria(100.0, 0.9), 90.0);
  EXPECT_DOUBLE_EQ(lirs_criteria(40.0, 0.5), 20.0);
}

}  // namespace
}  // namespace otac
