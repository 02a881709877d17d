// Bit-for-bit pins of the synthesized trace. The latent-score and catalog
// digests and the calibration doubles were recorded from the serial
// calibration code; the parallel calibration must reproduce them exactly,
// on any pool size. The request digests were recorded when the requests
// took the total (time, photo, terminal) order, which any correct sort
// reproduces.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "experiments/workloads.h"
#include "trace/popularity_model.h"
#include "trace/trace_generator.h"
#include "util/fnv.h"

namespace otac {
namespace {

struct TraceDigest {
  std::uint64_t requests = kFnvOffset;
  std::uint64_t latent_score = kFnvOffset;
  std::uint64_t catalog = kFnvOffset;
};

TraceDigest digest_of(const Trace& trace) {
  TraceDigest d;
  for (const Request& r : trace.requests) {
    fnv64(d.requests, static_cast<std::uint64_t>(r.time.seconds));
    fnv64(d.requests, r.photo);
    fnv64(d.requests, static_cast<std::uint64_t>(r.terminal));
  }
  for (const float z : trace.latent_score) {
    fnv64(d.latent_score, std::bit_cast<std::uint32_t>(z));
  }
  for (const PhotoMeta& p : trace.catalog.photos()) {
    fnv64(d.catalog, p.owner);
    fnv64(d.catalog, static_cast<std::uint64_t>(type_index(p.type)));
    fnv64(d.catalog, p.size_bytes);
    fnv64(d.catalog, static_cast<std::uint64_t>(p.upload_time.seconds));
  }
  for (const OwnerMeta& o : trace.catalog.owners()) {
    fnv64(d.catalog, o.active_friends);
    fnv64(d.catalog, std::bit_cast<std::uint32_t>(o.activity));
    fnv64(d.catalog, std::bit_cast<std::uint32_t>(o.quality));
    fnv64(d.catalog, o.photo_count);
  }
  return d;
}

struct Pinned {
  const char* name;
  WorkloadConfig config;
  std::size_t request_count;
  TraceDigest digest;
  std::uint64_t theta_bits;        // PopularityAssignment::theta
  std::uint64_t count_scale_bits;  // PopularityAssignment::count_scale
};

WorkloadConfig test_config() {
  WorkloadConfig config;
  config.seed = 42;
  config.num_owners = 3000;
  config.num_photos = 60000;
  return config;
}

const std::vector<Pinned>& pinned() {
  static const std::vector<Pinned> cases = {
      {"60k photos, seed 42", test_config(), 237300,
       {0x121177d21aa2277c, 0x3705425be407af21, 0x3518ee12cf49abf4},
       0x3fe358ef0816d356,   // 0x1.358ef0816d356p-1
       0x3fb5924062ccf216},  // 0x1.5924062ccf216p-4
      {"bench_workload_config(0.25, 7)", bench_workload_config(0.25, 7),
       395498,
       {0x67a7b56a7f04f5b0, 0xf25af5fd65419ce3, 0x4dc82b5dfabec4ac},
       0x3fe35a0bc4ca8a06,   // 0x1.35a0bc4ca8a06p-1
       0x3fb591bca5ef9b86},  // 0x1.591bca5ef9b86p-4
  };
  return cases;
}

/// generate()'s traces, one per pinned case, built once for the suite.
const Trace& trace_of(std::size_t c) {
  static const std::vector<Trace> traces = [] {
    std::vector<Trace> out;
    for (const Pinned& p : pinned()) {
      out.push_back(TraceGenerator{p.config}.generate());
    }
    return out;
  }();
  return traces[c];
}

/// Step 3 of generate() on the trace's own catalog, with the popularity
/// stream generate() forks for it.
PopularityAssignment calibrate(const WorkloadConfig& config,
                               const Trace& trace, ThreadPool& pool) {
  const AccessWindow window = access_window(config, trace.catalog, pool);
  Rng pop_rng = Rng{config.seed}.fork(3);
  return PopularityModel{}.assign(config, trace.catalog, window.mass, pop_rng,
                                  pool);
}

TEST(TraceDigest, GeneratedTraceIsPinned) {
  for (std::size_t c = 0; c < pinned().size(); ++c) {
    const Pinned& p = pinned()[c];
    const Trace& trace = trace_of(c);
    const TraceDigest d = digest_of(trace);
    EXPECT_EQ(trace.requests.size(), p.request_count) << p.name;
    EXPECT_EQ(d.requests, p.digest.requests) << p.name;
    EXPECT_EQ(d.latent_score, p.digest.latent_score) << p.name;
    EXPECT_EQ(d.catalog, p.digest.catalog) << p.name;
  }
}

bool same_time_and_photo(const Request& a, const Request& b) {
  return a.time == b.time && a.photo == b.photo;
}

TEST(TraceDigest, RequestsFollowTheTotalOrder) {
  // A short horizon over few photos piles many accesses onto one second
  // (and onto the clamped last second), forcing (time, photo) ties.
  WorkloadConfig ties = test_config();
  ties.num_owners = 50;
  ties.num_photos = 500;
  ties.horizon_days = 0.01;
  ties.backlog_days = 0.0;
  const Trace tie_trace = TraceGenerator{ties}.generate();

  std::vector<std::pair<const char*, const Trace*>> cases;
  for (std::size_t c = 0; c < pinned().size(); ++c) {
    cases.emplace_back(pinned()[c].name, &trace_of(c));
  }
  cases.emplace_back("short horizon, 500 photos", &tie_trace);

  for (const auto& [name, trace] : cases) {
    std::vector<Request> expected = trace->requests;
    std::sort(expected.begin(), expected.end(),
              [](const Request& a, const Request& b) {
                return std::tuple{a.time, a.photo, a.terminal} <
                       std::tuple{b.time, b.photo, b.terminal};
              });
    std::size_t mismatches = 0;
    std::size_t mixed_tie_runs = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const Request& got = trace->requests[i];
      mismatches += !same_time_and_photo(got, expected[i]) ||
                    got.terminal != expected[i].terminal;
      // Sorted, so a run holds both terminals exactly where pc meets mobile.
      mixed_tie_runs += i > 0 && same_time_and_photo(expected[i - 1],
                                                     expected[i]) &&
                        expected[i - 1].terminal != expected[i].terminal;
    }
    EXPECT_EQ(mismatches, 0U) << name;
    EXPECT_GT(mixed_tie_runs, 0U) << name << ": no tie to order";
  }
}

TEST(TraceDigest, CalibrationDoublesArePinned) {
  ThreadPool pool;
  for (std::size_t c = 0; c < pinned().size(); ++c) {
    const Pinned& p = pinned()[c];
    const PopularityAssignment a = calibrate(p.config, trace_of(c), pool);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.theta), p.theta_bits) << p.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.count_scale), p.count_scale_bits)
        << p.name;
    EXPECT_TRUE(a.score == trace_of(c).latent_score) << p.name;
  }
}

TEST(TraceDigest, CalibrationIsIndependentOfPoolSize) {
  for (std::size_t c = 0; c < pinned().size(); ++c) {
    const Pinned& p = pinned()[c];
    const Trace& trace = trace_of(c);
    for (const std::size_t threads : {1U, 2U, 3U, 8U}) {
      ThreadPool pool{threads};
      const AccessWindow window = access_window(p.config, trace.catalog, pool);
      const PopularityAssignment a = calibrate(p.config, trace, pool);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.theta), p.theta_bits)
          << p.name << " threads=" << threads;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.count_scale),
                p.count_scale_bits)
          << p.name << " threads=" << threads;
      EXPECT_TRUE(a.score == trace.latent_score)
          << p.name << " threads=" << threads;
      // Window mass is elementwise; compare it against a serial pool.
      ThreadPool serial{1};
      const AccessWindow reference =
          access_window(p.config, trace.catalog, serial);
      EXPECT_TRUE(window.cdf_lo == reference.cdf_lo &&
                  window.cdf_hi == reference.cdf_hi &&
                  window.mass == reference.mass)
          << p.name << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace otac
