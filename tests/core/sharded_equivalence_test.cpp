// Equivalence pins for the serving engine's front ends
// (core/sharded_cache.h, core/intelligent_cache.h):
//
//  - IntelligentCache::run and ShardedCache::run at shards=1 must both
//    reproduce literal pins — every CacheStats field (eviction-sequence
//    fingerprint included), criteria and cost bits, history capacity,
//    training count, degradation counters and a digest of the daily
//    confusion matrices — for every admission mode, every policy and
//    both retrain schedules. The pins were recorded from the unsharded
//    reference implementation this engine replaced, so they hold the
//    engine to its behavior with no tolerance to hide behind.
//  - shards=N original-mode aggregates must equal the sum of N completely
//    independent single-shard simulations over the partitioned sub-traces,
//    which proves the shards really share nothing on the request path.
#include "core/sharded_cache.h"

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "cachesim/admission.h"
#include "cachesim/simulator.h"
#include "trace/trace_generator.h"
#include "util/failpoint.h"
#include "util/sim_time.h"

namespace otac {
namespace {

class ShardedFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.num_owners = 500;
    config.num_photos = 12'000;
    trace_ = new Trace{TraceGenerator{config}.generate()};
    system_ = new IntelligentCache{*trace_};
    capacity_ =
        static_cast<std::uint64_t>(system_->total_object_bytes() * 0.015);
  }
  static void TearDownTestSuite() {
    delete system_;
    delete trace_;
    system_ = nullptr;
    trace_ = nullptr;
  }

  static RunConfig config_for(PolicyKind kind, AdmissionMode mode,
                              std::size_t shards) {
    RunConfig config;
    config.policy = kind;
    config.capacity_bytes = capacity_;
    config.mode = mode;
    config.shards = shards;
    return config;
  }

  static Trace* trace_;
  static IntelligentCache* system_;
  static std::uint64_t capacity_;
};

Trace* ShardedFixture::trace_ = nullptr;
IntelligentCache* ShardedFixture::system_ = nullptr;
std::uint64_t ShardedFixture::capacity_ = 0;

// One literal pin: a RunResult's simulation outputs, doubles as bit
// patterns. Recorded on the ShardedFixture trace (12k photos, capacity
// 1.5% of the footprint).
struct Pin {
  const char* name;
  std::uint64_t requests, hits, request_bytes, hit_bytes, insertions,
      inserted_bytes, evictions, evicted_bytes, rejected, rejected_bytes,
      refused, eviction_hash;
  int trainings;
  std::size_t history_capacity;
  std::uint64_t m, h, p, mean_size, cost_v, mean_latency_us;
  DegradationCounters degradation;
  std::size_t days;
  std::uint64_t daily_digest;
};

// Cases: original, bypass, ideal at LRU; proposal at every PolicyKind;
// proposal with retrain_interval_hours = 6.
constexpr Pin kPins[] = {
    {"original", 47459u, 25281u, 0x41de29b243000000u, 0x41d133e35e400000u,
     22178u, 0x41c9eb9dc9800000u, 21995u, 0x41c9b5cb33000000u, 0u,
     0x0000000000000000u, 0u, 0x8672d1a20ea48197u, 0, 0u, 0x0000000000000000u,
     0x0000000000000000u, 0x0000000000000000u, 0x0000000000000000u,
     0x0000000000000000u, 0x4096c0c7b0d06ddeu,
     {0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u}, 0u, 0xcbf29ce484222325u},
    {"bypass", 47459u, 0u, 0x41de29b243000000u, 0x0000000000000000u, 0u,
     0x0000000000000000u, 0u, 0x0000000000000000u, 47459u, 0x41de29b243000000u,
     0u, 0x14650fb0739d0383u, 0, 0u, 0x0000000000000000u, 0x0000000000000000u,
     0x0000000000000000u, 0x0000000000000000u, 0x0000000000000000u,
     0x40a7720000000000u, {0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u}, 0u,
     0xcbf29ce484222325u},
    {"ideal", 47459u, 29045u, 0x41de29b243000000u, 0x41d3780ef7400000u, 842u,
     0x417e327a10000000u, 672u, 0x4177777ff0000000u, 17572u,
     0x41c471b2c7000000u, 0u, 0x3abf995ebb72ce74u, 0, 0u, 0x4085160a6e048000u,
     0x3fe10bcec8b1a93bu, 0x3fdb772eec6cb95du, 0x40e32cef72015d86u,
     0x4000000000000000u, 0x40932965f7a6ec6au,
     {0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u}, 0u, 0xcbf29ce484222325u},
    {"proposal/LRU", 47459u, 27997u, 0x41de29b243000000u, 0x41d2d94db1400000u,
     2095u, 0x419398f760000000u, 1916u, 0x4191ef0f78000000u, 17367u,
     0x41c42daa37800000u, 0u, 0x443f0c94583ee33cu, 9, 7u, 0x4085160a6e048000u,
     0x3fe10bcec8b1a93bu, 0x3fdb772eec6cb95du, 0x40e32cef72015d86u,
     0x4000000000000000u, 0x409429965e2a9938u,
     {0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u}, 9u, 0xae63707265fd7b67u},
    {"proposal/FIFO", 47459u, 27204u, 0x41de29b243000000u, 0x41d25cde3b000000u,
     2762u, 0x419a3978dc000000u, 2573u, 0x41988e22a4000000u, 17493u,
     0x41c45278f4800000u, 0u, 0x61c0dd5b3b8c4b19u, 9, 7u, 0x4085160a6e048000u,
     0x3fe10bcec8b1a93bu, 0x3fdb772eec6cb95du, 0x40e32cef72015d86u,
     0x4000000000000000u, 0x4094eb70bb5ed851u,
     {0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u}, 9u, 0xbd48a92abc7c5ebdu},
    {"proposal/S3LRU", 47459u, 28096u, 0x41de29b243000000u, 0x41d2f2ec2d400000u,
     2069u, 0x41932f021c000000u, 1901u, 0x41918c0830000000u, 17294u,
     0x41c407abe8000000u, 0u, 0x0a253a76a3e7fb00u, 9, 7u, 0x4085160a6e048000u,
     0x3fe10bcec8b1a93bu, 0x3fdb772eec6cb95du, 0x40e32cef72015d86u,
     0x4000000000000000u, 0x40941162e517cf00u,
     {0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u}, 9u, 0x350495a2c58d72f1u},
    {"proposal/ARC", 47459u, 28380u, 0x41de29b243000000u, 0x41d3156e18400000u,
     1984u, 0x41924e8510000000u, 1825u, 0x41909fc6a0000000u, 17095u,
     0x41c3deb7b3800000u, 0u, 0x582be601709e39c8u, 9, 7u, 0x4085160a6e048000u,
     0x3fe10bcec8b1a93bu, 0x3fdb772eec6cb95du, 0x40e32cef72015d86u,
     0x4000000000000000u, 0x4093cbf605e47dfbu,
     {0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u}, 9u, 0xc2a3c0635434619bu},
    {"proposal/LIRS", 47459u, 28424u, 0x41de29b243000000u, 0x41d3114179400000u,
     1856u, 0x4191ec1abc000000u, 1682u, 0x41903dc9e0000000u, 17179u,
     0x41c3f35e3c000000u, 0u, 0x6061038fdc756cd3u, 9, 6u, 0x4082fa3c96374000u,
     0x3fe10bcec8b1a93bu, 0x3fdb772eec6cb95du, 0x40e32cef72015d86u,
     0x4000000000000000u, 0x4093c1347abfb253u,
     {0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u}, 9u, 0xbdd3666ab7a7283bu},
    {"proposal/LFU", 47459u, 28182u, 0x41de29b243000000u, 0x41d2e95b57c00000u,
     2205u, 0x4194a31e70000000u, 2035u, 0x4192f452ac000000u, 17072u,
     0x41c3ec4a08800000u, 0u, 0xdce2e02d48065cb7u, 9, 7u, 0x4085160a6e048000u,
     0x3fe10bcec8b1a93bu, 0x3fdb772eec6cb95du, 0x40e32cef72015d86u,
     0x4000000000000000u, 0x4093fc5cf80a126au,
     {0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u}, 9u, 0x3f24b180a645c984u},
    {"proposal/Belady", 47459u, 29278u, 0x41de29b243000000u,
     0x41d395a9ce800000u, 1722u, 0x418fe50700000000u, 1543u,
     0x418c8e9998000000u, 16459u, 0x41c329c079000000u, 0u, 0xccd276f26ce5f345u,
     9, 7u, 0x4085160a6e048000u, 0x3fe10bcec8b1a93bu, 0x3fdb772eec6cb95du,
     0x40e32cef72015d86u, 0x4000000000000000u, 0x4092f070b3e9e488u,
     {0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u}, 9u, 0xff03803a3bbb65e7u},
    {"proposal/interval6", 47459u, 27949u, 0x41de29b243000000u,
     0x41d2c97c40400000u, 2394u, 0x4196b524c4000000u, 2188u,
     0x4195061f64000000u, 17116u, 0x41c3e9c76d000000u, 0u, 0xcacd86d370bdb7bdu,
     35, 7u, 0x4085160a6e048000u, 0x3fe10bcec8b1a93bu, 0x3fdb772eec6cb95du,
     0x40e32cef72015d86u, 0x4000000000000000u, 0x409435523bc71a4cu,
     {0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u}, 9u, 0x8d2646be6734e1cbu},
};

const Pin& pin(const std::string& name) {
  for (const Pin& candidate : kPins) {
    if (name == candidate.name) return candidate;
  }
  throw std::invalid_argument("no pin named " + name);
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

std::uint64_t fnv(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffU;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t daily_digest(const std::vector<DayClassifierMetrics>& daily) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const DayClassifierMetrics& day : daily) {
    hash = fnv(hash, static_cast<std::uint64_t>(day.day));
    for (const ml::ConfusionMatrix* m : {&day.raw, &day.corrected}) {
      hash = fnv(hash, m->tp);
      hash = fnv(hash, m->fp);
      hash = fnv(hash, m->tn);
      hash = fnv(hash, m->fn);
    }
  }
  return hash;
}

void expect_pinned(const RunResult& r, const Pin& pin) {
  SCOPED_TRACE(pin.name);
  const CacheStats& s = r.stats;
  EXPECT_EQ(s.requests, pin.requests);
  EXPECT_EQ(s.hits, pin.hits);
  EXPECT_EQ(bits(s.request_bytes), pin.request_bytes);
  EXPECT_EQ(bits(s.hit_bytes), pin.hit_bytes);
  EXPECT_EQ(s.insertions, pin.insertions);
  EXPECT_EQ(bits(s.inserted_bytes), pin.inserted_bytes);
  EXPECT_EQ(s.evictions, pin.evictions);
  EXPECT_EQ(bits(s.evicted_bytes), pin.evicted_bytes);
  EXPECT_EQ(s.rejected, pin.rejected);
  EXPECT_EQ(bits(s.rejected_bytes), pin.rejected_bytes);
  EXPECT_EQ(s.refused, pin.refused);
  EXPECT_EQ(s.eviction_hash, pin.eviction_hash);
  // The accounting identity, exactly.
  EXPECT_EQ(s.hits + s.insertions + s.rejected + s.refused, s.requests);
  EXPECT_EQ(r.trainings, pin.trainings);
  EXPECT_EQ(r.history_capacity, pin.history_capacity);
  EXPECT_EQ(bits(r.criteria.m), pin.m);
  EXPECT_EQ(bits(r.criteria.h), pin.h);
  EXPECT_EQ(bits(r.criteria.p), pin.p);
  EXPECT_EQ(bits(r.criteria.mean_size), pin.mean_size);
  EXPECT_EQ(bits(r.cost_v), pin.cost_v);
  EXPECT_EQ(bits(r.mean_latency_us), pin.mean_latency_us);
  EXPECT_TRUE(r.degradation == pin.degradation);
  EXPECT_EQ(r.daily.size(), pin.days);
  EXPECT_EQ(daily_digest(r.daily), pin.daily_digest);
}

TEST(ShardOfPhoto, IsDeterministicInRangeAndRoughlyBalanced) {
  constexpr std::size_t kShards = 8;
  std::vector<std::size_t> counts(kShards, 0);
  for (PhotoId photo = 0; photo < 80'000; ++photo) {
    const std::size_t s = shard_of_photo(photo, kShards);
    ASSERT_LT(s, kShards);
    ASSERT_EQ(s, shard_of_photo(photo, kShards));  // pure function
    ++counts[s];
  }
  // Sequential ids must spread: each shard within ±20% of the mean.
  for (const std::size_t count : counts) {
    EXPECT_GT(count, 8'000u);
    EXPECT_LT(count, 12'000u);
  }
}

TEST(RetrainTriggers, MatchDailyAndIntervalSchedules) {
  // Hand-built trace: requests at 04:00 and 06:00 of days 0, 1, 2.
  Trace trace;
  trace.catalog.add_photo(PhotoMeta{});
  for (std::int64_t day = 0; day < 3; ++day) {
    for (const std::int64_t hour : {4, 6}) {
      Request request;
      request.time = SimTime{day * kSecondsPerDay + hour * kSecondsPerHour};
      request.photo = 0;
      trace.requests.push_back(request);
    }
  }

  OtaConfig daily;  // retrain_hour = 5, interval = 0
  // Day 0 06:00 fires (day 0 > "never"), then each later 06:00.
  EXPECT_EQ(retrain_trigger_indices(trace, daily),
            (std::vector<std::uint64_t>{1, 3, 5}));

  OtaConfig interval;
  interval.retrain_interval_hours = 24.0;
  // First request always fires (trainer cold start), then every >= 24h.
  EXPECT_EQ(retrain_trigger_indices(trace, interval),
            (std::vector<std::uint64_t>{0, 2, 4}));
}

TEST_F(ShardedFixture, RejectsDegenerateConfigs) {
  const ShardedCache sharded{*system_};
  RunConfig config = config_for(PolicyKind::lru, AdmissionMode::original, 0);
  EXPECT_THROW((void)sharded.run(config), std::invalid_argument);
  config.shards = 1;
  config.capacity_bytes = 0;
  EXPECT_THROW((void)sharded.run(config), std::invalid_argument);
  // So many shards that each gets zero bytes.
  config.capacity_bytes = 16;
  config.shards = 32;
  EXPECT_THROW((void)sharded.run(config), std::invalid_argument);
}

// Both front ends at shards=1 against the same literal pin.
void expect_front_ends_pinned(const IntelligentCache& system,
                              const RunConfig& config, const Pin& expected) {
  expect_pinned(system.run(config), expected);
  expect_pinned(ShardedCache{system}.run(config), expected);
}

TEST_F(ShardedFixture, SingleShardBitIdenticalAcrossModes) {
  ASSERT_EQ(trace_->requests.size(), 47'459u);
  ASSERT_EQ(capacity_, 7'068'866u);
  for (const auto& [mode, name] :
       {std::pair{AdmissionMode::original, "original"},
        std::pair{AdmissionMode::bypass, "bypass"},
        std::pair{AdmissionMode::ideal, "ideal"},
        std::pair{AdmissionMode::proposal, "proposal/LRU"}}) {
    expect_front_ends_pinned(*system_, config_for(PolicyKind::lru, mode, 1),
                             pin(name));
  }
}

TEST_F(ShardedFixture, SingleShardBitIdenticalForLirsProposal) {
  // Every policy, LIRS included: it exercises the criteria rescaling path
  // (M shrinks by the LIR share).
  for (const PolicyKind kind : all_policy_kinds()) {
    expect_front_ends_pinned(
        *system_, config_for(kind, AdmissionMode::proposal, 1),
        pin("proposal/" + policy_name(kind)));
  }
}

TEST_F(ShardedFixture, SingleShardBitIdenticalForIntervalRetrain) {
  RunConfig config = config_for(PolicyKind::lru, AdmissionMode::proposal, 1);
  config.ota.retrain_interval_hours = 6.0;
  expect_front_ends_pinned(*system_, config, pin("proposal/interval6"));
}

TEST_F(ShardedFixture, ShardedOriginalEqualsSumOfIndependentShardRuns) {
  constexpr std::size_t kShards = 3;
  const ShardedCache sharded{*system_};
  const RunResult merged =
      sharded.run(config_for(PolicyKind::lru, AdmissionMode::original,
                             kShards));

  // N fully independent simulations over the partitioned sub-traces, each
  // with its slice of the capacity — no shared anything.
  CacheStats sum;
  bool first = true;
  for (std::size_t s = 0; s < kShards; ++s) {
    Trace sub;
    sub.catalog = trace_->catalog;
    for (const Request& request : trace_->requests) {
      if (shard_of_photo(request.photo, kShards) == s) {
        sub.requests.push_back(request);
      }
    }
    const auto policy = make_policy(PolicyKind::lru, capacity_ / kShards);
    AlwaysAdmit admission;
    const CacheStats stats = Simulator{sub}.run(*policy, admission);
    if (first) {
      sum = stats;
      first = false;
    } else {
      sum.merge(stats);
    }
  }
  EXPECT_TRUE(merged.stats == sum)
      << "hits " << merged.stats.hits << " vs " << sum.hits
      << ", evictions " << merged.stats.evictions << " vs " << sum.evictions;
  // Sanity: the partition actually split the load.
  EXPECT_EQ(merged.stats.requests, trace_->requests.size());
}

TEST_F(ShardedFixture, ShardedProposalAggregatesStayCoherent) {
  const ShardedCache sharded{*system_};
  const RunResult merged =
      sharded.run(config_for(PolicyKind::lru, AdmissionMode::proposal, 4));
  EXPECT_EQ(merged.stats.requests, trace_->requests.size());
  EXPECT_EQ(merged.stats.hits + merged.stats.insertions +
                merged.stats.rejected + merged.stats.refused,
            merged.stats.requests);
  EXPECT_GT(merged.trainings, 0);
  EXPECT_FALSE(merged.daily.empty());
  // Criteria are global — identical to the unsharded computation.
  const RunResult reference =
      system_->run(config_for(PolicyKind::lru, AdmissionMode::proposal, 1));
  EXPECT_TRUE(merged.criteria == reference.criteria);
  EXPECT_EQ(merged.cost_v, reference.cost_v);
}

TEST(DegradationCountersMerge, SumsEveryField) {
  // Distinct values per field so a merge that drops or cross-wires any
  // single counter is caught; total() must cover the same set.
  DegradationCounters a;
  a.retrain_failures = 1;
  a.rejected_models = 2;
  a.nonfinite_feature_requests = 3;
  a.predict_failures = 5;
  a.retrain_retries = 7;
  a.retrain_timeouts = 11;
  a.degraded_admits = 13;
  a.shed_requests = 17;
  a.overload_transitions = 19;
  a.ssd_write_retries = 23;
  a.ssd_write_drops = 29;
  DegradationCounters b;
  b.retrain_failures = 100;
  b.rejected_models = 200;
  b.nonfinite_feature_requests = 300;
  b.predict_failures = 500;
  b.retrain_retries = 700;
  b.retrain_timeouts = 1'100;
  b.degraded_admits = 1'300;
  b.shed_requests = 1'700;
  b.overload_transitions = 1'900;
  b.ssd_write_retries = 2'300;
  b.ssd_write_drops = 2'900;

  DegradationCounters merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.retrain_failures, 101u);
  EXPECT_EQ(merged.rejected_models, 202u);
  EXPECT_EQ(merged.nonfinite_feature_requests, 303u);
  EXPECT_EQ(merged.predict_failures, 505u);
  EXPECT_EQ(merged.retrain_retries, 707u);
  EXPECT_EQ(merged.retrain_timeouts, 1'111u);
  EXPECT_EQ(merged.degraded_admits, 1'313u);
  EXPECT_EQ(merged.shed_requests, 1'717u);
  EXPECT_EQ(merged.overload_transitions, 1'919u);
  EXPECT_EQ(merged.ssd_write_retries, 2'323u);
  EXPECT_EQ(merged.ssd_write_drops, 2'929u);
  EXPECT_EQ(merged.total(), a.total() + b.total());
}

#if defined(OTAC_FAILPOINTS_ENABLED) && OTAC_FAILPOINTS_ENABLED

TEST_F(ShardedFixture, DegradationSumEquivalentAcrossShardCountsUnderFaults) {
  // Retrain failures are injected at alternating barriers. The retrain
  // schedule is a global property of the trace, so the merged degradation
  // counters — trainer-side failures plus the per-shard serving counters
  // folded by DegradationCounters::merge — must be bit-identical between
  // shards=1 and shards=4.
  const ShardedCache sharded{*system_};
  const RunConfig config1 =
      config_for(PolicyKind::lru, AdmissionMode::proposal, 1);

  fail::Registry::instance().enable_every_nth("trainer.train.fail", 2);
  const RunResult one = sharded.run(config1);
  // Re-arm to reset the evaluation counter for the second run.
  fail::Registry::instance().enable_every_nth("trainer.train.fail", 2);
  const RunResult four =
      sharded.run(config_for(PolicyKind::lru, AdmissionMode::proposal, 4));
  fail::Registry::instance().disable_all();

  const std::size_t triggers =
      retrain_trigger_indices(*trace_, config1.ota).size();
  ASSERT_GE(triggers, 2u);
  EXPECT_EQ(one.degradation.retrain_failures, triggers / 2);
  EXPECT_GT(one.degradation.total(), 0u);
  EXPECT_TRUE(four.degradation == one.degradation)
      << "retrain_failures " << four.degradation.retrain_failures << " vs "
      << one.degradation.retrain_failures << ", total "
      << four.degradation.total() << " vs " << one.degradation.total();
  // The surviving barriers still published models on both runs.
  EXPECT_EQ(four.trainings, one.trainings);
  EXPECT_GT(one.trainings, 0);
}

#endif  // OTAC_FAILPOINTS_ENABLED

}  // namespace
}  // namespace otac
