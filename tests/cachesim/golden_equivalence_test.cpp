// Golden-equivalence pin for the slab-backed policy rewrite.
//
// The expectations below were captured from the seed implementations
// (std::list + std::unordered_map, commit 34e37c1) on a fixed 100k-request
// Zipf trace: hit/insert/reject counts, final occupancy, and an FNV-1a hash
// over the exact eviction sequence (key, size per victim). The slab
// policies must reproduce every byte of that behavior — any divergence in
// recency handling, eviction order, or ghost bookkeeping trips the hash
// even when aggregate hit rates happen to agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <vector>

#include "cachesim/cache_policy.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace otac {
namespace {

struct Op {
  PhotoId key;
  std::uint32_t size;
};

std::vector<Op> make_trace(std::size_t n, std::uint64_t seed,
                           std::uint64_t photos, double alpha) {
  Rng rng{seed};
  const ZipfSampler zipf{photos, alpha};
  std::vector<Op> ops(n);
  for (auto& op : ops) {
    op.key = static_cast<PhotoId>(zipf.sample(rng));
    op.size = static_cast<std::uint32_t>(rng.uniform_int(4'000, 200'000));
  }
  return ops;
}

struct Golden {
  const char* name;
  PolicyKind kind;
  std::uint64_t hits;
  std::uint64_t insertions;
  std::uint64_t rejected;
  std::uint64_t evictions;
  std::uint64_t used_bytes;
  std::size_t object_count;
  std::uint64_t evict_hash;
};

// Prints a case as its name. gtest's default byte dump would put the name
// pointer's address, which changes from run to run, into every ctest name.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.name; }

// Captured from the seed list/unordered_map implementations.
constexpr Golden kGolden[] = {
    {"LRU", PolicyKind::lru, 29144, 70856, 0, 70207, 67013684, 649,
     0x1d673cee41f95de0ULL},
    {"FIFO", PolicyKind::fifo, 25762, 74238, 0, 73588, 67017174, 650,
     0x4da99f98ffa1df66ULL},
    {"S3LRU", PolicyKind::s3lru, 36917, 63083, 0, 62421, 66925135, 662,
     0xe8e4d6ad45459795ULL},
    {"ARC", PolicyKind::arc, 38787, 61213, 0, 60548, 66982656, 665,
     0x44335a233b1fcf35ULL},
    {"LIRS", PolicyKind::lirs, 37061, 62939, 0, 62103, 66939103, 836,
     0x51539a9ecb9cea96ULL},
};

class GoldenEquivalence : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenEquivalence, MatchesSeedImplementationByteForByte) {
  const Golden& golden = GetParam();
  const auto ops = make_trace(100'000, 7, 20'000, 0.8);
  const auto policy = make_policy(golden.kind, 64ULL * 1024 * 1024);

  std::uint64_t evict_hash = kFnvOffset;
  std::uint64_t evictions = 0;
  policy->set_eviction_callback([&](PhotoId key, std::uint32_t size) {
    fnv64(evict_hash, key);
    fnv64(evict_hash, size);
    ++evictions;
  });

  std::uint64_t hits = 0;
  std::uint64_t insertions = 0;
  std::uint64_t rejected = 0;
  for (const Op& op : ops) {
    if (policy->access(op.key, op.size)) {
      ++hits;
    } else if (policy->insert(op.key, op.size)) {
      ++insertions;
    } else {
      ++rejected;
    }
  }

  EXPECT_EQ(hits, golden.hits);
  EXPECT_EQ(insertions, golden.insertions);
  EXPECT_EQ(rejected, golden.rejected);
  EXPECT_EQ(evictions, golden.evictions);
  EXPECT_EQ(policy->used_bytes(), golden.used_bytes);
  EXPECT_EQ(policy->object_count(), golden.object_count);
  EXPECT_EQ(evict_hash, golden.evict_hash)
      << "eviction sequence diverged from the seed implementation";
}

INSTANTIATE_TEST_SUITE_P(SlabPolicies, GoldenEquivalence,
                         ::testing::ValuesIn(kGolden),
                         [](const auto& info) {
                           return std::string{info.param.name};
                         });

}  // namespace
}  // namespace otac
