// Differential testing: the optimized LRU/FIFO/LFU implementations must
// agree, hit-for-hit, with trivially-correct O(n) reference models under
// randomized workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <ostream>
#include <vector>

#include "cachesim/fifo.h"
#include "cachesim/lfu.h"
#include "cachesim/lru.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace otac {
namespace {

struct RefEntry {
  PhotoId key;
  std::uint32_t size;
  std::uint64_t freq = 1;
  std::uint64_t last_used = 0;
  std::uint64_t inserted = 0;
};

/// O(n) reference cache with pluggable victim selection.
class ReferenceCache {
 public:
  enum class Kind { lru, fifo, lfu };

  ReferenceCache(Kind kind, std::uint64_t capacity)
      : kind_(kind), capacity_(capacity) {}

  bool access(PhotoId key, std::uint64_t tick) {
    for (RefEntry& entry : entries_) {
      if (entry.key == key) {
        entry.freq += 1;
        entry.last_used = tick;
        return true;
      }
    }
    return false;
  }

  void insert(PhotoId key, std::uint32_t size, std::uint64_t tick) {
    if (size > capacity_) return;
    while (used_ + size > capacity_) {
      const auto victim = select_victim();
      used_ -= victim->size;
      entries_.erase(victim);
    }
    entries_.push_back(RefEntry{key, size, 1, tick, tick});
    used_ += size;
  }

 private:
  std::vector<RefEntry>::iterator select_victim() {
    switch (kind_) {
      case Kind::lru:
        return std::min_element(entries_.begin(), entries_.end(),
                                [](const RefEntry& a, const RefEntry& b) {
                                  return a.last_used < b.last_used;
                                });
      case Kind::fifo:
        return std::min_element(entries_.begin(), entries_.end(),
                                [](const RefEntry& a, const RefEntry& b) {
                                  return a.inserted < b.inserted;
                                });
      case Kind::lfu:
        // Lowest frequency; tie broken by least-recently-used, matching
        // LfuCache's in-bucket LRU order.
        return std::min_element(entries_.begin(), entries_.end(),
                                [](const RefEntry& a, const RefEntry& b) {
                                  if (a.freq != b.freq) return a.freq < b.freq;
                                  return a.last_used < b.last_used;
                                });
    }
    return entries_.begin();
  }

  Kind kind_;
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::vector<RefEntry> entries_;
};

struct DifferentialCase {
  const char* label;
  ReferenceCache::Kind kind;
  bool unit_sizes;
};

// Prints a case as its label. gtest's default byte dump would put the label
// pointer's address, which changes from run to run, into every ctest name.
void PrintTo(const DifferentialCase& c, std::ostream* os) { *os << c.label; }

class Differential : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(Differential, AgreesWithReferenceModel) {
  const DifferentialCase& param = GetParam();
  constexpr std::uint64_t kCapacity = 5'000;
  std::unique_ptr<CachePolicy> fast;
  switch (param.kind) {
    case ReferenceCache::Kind::lru:
      fast = std::make_unique<LruCache>(kCapacity);
      break;
    case ReferenceCache::Kind::fifo:
      fast = std::make_unique<FifoCache>(kCapacity);
      break;
    case ReferenceCache::Kind::lfu:
      fast = std::make_unique<LfuCache>(kCapacity);
      break;
  }
  ReferenceCache reference{param.kind, kCapacity};

  Rng rng{99};
  const ZipfSampler zipf{300, 0.8};
  std::vector<std::uint32_t> size_of(301);
  for (auto& s : size_of) {
    s = param.unit_sizes ? 1
                         : static_cast<std::uint32_t>(rng.uniform_int(50, 900));
  }

  for (std::uint64_t tick = 0; tick < 20'000; ++tick) {
    const auto key = static_cast<PhotoId>(zipf.sample(rng));
    const std::uint32_t size = size_of[key];
    const bool fast_hit = fast->access(key, size);
    const bool ref_hit = reference.access(key, tick);
    ASSERT_EQ(fast_hit, ref_hit) << param.label << " diverged at " << tick;
    if (!fast_hit) {
      fast->insert(key, size);
      reference.insert(key, size, tick);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, Differential,
    ::testing::Values(
        DifferentialCase{"lru_unit", ReferenceCache::Kind::lru, true},
        DifferentialCase{"lru_sized", ReferenceCache::Kind::lru, false},
        DifferentialCase{"fifo_unit", ReferenceCache::Kind::fifo, true},
        DifferentialCase{"fifo_sized", ReferenceCache::Kind::fifo, false},
        DifferentialCase{"lfu_unit", ReferenceCache::Kind::lfu, true},
        DifferentialCase{"lfu_sized", ReferenceCache::Kind::lfu, false}),
    [](const ::testing::TestParamInfo<DifferentialCase>& info) {
      return std::string{info.param.label};
    });

}  // namespace
}  // namespace otac
