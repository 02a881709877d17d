// Bit-for-bit pins of the criteria set-up on bench_workload_config(0.25, 7).
// The doubles were recorded from the serial Simulator + AlwaysAdmit LRU
// estimate and the serial one-time count; the chunk-parallel estimate and
// the parallel count must reproduce them exactly.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/intelligent_cache.h"
#include "core/ota_criteria.h"
#include "experiments/workloads.h"
#include "trace/trace_generator.h"

namespace otac {
namespace {

class CriteriaPins : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new Trace{TraceGenerator{bench_workload_config(0.25, 7)}.generate()};
    system_ = new IntelligentCache{*trace_};
  }
  static void TearDownTestSuite() {
    delete system_;
    delete trace_;
    system_ = nullptr;
    trace_ = nullptr;
  }

  static std::uint64_t capacity(double fraction) {
    return static_cast<std::uint64_t>(fraction *
                                      system_->total_object_bytes());
  }

  static Trace* trace_;
  static IntelligentCache* system_;
};

Trace* CriteriaPins::trace_ = nullptr;
IntelligentCache* CriteriaPins::system_ = nullptr;

TEST_F(CriteriaPins, LruHitRateEstimate) {
  ASSERT_EQ(trace_->requests.size(), 395498u);
  struct Pin {
    double fraction;
    std::uint64_t capacity;
    std::uint64_t h_bits;
  };
  const Pin pins[] = {
      {0.005, 19619854, 0x3fe08559e2210b92},   // 0x1.08559e2210b92p-1
      {0.02, 78479416, 0x3fe2cf13af16dfaf},    // 0x1.2cf13af16dfafp-1
      {0.08, 313917664, 0x3fe4a3bb69e5abc8},   // 0x1.4a3bb69e5abc8p-1
  };
  for (const Pin& pin : pins) {
    ASSERT_EQ(capacity(pin.fraction), pin.capacity);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  system_->estimate_hit_rate(pin.capacity)),
              pin.h_bits)
        << pin.fraction << " of the footprint";
  }
}

TEST_F(CriteriaPins, CriteriaAtTwoPercent) {
  const std::uint64_t cap = capacity(0.02);
  const CriteriaResult r = compute_criteria(
      *trace_, system_->oracle(), cap, system_->estimate_hit_rate(cap));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.m), 0x40bf13ee21203a52u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.p), 0x3fd8f89160050338u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.h), 0x3fe2cf13af16dfafu);
}

}  // namespace
}  // namespace otac
