#include <gtest/gtest.h>

#include "storage/latency_model.h"
#include "storage/wear_model.h"

namespace otac {
namespace {

TEST(LatencyModel, EquationFourFiveSix) {
  const LatencyModel model{LatencyConfig{1.0, 0.4, 3000.0, 100.0}};
  EXPECT_DOUBLE_EQ(model.hit_cost_us(), 101.0);
  EXPECT_DOUBLE_EQ(model.miss_penalty_original_us(), 3001.0);
  EXPECT_DOUBLE_EQ(model.miss_penalty_proposed_us(), 3001.4);
}

TEST(LatencyModel, EquationThree) {
  const LatencyModel model{};
  const double h = 0.5;
  EXPECT_DOUBLE_EQ(model.mean_access_time_original_us(h),
                   0.5 * 101.0 + 0.5 * 3001.0);
  EXPECT_DOUBLE_EQ(model.mean_access_time_proposed_us(h),
                   0.5 * 101.0 + 0.5 * 3001.4);
}

TEST(LatencyModel, HitRateGainDominatesClassifyCost) {
  // The paper's argument: t_classify (0.4 us) is negligible next to a few
  // points of hit rate at a 3 ms miss penalty.
  const LatencyModel model{};
  const double original = model.mean_access_time_original_us(0.50);
  const double proposed = model.mean_access_time_proposed_us(0.55);
  EXPECT_LT(proposed, original);
  const double improvement = (original - proposed) / original;
  EXPECT_GT(improvement, 0.05);
  EXPECT_LT(improvement, 0.15);
}

TEST(LatencyModel, ProposedAtSameHitRateIsBarelySlower) {
  const LatencyModel model{};
  const double h = 0.5;
  const double delta = model.mean_access_time_proposed_us(h) -
                       model.mean_access_time_original_us(h);
  EXPECT_NEAR(delta, 0.2, 1e-9);  // (1-h) * t_classify
}

TEST(WearModel, EnduranceAndLifetime) {
  const SsdWearModel model{
      SsdWearConfig{.capacity_bytes = 1'000'000'000'000ULL,  // 1 TB
                    .pe_cycles = 3000.0,
                    .write_amplification = 1.5}};
  EXPECT_DOUBLE_EQ(model.endurance_bytes(), 2e15);
  // Writing 2 TB/day wears it out in 1000 days.
  EXPECT_DOUBLE_EQ(model.lifetime_days(2e12), 1000.0);
  EXPECT_DOUBLE_EQ(model.wear_fraction(2e12, 500.0), 0.5);
  EXPECT_DOUBLE_EQ(model.lifetime_days(0.0), 0.0);
}

TEST(WearModel, WriteDensity) {
  const SsdWearModel model{SsdWearConfig{.capacity_bytes = 1'000}};
  EXPECT_DOUBLE_EQ(model.write_density(5'000.0), 5.0);  // 5 overwrites/day
}

TEST(WearModel, WriteReductionExtendsLifetimeProportionally) {
  const SsdWearModel model{
      SsdWearConfig{.capacity_bytes = 1'000'000'000'000ULL}};
  const double base = model.lifetime_days(1e12);
  const double reduced = model.lifetime_days(1e12 * 0.21);  // paper: -79%
  EXPECT_NEAR(reduced / base, 1.0 / 0.21, 1e-9);
}

}  // namespace
}  // namespace otac
