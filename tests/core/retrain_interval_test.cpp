#include <gtest/gtest.h>

#include "core/intelligent_cache.h"
#include "trace/trace_generator.h"

namespace otac {
namespace {

Trace small_trace() {
  WorkloadConfig config;
  config.num_owners = 800;
  config.num_photos = 20'000;
  return TraceGenerator{config}.generate();
}

RunResult run_with_interval(const IntelligentCache& system,
                            double interval_hours) {
  RunConfig config;
  config.policy = PolicyKind::lru;
  config.capacity_bytes = 30'000'000;
  config.mode = AdmissionMode::proposal;
  config.ota.retrain_interval_hours = interval_hours;
  return system.run(config);
}

TEST(RetrainInterval, IntervalModeTrainsMoreOften) {
  const Trace trace = small_trace();
  const IntelligentCache system{trace};
  const int daily = run_with_interval(system, 0.0).trainings;
  const int six_hourly = run_with_interval(system, 6.0).trainings;
  EXPECT_GE(daily, 8);              // 9-day trace
  EXPECT_GT(six_hourly, 2 * daily); // ~4x more frequent
}

TEST(RetrainInterval, FrequentRetrainingDoesNotHurtAccuracy) {
  const Trace trace = small_trace();
  const IntelligentCache system{trace};

  const auto mean_accuracy = [&](double interval_hours) {
    double total = 0.0;
    std::size_t days = 0;
    for (const auto& day : run_with_interval(system, interval_hours).daily) {
      if (day.day == 0) continue;
      total += day.raw.accuracy();
      ++days;
    }
    return days ? total / static_cast<double>(days) : 0.0;
  };

  const double daily = mean_accuracy(0.0);
  const double frequent = mean_accuracy(6.0);
  EXPECT_GT(frequent, daily - 0.05);
}

}  // namespace
}  // namespace otac
