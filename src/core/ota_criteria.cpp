#include "core/ota_criteria.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace otac {

double one_time_fraction(const NextAccessInfo& oracle,
                         std::uint64_t num_requests, double m,
                         ThreadPool& pool) {
  if (num_requests == 0) return 0.0;
  // Integer per-block partials: the count is exact for any pool size.
  constexpr std::size_t kBlock = std::size_t{1} << 16;
  std::vector<std::uint64_t> partial((num_requests + kBlock - 1) / kBlock, 0);
  pool.parallel_for_blocks(
      num_requests, kBlock, [&](std::size_t begin, std::size_t end) {
        std::uint64_t one_time = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint64_t distance = oracle.reaccess_distance(i);
          if (distance == kNoNextAccess ||
              static_cast<double>(distance) > m) {
            ++one_time;
          }
        }
        partial[begin / kBlock] = one_time;
      });
  const std::uint64_t one_time =
      std::accumulate(partial.begin(), partial.end(), std::uint64_t{0});
  return static_cast<double>(one_time) / static_cast<double>(num_requests);
}

CriteriaResult compute_criteria(const Trace& trace,
                                const NextAccessInfo& oracle,
                                std::uint64_t capacity_bytes,
                                double hit_rate_estimate, int iterations) {
  if (capacity_bytes == 0) {
    throw std::invalid_argument("compute_criteria: zero capacity");
  }
  CriteriaResult result;
  result.h = std::clamp(hit_rate_estimate, 0.0, 0.999);
  result.mean_size = trace.catalog.mean_photo_size();
  if (result.mean_size <= 0.0) {
    throw std::invalid_argument("compute_criteria: empty catalog");
  }

  const double base =
      static_cast<double>(capacity_bytes) / (result.mean_size * (1.0 - result.h));
  result.p = 0.0;
  ThreadPool pool;
  for (int round = 0; round < iterations; ++round) {
    result.m = base / std::max(1e-9, 1.0 - result.p);
    result.p =
        one_time_fraction(oracle, trace.requests.size(), result.m, pool);
  }
  result.m = base / std::max(1e-9, 1.0 - result.p);
  return result;
}

double lirs_criteria(double m, double lir_fraction) {
  return m * lir_fraction;
}

}  // namespace otac
