// Oracle next-access information, computed by one backward pass.
//
// Used by (a) the Belady offline-optimal policy, (b) the "Ideal" classifier
// (100%-accurate admission), and (c) the trainer's ground-truth labeling of
// one-time-access samples via reaccess distance (§4.3).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "trace/trace.h"

namespace otac {

inline constexpr std::uint64_t kNoNextAccess =
    std::numeric_limits<std::uint64_t>::max();

struct NextAccessInfo {
  /// next[i] = index of the next request touching the same photo, or
  /// kNoNextAccess when request i is the photo's final appearance.
  std::vector<std::uint64_t> next;

  /// Byte footprint of the distinct requested photos; equals
  /// compute_trace_stats(trace).total_object_bytes bit for bit.
  double total_object_bytes = 0.0;

  /// Reaccess distance (number of successive accesses until the photo is
  /// touched again, §4.3); kNoNextAccess when never reaccessed.
  [[nodiscard]] std::uint64_t reaccess_distance(std::uint64_t i) const noexcept {
    return next[i] == kNoNextAccess ? kNoNextAccess : next[i] - i;
  }
};

/// O(n) time, O(#photos) auxiliary space.
[[nodiscard]] NextAccessInfo compute_next_access(const Trace& trace);

}  // namespace otac
