// Bounded per-shard admission queue with an explicit degradation state
// machine (Normal → Degraded → Shedding, hysteresis on queue depth).
//
// The queue is a deterministic fluid model, not a real buffer: work
// arrives at trace sim-times (one unit per accepted request, plus scripted
// flash-crowd bursts) and drains continuously at the configured service
// rate. Depth is therefore a pure function of (trace, config) — the same
// run always walks the same state sequence — while still reproducing the
// shape of real overload: bursts outpace the drain, depth crosses the
// high watermark, the shard degrades, and hysteresis keeps it from
// flapping on the way back down.
//
// State semantics (enforced by the caller, core/shard_engine.cpp):
//   Normal   — full ML admission path (batched CART classify).
//   Degraded — the paper's Original policy: admit everything cheap,
//              skip feature extraction/classification entirely.
//   Shedding — the request is dropped (counted as rejected +
//              DegradationCounters::shed_requests); it does not enter the
//              queue, which is what lets the drain win and the shard
//              recover.
#pragma once

#include <cstdint>

#include "core/resilience.h"

namespace otac {

enum class OverloadState : std::uint8_t { normal, degraded, shedding };

/// Short stable label for logs/tests ("normal", "degraded", "shedding").
[[nodiscard]] const char* to_string(OverloadState state) noexcept;

class ShardQueue {
 public:
  explicit ShardQueue(const OverloadConfig& config) noexcept;

  /// Account one request arriving at `time_s` (simulated seconds,
  /// non-decreasing per shard): drain the elapsed interval, tentatively
  /// enqueue the request, and step the state machine. Returns the state
  /// the caller must serve this request under; when it returns
  /// `shedding` the request was NOT enqueued (shed work costs nothing).
  OverloadState on_request(double time_s) noexcept;

  /// Inject extra work units at the current time (flash-crowd burst from
  /// the `chaos.flash_crowd` failpoint). State is re-evaluated so the
  /// *next* request sees the overload.
  void inject(double work_units) noexcept;

  [[nodiscard]] OverloadState state() const noexcept { return state_; }
  [[nodiscard]] double depth() const noexcept { return depth_; }
  /// State-machine transitions so far (any direction).
  [[nodiscard]] std::uint64_t transitions() const noexcept {
    return transitions_;
  }
  /// Requests returned as `shedding` by on_request().
  [[nodiscard]] std::uint64_t shed() const noexcept { return shed_; }

 private:
  void drain_until(double time_s) noexcept;
  /// Step the hysteresis state machine to a fixed point for the current
  /// depth (a burst can cross two watermarks at once, which counts as two
  /// transitions: Normal → Degraded → Shedding).
  void settle() noexcept;
  [[nodiscard]] OverloadState step(OverloadState from) const noexcept;

  OverloadConfig config_;
  OverloadState state_ = OverloadState::normal;
  double depth_ = 0.0;
  double last_time_s_ = 0.0;
  bool started_ = false;
  std::uint64_t transitions_ = 0;
  std::uint64_t shed_ = 0;
};

}  // namespace otac
