// Configuration for the overload-resilience layer: bounded shard queues
// with a Normal → Degraded → Shedding state machine, the retrain watchdog,
// and the storage retry paths. Gathered in one header so RunConfig
// (core/intelligent_cache.h) picks the whole layer up with one include.
//
// Every default below disables the layer: OverloadConfig::enabled = false
// keeps the batched admission path byte-identical to the pre-resilience
// code, and WatchdogConfig::timeout_s = 0 / backoff.max_retries = 0 makes
// the barrier-side trainer call exactly the historical try/catch. The
// determinism goldens (shards=1 bit-identity, report goldens) therefore
// never see this layer unless a test turns it on.
#pragma once

#include <cstdint>

#include "util/backoff.h"

namespace otac {

/// Overload protection for one shard's admission stream. Queue depth is a
/// *fluid model*: requests arrive at their trace sim-times and drain at
/// `service_rate_per_s`, so the depth — and every state transition — is a
/// pure function of (trace, config), preserving run determinism while
/// still exercising real backpressure behavior.
struct OverloadConfig {
  bool enabled = false;

  /// Work units drained per simulated second (one accepted request = one
  /// unit). Must be > 0 when enabled.
  double service_rate_per_s = 2000.0;

  // Hysteresis watermarks on queue depth (work units). Invariant:
  //   degraded_exit < degraded_enter <= shed_exit < shed_enter
  // Entering Degraded switches admissions to the paper's Original
  // (admit-all-cheap) path; entering Shedding drops requests outright.
  double degraded_enter = 64.0;
  double degraded_exit = 32.0;
  double shed_enter = 128.0;
  double shed_exit = 96.0;

  /// Extra work units injected when the `chaos.flash_crowd` failpoint
  /// fires on a request (0 = site compiled to a no-op check only).
  double flash_crowd_burst = 0.0;
};

/// Retrain supervision at barriers. timeout_s == 0 selects the *inline*
/// mode: train on the coordinator thread with only the retry loop added
/// (and with backoff.max_retries == 0 that is byte-identical to the
/// historical try/catch). timeout_s > 0 selects the threaded watchdog: the
/// trainer runs on a worker thread, the barrier waits at most timeout_s,
/// and a hung retrain is abandoned — shards proceed on the last-good model
/// and the trainer result, if it ever lands, is discarded.
struct WatchdogConfig {
  double timeout_s = 0.0;
  /// Delays between re-runs of a *throwing* retrain, and their budget per
  /// barrier (max_retries; jitter seeded below).
  BackoffConfig backoff{.max_retries = 0};
  std::uint64_t backoff_seed = 0;
};

/// Retry/backoff for checkpoint save/load. After the save budget is
/// exhausted the manager enters a terminal *read-only* state: further
/// save() calls are counted and skipped (serving continues, durability is
/// sacrificed) instead of throwing on every barrier.
struct CheckpointRetryConfig {
  BackoffConfig backoff{.max_retries = 0};  ///< delays and retry budget
  std::uint64_t backoff_seed = 0;
  bool read_only_on_exhaustion = true;
};

/// The whole layer, embedded in RunConfig as `resilience`.
struct ResilienceConfig {
  OverloadConfig overload;
  WatchdogConfig watchdog;
  CheckpointRetryConfig checkpoint;
  /// Bounded retries for a transiently failing SSD insert write
  /// (`storage.ssd.write_error` failpoint); only evaluated on the
  /// overload-enabled path.
  int ssd_write_max_retries = 2;
};

}  // namespace otac
