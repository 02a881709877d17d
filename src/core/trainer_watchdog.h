// Retrain supervision for the sharded replay's barriers: bounded retry
// with exponential backoff for *throwing* retrains, and (in threaded
// mode) a timeout for *hung* retrains so a stuck trainer can never stall
// the shards — they proceed on the last-good CompiledTree generation and
// the trainer catches up at a later barrier.
//
// Two modes, selected by WatchdogConfig::timeout_s:
//
//   Inline (timeout_s == 0, the default): train() runs on the coordinator
//   thread inside the barrier, with only the retry loop wrapped around
//   it. With backoff.max_retries == 0 this is exactly the historical
//   try/catch-once behavior, which is what keeps default-config runs
//   bit-identical to the pre-watchdog code. Backoff delays are
//   *accounted, not slept* — the barrier is already a quiescent point and
//   an immediate retry is deterministic.
//
//   Threaded (timeout_s > 0): a dedicated worker thread runs the retrain
//   (including its retry loop, with real backoff sleeps) while the
//   barrier waits at most timeout_s. On timeout the job is *abandoned*:
//   the barrier returns timed_out, shards continue on the last-good
//   model, and whenever the hung train eventually finishes its result is
//   discarded — a stale tree must never publish mid-epoch, that would be
//   nondeterministic. While the worker is busy, subsequent barriers
//   return `busy` immediately and their drained samples are buffered
//   here, to be ingested the next time the trainer is safely idle.
//
// Threading contract: DailyTrainer is not thread-safe, so the watchdog
// only touches it (ingest or train) when the worker is provably idle;
// busy barriers never reach it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/resilience.h"
#include "core/trainer.h"
#include "ml/decision_tree.h"
#include "util/sim_time.h"

namespace otac {

struct RetrainOutcome {
  enum class Status {
    trained,    ///< train() produced a tree (in `tree`)
    skipped,    ///< train() returned nullopt (too few samples / one class)
    failed,     ///< every attempt threw — counts one retrain_failures
    timed_out,  ///< threaded: job abandoned after timeout_s
    busy,       ///< threaded: worker still on a previous barrier's job
  };

  Status status = Status::skipped;
  std::optional<ml::DecisionTree> tree;  ///< set iff status == trained
  int retries = 0;  ///< extra attempts consumed (adds to retrain_retries)

  [[nodiscard]] bool stalled() const noexcept {
    return status == Status::timed_out || status == Status::busy;
  }
};

class TrainerWatchdog {
 public:
  /// The trainer must outlive the watchdog. config.backoff_seed seeds the
  /// backoff jitter, so retry schedules are reproducible per run.
  TrainerWatchdog(DailyTrainer& trainer, WatchdogConfig config);
  ~TrainerWatchdog();

  TrainerWatchdog(const TrainerWatchdog&) = delete;
  TrainerWatchdog& operator=(const TrainerWatchdog&) = delete;

  /// Barrier-side entry point: hand over this barrier's drained samples
  /// (trace-index-ascending) and run — or submit — the retrain for
  /// (trigger_index, now). Always returns promptly in threaded mode
  /// (bounded by timeout_s); never blocks on a previous hung job.
  [[nodiscard]] RetrainOutcome retrain(std::vector<TrainingSample> drained,
                                       std::uint64_t trigger_index,
                                       SimTime now);

  /// Samples buffered across busy barriers, not yet ingested.
  [[nodiscard]] std::size_t buffered_samples() const;

  [[nodiscard]] bool threaded() const noexcept { return worker_.joinable(); }

 private:
  struct Attempt {
    RetrainOutcome::Status status = RetrainOutcome::Status::skipped;
    std::optional<ml::DecisionTree> tree;
    int retries = 0;
  };

  /// The bounded retry loop around DailyTrainer::train (both modes).
  /// `sleep_delays` selects real backoff sleeps (worker thread) vs pure
  /// accounting (inline at a barrier).
  Attempt run_attempts(std::uint64_t trigger_index, SimTime now,
                       bool sleep_delays);

  void worker_loop();

  DailyTrainer* trainer_;
  WatchdogConfig config_;
  ExponentialBackoff backoff_;

  // Threaded mode state (all guarded by mutex_).
  mutable std::mutex mutex_;
  std::condition_variable cv_job_;
  std::condition_variable cv_done_;
  struct Job {
    std::uint64_t trigger_index = 0;
    SimTime now{};
    std::uint64_t id = 0;
  };
  std::optional<Job> job_;           ///< submitted, not yet taken
  bool busy_ = false;                ///< worker owns the trainer right now
  bool stop_ = false;
  std::uint64_t next_job_id_ = 1;
  std::uint64_t abandoned_before_ = 0;  ///< jobs with id < this: discard
  std::uint64_t done_job_id_ = 0;
  Attempt done_attempt_;
  std::vector<TrainingSample> pending_;  ///< buffered across busy barriers
  std::thread worker_;
};

}  // namespace otac
