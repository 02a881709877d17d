// Retrain supervision for the serving engine's barriers: bounded retry
// with exponential backoff for *throwing* retrains, a worker thread that
// fits while the shards keep serving (the engine's lagged publish), and,
// with a timeout, abandonment of *hung* retrains so a stuck trainer can
// never stall the shards — they proceed on the last-good CompiledTree
// generation and the trainer catches up at a later barrier.
//
// A retrain is two calls: submit() hands over one barrier's samples as
// the shard samplers' index-ascending runs, collect() returns its
// outcome. Whoever fits also merges the runs (merge_by_index) and ingests
// them, so with a worker the barrier only moves buffers. retrain() is the
// two back to back, for samples already merged. Where the fit runs
// depends on the construction:
//
//   Inline (timeout_s == 0 and no fit_on_worker, the default): submit()
//   only keeps the samples, and collect() merges, ingests and runs
//   train() on the calling thread with only the retry loop wrapped
//   around it. With backoff.max_retries == 0 this is exactly the
//   historical try/catch-once behavior, which is what keeps
//   default-config runs bit-identical to the pre-watchdog code. Backoff
//   delays are *accounted, not slept* — the barrier is already a
//   quiescent point and an immediate retry is deterministic.
//
//   Worker (timeout_s > 0, or fit_on_worker): submit() starts train() on
//   the watchdog's one worker thread and returns at once; collect() waits
//   for it.
//     - Without a timeout the wait is unbounded and delays are accounted,
//       not slept, so the outcome is the inline one, only computed on
//       another thread while the caller does other work.
//     - With timeout_s > 0 collect() waits at most timeout_s and backoff
//       delays are slept. On timeout the job is *abandoned*: collect()
//       returns timed_out, shards continue on the last-good model, and
//       whenever the hung train finishes its result is discarded — a
//       stale tree must never publish mid-epoch, that would be
//       nondeterministic. While the worker is busy, later submits buffer
//       their samples here, to be ingested the next time the trainer is
//       safely idle, and their collect() returns `busy` at once. A train
//       held by the `trainer.train.hang` failpoint stays hung until
//       cancel() (the destructor calls it).
//
// Threading contract: DailyTrainer is not thread-safe, so only the thread
// that fits touches it (ingest and train: the worker, or inline the
// caller); busy submits never reach it, and callers may read the trainer
// only while idle() holds. submit/collect/retrain are for one caller
// thread.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <stop_token>
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
  /// Wall seconds the attempts ran (timed_out: the seconds waited for
  /// them; busy: 0).
  double fit_s = 0.0;

  [[nodiscard]] bool stalled() const noexcept {
    return status == Status::timed_out || status == Status::busy;
  }
};

class TrainerWatchdog {
 public:
  /// The trainer must outlive the watchdog. config.backoff_seed seeds the
  /// backoff jitter, so retry schedules are reproducible per run.
  /// `fit_on_worker` starts the worker even without a timeout.
  TrainerWatchdog(DailyTrainer& trainer, WatchdogConfig config,
                  bool fit_on_worker = false);
  ~TrainerWatchdog();

  TrainerWatchdog(const TrainerWatchdog&) = delete;
  TrainerWatchdog& operator=(const TrainerWatchdog&) = delete;

  /// Hand over a barrier's samples, one index-ascending run per shard,
  /// and start the retrain for (trigger_index, now). Never blocks on a
  /// previous hung job. std::logic_error if the last submit was not
  /// collected.
  void submit(std::vector<std::deque<TrainingSample>> runs,
              std::uint64_t trigger_index, SimTime now);

  /// The outcome of the last submit: inline, the retrain runs here; with
  /// a worker, wait for it (at most timeout_s when > 0). std::logic_error
  /// without a pending submit.
  [[nodiscard]] RetrainOutcome collect();

  /// submit() then collect(), for samples already merged
  /// (trace-index-ascending).
  [[nodiscard]] RetrainOutcome retrain(std::vector<TrainingSample> drained,
                                       std::uint64_t trigger_index,
                                       SimTime now);

  /// Abandon the worker's job, if any, and release a train held by the
  /// hang failpoint. Not between a submit and its collect.
  void cancel();

  /// No submit awaits its collect and the worker holds no job: the
  /// trainer may be read.
  [[nodiscard]] bool idle() const;

  /// Samples buffered across busy barriers, not yet ingested.
  [[nodiscard]] std::size_t buffered_samples() const;

  [[nodiscard]] bool threaded() const noexcept { return worker_.joinable(); }

 private:
  struct Job {
    std::uint64_t trigger_index = 0;
    SimTime now{};
    std::uint64_t id = 0;  ///< 0: nothing started (inline, or busy)
    std::stop_token cancel;
    // The samples, ingested in this order: the `runs` merged by index,
    // then `merged` (retrain()'s input, already in trace order).
    std::vector<TrainingSample> merged;
    std::vector<std::deque<TrainingSample>> runs;
  };

  void submit_job(Job job);
  /// Hand a job's samples to the trainer (the fitting thread only).
  void ingest(Job& job);

  /// The bounded retry loop around DailyTrainer::train (both modes).
  /// `sleep_delays` selects real backoff sleeps (worker with a timeout)
  /// vs pure accounting.
  RetrainOutcome run_attempts(const Job& job, bool sleep_delays);

  void worker_loop();

  DailyTrainer* trainer_;
  WatchdogConfig config_;
  ExponentialBackoff backoff_;
  std::optional<Job> submitted_;  ///< awaiting collect (caller thread only)

  // Worker state (all guarded by mutex_).
  mutable std::mutex mutex_;
  std::condition_variable cv_job_;
  std::condition_variable cv_done_;
  std::optional<Job> job_;           ///< submitted, not yet taken
  bool busy_ = false;                ///< worker owns the trainer right now
  bool stop_ = false;
  std::uint64_t next_job_id_ = 1;
  std::uint64_t abandoned_before_ = 0;  ///< jobs with id < this: discard
  std::uint64_t done_job_id_ = 0;
  RetrainOutcome done_;
  /// Runs buffered across busy barriers. A barrier's samples all precede
  /// the next barrier's in trace order, so these go ahead of the next
  /// job's runs and the one merge in ingest() keeps trace order.
  std::vector<std::deque<TrainingSample>> pending_;
  std::stop_source cancel_;              ///< the running job's
  std::thread worker_;
};

}  // namespace otac
