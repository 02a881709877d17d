#include "core/trainer_watchdog.h"

#include <chrono>
#include <exception>
#include <utility>

namespace otac {

TrainerWatchdog::TrainerWatchdog(DailyTrainer& trainer, WatchdogConfig config)
    : trainer_(&trainer),
      config_(config),
      backoff_(config.backoff, config.backoff_seed) {
  if (config_.timeout_s > 0.0) {
    worker_ = std::thread([this] { worker_loop(); });
  }
}

TrainerWatchdog::~TrainerWatchdog() {
  if (!worker_.joinable()) return;
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;
    // Whatever is in flight will be discarded by the id check on finish.
    abandoned_before_ = next_job_id_;
  }
  cv_job_.notify_all();
  worker_.join();
}

TrainerWatchdog::Attempt TrainerWatchdog::run_attempts(
    std::uint64_t trigger_index, SimTime now, bool sleep_delays) {
  Attempt attempt;
  backoff_.reset();
  bool done = false;
  while (!done) {  // bounded by backoff_.exhausted() below
    try {
      if (auto tree = trainer_->train(trigger_index, now)) {
        attempt.status = RetrainOutcome::Status::trained;
        attempt.tree = std::move(tree);
      } else {
        attempt.status = RetrainOutcome::Status::skipped;
      }
      done = true;
    } catch (const std::exception&) {
      if (backoff_.exhausted()) {
        attempt.status = RetrainOutcome::Status::failed;
        done = true;
      } else {
        // Retry after the scheduled delay. train() throws before mutating
        // trainer state (its failpoint sits at entry; a real fit failure
        // happens after window pruning, which is idempotent for the same
        // `now`), so re-running is safe.
        const double delay_s = backoff_.next_delay_s();
        ++attempt.retries;
        if (sleep_delays) {
          std::this_thread::sleep_for(std::chrono::duration<double>(delay_s));
        }
      }
    }
  }
  return attempt;
}

RetrainOutcome TrainerWatchdog::retrain(std::vector<TrainingSample> drained,
                                        std::uint64_t trigger_index,
                                        SimTime now) {
  RetrainOutcome outcome;

  if (!worker_.joinable()) {
    // Inline mode: the coordinator owns the trainer outright.
    trainer_->ingest(drained);
    Attempt attempt = run_attempts(trigger_index, now, /*sleep_delays=*/false);
    outcome.status = attempt.status;
    outcome.tree = std::move(attempt.tree);
    outcome.retries = attempt.retries;
    return outcome;
  }

  std::unique_lock lock(mutex_);
  if (busy_) {
    // A previous barrier's job still owns the trainer: buffer this
    // barrier's samples (trace order is preserved — barriers hand over
    // index-ascending slices in order) and proceed on the last-good model.
    pending_.insert(pending_.end(), drained.begin(), drained.end());
    outcome.status = RetrainOutcome::Status::busy;
    return outcome;
  }

  // Worker idle: the coordinator may touch the trainer. Flush everything
  // buffered while it was busy, then this barrier's batch.
  if (!pending_.empty()) {
    trainer_->ingest(pending_);
    pending_.clear();
  }
  trainer_->ingest(drained);

  const std::uint64_t id = next_job_id_++;
  job_ = Job{trigger_index, now, id};
  busy_ = true;
  lock.unlock();
  cv_job_.notify_one();
  lock.lock();

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(config_.timeout_s));
  if (cv_done_.wait_until(lock, deadline,
                          [&] { return done_job_id_ == id; })) {
    outcome.status = done_attempt_.status;
    outcome.tree = std::move(done_attempt_.tree);
    outcome.retries = done_attempt_.retries;
    return outcome;
  }

  // Timed out: abandon the job. The worker's finish path sees the id below
  // abandoned_before_ and discards the result without publishing.
  abandoned_before_ = id + 1;
  outcome.status = RetrainOutcome::Status::timed_out;
  return outcome;
}

std::size_t TrainerWatchdog::buffered_samples() const {
  const std::lock_guard lock(mutex_);
  return pending_.size();
}

void TrainerWatchdog::worker_loop() {
  std::unique_lock lock(mutex_);
  bool running = true;
  while (running) {  // exits when stop_ observed below
    cv_job_.wait(lock, [&] { return stop_ || job_.has_value(); });
    if (stop_) {
      // Shutdown: drop any not-yet-started job instead of running it — the
      // destructor already marked everything in flight as abandoned.
      job_.reset();
      busy_ = false;
      running = false;
    } else if (job_.has_value()) {
      const Job job = *job_;
      job_.reset();
      lock.unlock();
      Attempt attempt = run_attempts(job.trigger_index, job.now,
                                     /*sleep_delays=*/true);
      lock.lock();
      busy_ = false;
      if (job.id >= abandoned_before_) {
        done_job_id_ = job.id;
        done_attempt_ = std::move(attempt);
        cv_done_.notify_all();
      }
      // Abandoned: result dropped on the floor — a stale tree publishing
      // mid-epoch would be nondeterministic, and the barrier already
      // accounted the timeout.
    }
  }
}

}  // namespace otac
