#include "core/trainer_watchdog.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace otac {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Index-ascending runs merged into one trace-ordered vector.
std::vector<TrainingSample> merge_runs(
    const std::vector<std::deque<TrainingSample>>& runs) {
  std::vector<const std::deque<TrainingSample>*> heads;
  heads.reserve(runs.size());
  for (const std::deque<TrainingSample>& run : runs) heads.push_back(&run);
  return merge_by_index(heads);
}

}  // namespace

TrainerWatchdog::TrainerWatchdog(DailyTrainer& trainer, WatchdogConfig config,
                                 bool fit_on_worker)
    : trainer_(&trainer),
      config_(config),
      backoff_(config.backoff, config.backoff_seed) {
  if (config_.timeout_s > 0.0 || fit_on_worker) {
    worker_ = std::thread([this] { worker_loop(); });
  }
}

TrainerWatchdog::~TrainerWatchdog() {
  if (!worker_.joinable()) return;
  cancel();  // whatever is in flight is discarded by the id check
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_job_.notify_all();
  worker_.join();
}

RetrainOutcome TrainerWatchdog::run_attempts(const Job& job,
                                             bool sleep_delays) {
  const auto started = std::chrono::steady_clock::now();
  RetrainOutcome attempt;
  backoff_.reset();
  bool done = false;
  while (!done) {  // bounded by backoff_.exhausted() below
    try {
      if (auto tree = trainer_->train(job.trigger_index, job.now, job.cancel)) {
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
  attempt.fit_s = seconds_since(started);
  return attempt;
}

void TrainerWatchdog::submit(std::vector<std::deque<TrainingSample>> runs,
                             std::uint64_t trigger_index, SimTime now) {
  submit_job(Job{trigger_index, now, 0, {}, {}, std::move(runs)});
}

void TrainerWatchdog::ingest(Job& job) {
  // Each copy is released as soon as the next one exists, so the fit
  // itself runs beside the trainer's reservoir alone.
  if (!job.runs.empty()) {
    const std::vector<TrainingSample> merged = merge_runs(job.runs);
    job.runs = {};
    trainer_->ingest(merged);
  }
  trainer_->ingest(job.merged);
  job.merged = {};
}

void TrainerWatchdog::submit_job(Job job) {
  if (submitted_.has_value()) {
    throw std::logic_error("TrainerWatchdog::submit: retrain not collected");
  }
  if (!worker_.joinable()) {
    // Inline mode: the caller owns the trainer outright; collect() fits.
    submitted_ = std::move(job);
    return;
  }

  std::unique_lock lock(mutex_);
  if (busy_) {
    // An abandoned job still owns the trainer: buffer this barrier's
    // runs and proceed on the last-good model.
    std::move(job.runs.begin(), job.runs.end(), std::back_inserter(pending_));
    if (!job.merged.empty()) {
      pending_.emplace_back(job.merged.begin(), job.merged.end());
    }
    submitted_ = Job{job.trigger_index, job.now, 0, {}, {}, {}};
    return;
  }

  // Worker idle: the runs buffered while it was busy go ahead of this
  // barrier's samples, and the worker ingests both before it fits.
  job.runs.insert(job.runs.begin(), std::make_move_iterator(pending_.begin()),
                  std::make_move_iterator(pending_.end()));
  pending_.clear();
  // Only a supervisor with a timeout can tell a hang from a slow fit, so
  // only its jobs carry a cancellable token.
  cancel_ = std::stop_source{};
  job.id = next_job_id_++;
  if (config_.timeout_s > 0.0) job.cancel = cancel_.get_token();
  submitted_ = Job{job.trigger_index, job.now, job.id, {}, {}, {}};
  job_ = std::move(job);
  busy_ = true;
  lock.unlock();
  cv_job_.notify_one();
}

RetrainOutcome TrainerWatchdog::collect() {
  if (!submitted_.has_value()) {
    throw std::logic_error("TrainerWatchdog::collect: nothing submitted");
  }
  Job job = std::move(*submitted_);
  submitted_.reset();
  if (!worker_.joinable()) {
    ingest(job);
    return run_attempts(job, /*sleep_delays=*/false);
  }

  RetrainOutcome outcome;
  std::unique_lock lock(mutex_);
  if (job.id == 0) {
    outcome.status = RetrainOutcome::Status::busy;
    return outcome;
  }
  const auto waited_from = std::chrono::steady_clock::now();
  const auto landed = [&] {
    return done_job_id_ == job.id || job.id < abandoned_before_;
  };
  bool in_time = true;
  if (config_.timeout_s > 0.0) {
    in_time = cv_done_.wait_until(
        lock,
        waited_from +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(config_.timeout_s)),
        landed);
  } else {
    cv_done_.wait(lock, landed);
  }
  if (in_time && done_job_id_ == job.id) return std::move(done_);

  // Timed out (or cancelled): abandon the job. The worker's finish path
  // sees the id below abandoned_before_ and discards the result.
  abandoned_before_ = std::max(abandoned_before_, job.id + 1);
  outcome.status = RetrainOutcome::Status::timed_out;
  outcome.fit_s = seconds_since(waited_from);
  return outcome;
}

RetrainOutcome TrainerWatchdog::retrain(std::vector<TrainingSample> drained,
                                        std::uint64_t trigger_index,
                                        SimTime now) {
  submit_job(Job{trigger_index, now, 0, {}, std::move(drained), {}});
  return collect();
}

void TrainerWatchdog::cancel() {
  const std::lock_guard lock(mutex_);
  abandoned_before_ = next_job_id_;
  cancel_.request_stop();
}

bool TrainerWatchdog::idle() const {
  const std::lock_guard lock(mutex_);
  return !submitted_.has_value() && !busy_;
}

std::size_t TrainerWatchdog::buffered_samples() const {
  const std::lock_guard lock(mutex_);
  std::size_t samples = 0;
  for (const std::deque<TrainingSample>& run : pending_) samples += run.size();
  return samples;
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
      Job job = std::move(*job_);
      job_.reset();
      lock.unlock();
      ingest(job);
      RetrainOutcome attempt =
          run_attempts(job, /*sleep_delays=*/config_.timeout_s > 0.0);
      lock.lock();
      busy_ = false;
      if (job.id >= abandoned_before_) {
        done_job_id_ = job.id;
        done_ = std::move(attempt);
      }
      // Abandoned: result dropped on the floor — a stale tree publishing
      // mid-epoch would be nondeterministic, and the barrier already
      // accounted the timeout. Either way a cancelled collect may be
      // waiting.
      cv_done_.notify_all();
    }
  }
}

}  // namespace otac
