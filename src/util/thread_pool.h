// Minimal fixed-size thread pool with a parallel_for helper.
//
// Experiment sweeps (many independent cache simulations) are embarrassingly
// parallel; the pool lets them saturate whatever cores exist while staying
// deterministic: work items receive their index, and anything random forks a
// per-index RNG stream, so results are independent of scheduling order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace otac {

class ThreadPool {
 public:
  /// threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Enqueue a task; tasks must not throw (they run under noexcept workers —
  /// an escaping exception terminates, matching gsl "fail fast" guidance).
  void submit(std::function<void()> task);

  /// Block until all submitted tasks have completed.
  void wait_idle();

  /// Run body(i) for i in [0, n), distributing across the pool and blocking
  /// until done. Exceptions in body are rethrown in the caller (first one).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Run body(begin, end) over [0, n) cut into consecutive blocks of
  /// `block` indices (the last one may be shorter), as parallel_for does.
  /// The cut depends only on n and block, never on the thread count, so
  /// per-block results indexed by begin / block are pool-size independent.
  void parallel_for_blocks(
      std::size_t n, std::size_t block,
      const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

}  // namespace otac
