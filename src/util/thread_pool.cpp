#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace otac {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? hw : 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_available_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      const std::lock_guard lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) idle_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  // Block-cyclic work stealing: lanes claim chunks of indices rather than
  // single ones, so cheap bodies (per-request feature hashing and the like)
  // don't pay one contended fetch_add per index. The chunk shrinks with n
  // so small sweeps (a capacity sweep is ~10 simulations) still spread over
  // every lane instead of serializing behind one big grab.
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const std::size_t lanes = std::min(n, thread_count());
  const std::size_t chunk =
      std::clamp<std::size_t>(n / (lanes * 8), 1, 64);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    submit([&] {
      for (std::size_t base = next.fetch_add(chunk); base < n;
           base = next.fetch_add(chunk)) {
        const std::size_t end = std::min(base + chunk, n);
        for (std::size_t i = base; i < end; ++i) {
          try {
            body(i);
          } catch (...) {
            const std::lock_guard lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
        }
      }
    });
  }
  wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_for_blocks(
    std::size_t n, std::size_t block,
    const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t blocks = (n + block - 1) / block;
  parallel_for(blocks, [&](std::size_t b) {
    const std::size_t begin = b * block;
    body(begin, std::min(begin + block, n));
  });
}

}  // namespace otac
