// Fixture: one guard-scope violation per lock-discipline category, one
// suppressed site proving the allow() pragma works, one unregistered
// mutex, and one guard on it.
#include "core/engine.h"

#include <cstdio>

namespace fixture {

// Unregistered declaration: not in src/core/lock_names.h -> lock-registry.
std::mutex rogue_mutex_;

struct Trainer {
  void fit(int batch);
};

void Engine::hot_path() {
  Trainer* trainer_ = nullptr;
  int batch = 0;
  std::unique_lock<std::mutex> lock(state_mutex_);
  std::fprintf(stderr, "serving\n");  // lock-io under a hot lock
  cv_.wait(lock);                     // lock-wait under a hot lock
  trainer_->fit(batch);               // lock-trainer under a hot lock
}

void Engine::reply() {
  std::lock_guard<std::mutex> outer(queue_mutex_);  // rank 20
  std::lock_guard<std::mutex> inner(sink_mutex_);   // rank 5 -> lock-order
}

void Engine::drain(ServingEngine* serving) {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  serving->advance(0);  // retrain barriers under a queue lock
}

void Engine::audited() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  // otac-analyze: allow(lock-io)  audited: startup banner, not hot
  std::fprintf(stderr, "banner\n");
}

void misc_guard() {
  std::lock_guard<std::mutex> g(rogue_mutex_);  // guard on it -> lock-guard
}

}  // namespace fixture
