// Fixture: the "core" side of a layering cycle (this header includes
// util/clock.h legally; util/clock.h includes this header back), plus
// one unresolvable include.
#pragma once

#include "util/clock.h"
#include "missing/gone.h"

#include <condition_variable>
#include <mutex>

namespace fixture {

struct ServingEngine {
  void advance(unsigned long index);
};

class Engine {
 public:
  void hot_path();
  void reply();
  void audited();
  void drain(ServingEngine* serving);

 private:
  std::mutex state_mutex_;
  std::mutex queue_mutex_;
  std::mutex sink_mutex_;
  std::condition_variable cv_;
};

}  // namespace fixture
