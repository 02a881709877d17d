// Trace-driven cache simulation: one pass of a Trace through a replacement
// policy plus an admission policy, producing CacheStats.
#pragma once

#include "cachesim/admission.h"
#include "cachesim/cache_policy.h"
#include "cachesim/cache_stats.h"
#include "obs/metrics.h"
#include "trace/next_access.h"
#include "trace/trace.h"

namespace otac {

class Simulator {
 public:
  explicit Simulator(const Trace& trace) : trace_(&trace) {}

  /// Provide oracle next-access info (required for Belady and
  /// OracleAdmission; harmless otherwise).
  void set_oracle(const NextAccessInfo& oracle) { oracle_ = &oracle; }

  /// Feed each request's hit/miss outcome to a pre-resolved
  /// latency recorder (obs layer). Null (default) records nothing; the
  /// recorder must outlive run().
  void set_latency_recorder(obs::LatencyRecorder* recorder) {
    latency_ = recorder;
  }

  /// Run the whole trace. Policy/admission keep their state afterwards, so
  /// warm-cache continuation runs are possible by calling run() again with
  /// a different trace via another Simulator.
  CacheStats run(CachePolicy& policy, AdmissionPolicy& admission) const;

 private:
  const Trace* trace_;
  const NextAccessInfo* oracle_ = nullptr;
  obs::LatencyRecorder* latency_ = nullptr;
};

}  // namespace otac
