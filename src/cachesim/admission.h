// Cache-admission interface of the trace simulator (cachesim/simulator.h).
//
// On every miss the simulator asks the admission policy whether the object
// should be written to the SSD cache; after each request (hit or miss) it
// lets the policy observe the access, so a stateful admission can keep
// online state. The paper's ML admission does not plug in here: it runs
// inside the serving engine (core/shard_engine.h), which serves the
// Original, Bypass and Ideal modes too.
#pragma once

#include <cstdint>
#include <string>

#include "trace/next_access.h"
#include "trace/types.h"

namespace otac {

class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  /// Decide whether the missed object should enter the cache. `index` is
  /// the request's position in the trace. State visible here must reflect
  /// the trace *before* this request (observe() has not yet run).
  [[nodiscard]] virtual bool admit(std::uint64_t index, const Request& request,
                                   const PhotoMeta& photo) = 0;

  /// Called once per request after the hit/miss outcome is known.
  virtual void observe(std::uint64_t /*index*/, const Request& /*request*/,
                       const PhotoMeta& /*photo*/, bool /*hit*/) {}

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Traditional cache behaviour: every miss is cached ("Original" curves).
class AlwaysAdmit final : public AdmissionPolicy {
 public:
  bool admit(std::uint64_t, const Request&, const PhotoMeta&) override {
    return true;
  }
  [[nodiscard]] std::string name() const override { return "always"; }
};

/// Degenerate read-through (no caching at all); lower-bound sanity check.
class NeverAdmit final : public AdmissionPolicy {
 public:
  bool admit(std::uint64_t, const Request&, const PhotoMeta&) override {
    return false;
  }
  [[nodiscard]] std::string name() const override { return "never"; }
};

/// The paper's "Ideal" classifier: 100% accurate one-time-access detection.
/// Admits exactly the objects whose next reaccess distance is within the
/// criteria threshold M (§4.3) — requires the offline next-access oracle.
class OracleAdmission final : public AdmissionPolicy {
 public:
  OracleAdmission(const NextAccessInfo& oracle, double reaccess_threshold)
      : oracle_(&oracle), threshold_(reaccess_threshold) {}

  bool admit(std::uint64_t index, const Request&, const PhotoMeta&) override {
    const std::uint64_t distance = oracle_->reaccess_distance(index);
    return distance != kNoNextAccess &&
           static_cast<double>(distance) <= threshold_;
  }
  [[nodiscard]] std::string name() const override { return "ideal"; }

 private:
  const NextAccessInfo* oracle_;
  double threshold_;
};

}  // namespace otac
