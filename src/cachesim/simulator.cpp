#include "cachesim/simulator.h"

#include <algorithm>
#include <stdexcept>

namespace otac {

void Simulator::set_warmup_fraction(double fraction) {
  if (fraction < 0.0 || fraction >= 1.0) {
    throw std::invalid_argument("Simulator: warmup fraction must be in [0,1)");
  }
  warmup_fraction_ = fraction;
}

CacheStats Simulator::run(CachePolicy& policy,
                          AdmissionPolicy& admission) const {
  CacheStats stats;
  bool measuring = warmup_fraction_ == 0.0;
  policy.set_eviction_callback([&stats, &measuring](PhotoId key,
                                                    std::uint32_t size) {
    if (!measuring) return;
    stats.note_eviction(key, size);
  });
  const Trace& trace = *trace_;
  const auto warmup_end = static_cast<std::uint64_t>(
      warmup_fraction_ * static_cast<double>(trace.requests.size()));
  std::int64_t current_day =
      trace.requests.empty() ? 0 : day_index(trace.requests.front().time);
  if (on_new_day_ && !trace.requests.empty()) {
    on_new_day_(current_day, 0);
  }

  for (std::uint64_t i = 0; i < trace.requests.size(); ++i) {
    const Request& request = trace.requests[i];
    const PhotoMeta& photo = trace.catalog.photo(request.photo);

    if (on_new_day_) {
      const std::int64_t day = day_index(request.time);
      if (day != current_day) {
        current_day = day;
        on_new_day_(day, i);
      }
    }

    if (oracle_ != nullptr) {
      policy.set_next_access_hint(oracle_->next[i]);
    }

    if (!measuring && i >= warmup_end) measuring = true;

    const bool hit = policy.access(request.photo, photo.size_bytes);
    if (measuring) {
      stats.requests += 1;
      stats.request_bytes += photo.size_bytes;
      if constexpr (obs::kEnabled) {
        if (latency_ != nullptr) latency_->record(hit);
      }
    }
    if (hit) {
      if (measuring) {
        stats.hits += 1;
        stats.hit_bytes += photo.size_bytes;
      }
    } else if (admission.admit(i, request, photo)) {
      if (policy.insert(request.photo, photo.size_bytes)) {
        if (measuring) {
          stats.insertions += 1;
          stats.inserted_bytes += photo.size_bytes;
        }
      } else if (measuring) {
        stats.refused += 1;  // the object is larger than the cache
      }
    } else if (measuring) {
      stats.rejected += 1;
      stats.rejected_bytes += photo.size_bytes;
    }
    admission.observe(i, request, photo, hit);
  }
  return stats;
}

}  // namespace otac
