#include "cachesim/simulator.h"

namespace otac {

CacheStats Simulator::run(CachePolicy& policy,
                          AdmissionPolicy& admission) const {
  CacheStats stats;
  policy.set_eviction_callback([&stats](PhotoId key, std::uint32_t size) {
    stats.note_eviction(key, size);
  });
  const Trace& trace = *trace_;
  for (std::uint64_t i = 0; i < trace.requests.size(); ++i) {
    const Request& request = trace.requests[i];
    const PhotoMeta& photo = trace.catalog.photo(request.photo);
    if (oracle_ != nullptr) {
      policy.set_next_access_hint(oracle_->next[i]);
    }

    const bool hit = policy.access(request.photo, photo.size_bytes);
    stats.requests += 1;
    stats.request_bytes += photo.size_bytes;
    if constexpr (obs::kEnabled) {
      if (latency_ != nullptr) latency_->record(hit);
    }
    if (hit) {
      stats.hits += 1;
      stats.hit_bytes += photo.size_bytes;
    } else if (admission.admit(i, request, photo)) {
      if (policy.insert(request.photo, photo.size_bytes)) {
        stats.insertions += 1;
        stats.inserted_bytes += photo.size_bytes;
      } else {
        stats.refused += 1;  // the object is larger than the cache
      }
    } else {
      stats.rejected += 1;
      stats.rejected_bytes += photo.size_bytes;
    }
    admission.observe(i, request, photo, hit);
  }
  return stats;
}

}  // namespace otac
