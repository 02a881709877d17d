#include "cachesim/tiered.h"

namespace otac {

TieredStats TieredSimulator::run(CachePolicy& oc,
                                 AdmissionPolicy& oc_admission,
                                 CachePolicy& dc,
                                 AdmissionPolicy& dc_admission) const {
  TieredStats stats;
  oc.set_eviction_callback([&stats](PhotoId, std::uint32_t size) {
    stats.oc.evictions += 1;
    stats.oc.evicted_bytes += size;
  });
  dc.set_eviction_callback([&stats](PhotoId, std::uint32_t size) {
    stats.dc.evictions += 1;
    stats.dc.evicted_bytes += size;
  });

  const Trace& trace = *trace_;
  for (std::uint64_t i = 0; i < trace.requests.size(); ++i) {
    const Request& request = trace.requests[i];
    const PhotoMeta& photo = trace.catalog.photo(request.photo);

    if (oracle_ != nullptr) oc.set_next_access_hint(oracle_->next[i]);
    stats.oc.requests += 1;
    stats.oc.request_bytes += photo.size_bytes;
    const bool oc_hit = oc.access(request.photo, photo.size_bytes);
    if (oc_hit) {
      stats.oc.hits += 1;
      stats.oc.hit_bytes += photo.size_bytes;
      oc_admission.observe(i, request, photo, true);
      continue;  // served at the edge; DC never sees the request
    }

    // OC miss: the request reaches the DC tier.
    if (oracle_ != nullptr) dc.set_next_access_hint(oracle_->next[i]);
    stats.dc.requests += 1;
    stats.dc.request_bytes += photo.size_bytes;
    const bool dc_hit = dc.access(request.photo, photo.size_bytes);
    if (dc_hit) {
      stats.dc.hits += 1;
      stats.dc.hit_bytes += photo.size_bytes;
    } else {
      stats.backend_reads += 1;
      stats.backend_bytes += photo.size_bytes;
      if (dc_admission.admit(i, request, photo)) {
        if (dc.insert(request.photo, photo.size_bytes)) {
          stats.dc.insertions += 1;
          stats.dc.inserted_bytes += photo.size_bytes;
        } else {
          stats.dc.refused += 1;
        }
      } else {
        stats.dc.rejected += 1;
        stats.dc.rejected_bytes += photo.size_bytes;
      }
    }
    // Fill the OC on the way back (whether the photo came from DC or
    // backend), subject to the OC admission policy.
    if (oc_admission.admit(i, request, photo)) {
      if (oc.insert(request.photo, photo.size_bytes)) {
        stats.oc.insertions += 1;
        stats.oc.inserted_bytes += photo.size_bytes;
      } else {
        stats.oc.refused += 1;
      }
    } else {
      stats.oc.rejected += 1;
      stats.oc.rejected_bytes += photo.size_bytes;
    }
    oc_admission.observe(i, request, photo, false);
    dc_admission.observe(i, request, photo, dc_hit);
  }
  return stats;
}

}  // namespace otac
