#include "trace/next_access.h"

namespace otac {

NextAccessInfo compute_next_access(const Trace& trace) {
  const std::size_t n = trace.requests.size();
  const std::span<const PhotoMeta> photos = trace.catalog.photos();
  NextAccessInfo info;
  info.next.resize(n);

  // last_seen[photo] = most recent (from the back) index, i.e. the *next*
  // occurrence for anything earlier.
  std::vector<std::uint64_t> last_seen(photos.size(), kNoNextAccess);
  for (std::size_t idx = n; idx-- > 0;) {
    const PhotoId photo = trace.requests[idx].photo;
    info.next[idx] = last_seen[photo];
    last_seen[photo] = idx;
  }
  // Photo-id order, as compute_trace_stats sums it.
  for (std::size_t id = 0; id < photos.size(); ++id) {
    if (last_seen[id] != kNoNextAccess) {
      info.total_object_bytes += photos[id].size_bytes;
    }
  }
  return info;
}

}  // namespace otac
