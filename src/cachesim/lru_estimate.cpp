#include "cachesim/lru_estimate.h"

#include <numeric>
#include <utility>
#include <vector>

#include "cachesim/lru.h"

namespace otac {

std::uint64_t lru_chunk_hits(const Trace& trace, const NextAccessInfo& oracle,
                             std::uint64_t capacity_bytes, std::uint64_t begin,
                             std::uint64_t end) {
  // The resident set at `begin`, most recent first (see the header).
  std::vector<std::pair<PhotoId, std::uint32_t>> resident;
  std::uint64_t used = 0;
  for (std::uint64_t i = begin; i-- > 0;) {
    if (oracle.next[i] != kNoNextAccess && oracle.next[i] < begin) continue;
    const PhotoId photo = trace.requests[i].photo;
    const std::uint32_t size = trace.catalog.photo(photo).size_bytes;
    if (size > capacity_bytes) continue;
    if (size > capacity_bytes - used) break;
    used += size;
    resident.emplace_back(photo, size);
  }

  LruCache cache{capacity_bytes};
  for (auto it = resident.rbegin(); it != resident.rend(); ++it) {
    (void)cache.insert(it->first, it->second);
  }
  std::uint64_t hits = 0;
  for (std::uint64_t i = begin; i < end; ++i) {
    const PhotoId photo = trace.requests[i].photo;
    const std::uint32_t size = trace.catalog.photo(photo).size_bytes;
    if (cache.access(photo, size)) {
      ++hits;
    } else {
      (void)cache.insert(photo, size);
    }
  }
  return hits;
}

std::uint64_t lru_hit_count(const Trace& trace, const NextAccessInfo& oracle,
                            std::uint64_t capacity_bytes, ThreadPool& pool) {
  const std::uint64_t n = trace.requests.size();
  const std::size_t chunks = pool.thread_count();
  std::vector<std::uint64_t> hits(chunks, 0);
  pool.parallel_for(chunks, [&](std::size_t c) {
    hits[c] = lru_chunk_hits(trace, oracle, capacity_bytes, n * c / chunks,
                             n * (c + 1) / chunks);
  });
  return std::accumulate(hits.begin(), hits.end(), std::uint64_t{0});
}

}  // namespace otac
