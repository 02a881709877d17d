// Exact admit-all LRU hit count over a trace, computed in parallel chunks.
//
// The criteria (Eq. 2) need the hit rate h of a plain LRU cache that admits
// every miss. That cache can be replayed chunk by chunk because its state
// at any request is a pure function of the trace:
//
//   An admit-all byte-capacity LruCache refuses objects larger than C and
//   evicts from the tail while used + size > C. After any prefix of the
//   trace it holds the longest prefix of the recency stack (the distinct
//   photos of size <= C, most recent first) whose sizes sum to <= C.
//
// (A hit reorders the resident set without changing it; a miss puts the
// photo on top and evicts from the tail until it fits, which is the
// longest fitting prefix of the new stack.) So the state at request b is
// rebuilt by scanning backward from b - 1, keeping request i only when it
// is its photo's last access before b (oracle.next[i] is kNoNextAccess or
// >= b), skipping photos larger than C and stopping at the first one that
// no longer fits. A chunk [b, e) then replays from that state alone, and
// the integer hit counts of any cut add up to the serial count.
#pragma once

#include <cstdint>

#include "trace/next_access.h"
#include "trace/trace.h"
#include "util/thread_pool.h"

namespace otac {

/// Hits of an admit-all LRU cache of `capacity_bytes` on requests
/// [begin, end), starting from the state the requests [0, begin) leave.
[[nodiscard]] std::uint64_t lru_chunk_hits(const Trace& trace,
                                           const NextAccessInfo& oracle,
                                           std::uint64_t capacity_bytes,
                                           std::uint64_t begin,
                                           std::uint64_t end);

/// Hits of an admit-all LRU cache of `capacity_bytes` over the whole trace,
/// one chunk per pool thread. Equal to the Simulator + AlwaysAdmit count
/// for every pool size.
[[nodiscard]] std::uint64_t lru_hit_count(const Trace& trace,
                                          const NextAccessInfo& oracle,
                                          std::uint64_t capacity_bytes,
                                          ThreadPool& pool);

}  // namespace otac
