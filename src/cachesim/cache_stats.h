// Counters behind every figure of §5.3: file/byte hit rates (Figs. 6-7),
// file/byte write rates (Figs. 8-9).
#pragma once

#include <cstdint>

#include "util/fnv.h"

namespace otac {

struct CacheStats {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  double request_bytes = 0.0;
  double hit_bytes = 0.0;

  // SSD write traffic: objects actually inserted into the cache.
  std::uint64_t insertions = 0;
  double inserted_bytes = 0.0;

  std::uint64_t evictions = 0;
  double evicted_bytes = 0.0;

  // Misses the admission policy chose not to cache.
  std::uint64_t rejected = 0;
  double rejected_bytes = 0.0;

  // Admitted misses the cache policy refused to store (an object larger
  // than the whole cache or shard). With them the accounting closes:
  // hits + insertions + rejected + refused == requests.
  std::uint64_t refused = 0;

  // FNV-1a hash over the (key, size) eviction sequence — a replay
  // fingerprint: two runs with identical eviction behavior (and only those)
  // produce the same hash. Sharded runs fold per-shard hashes in shard
  // order via merge().
  std::uint64_t eviction_hash = kFnvOffset;

  friend bool operator==(const CacheStats&, const CacheStats&) = default;

  /// Fold one eviction into the sequence fingerprint.
  void note_eviction(std::uint64_t key, std::uint32_t size_bytes) noexcept {
    evictions += 1;
    evicted_bytes += size_bytes;
    fnv64(eviction_hash, key);
    fnv64(eviction_hash, size_bytes);
  }

  [[nodiscard]] std::uint64_t misses() const noexcept {
    return requests - hits;
  }
  [[nodiscard]] double file_hit_rate() const noexcept {
    return requests ? static_cast<double>(hits) /
                          static_cast<double>(requests)
                    : 0.0;
  }
  [[nodiscard]] double byte_hit_rate() const noexcept {
    return request_bytes > 0.0 ? hit_bytes / request_bytes : 0.0;
  }
  /// Files written to SSD per access (Fig. 8's "file write rate").
  [[nodiscard]] double file_write_rate() const noexcept {
    return requests ? static_cast<double>(insertions) /
                          static_cast<double>(requests)
                    : 0.0;
  }
  /// Bytes written to SSD per byte accessed (Fig. 9, §5.3.4).
  [[nodiscard]] double byte_write_rate() const noexcept {
    return request_bytes > 0.0 ? inserted_bytes / request_bytes : 0.0;
  }

  void merge(const CacheStats& other) noexcept {
    requests += other.requests;
    hits += other.hits;
    request_bytes += other.request_bytes;
    hit_bytes += other.hit_bytes;
    insertions += other.insertions;
    inserted_bytes += other.inserted_bytes;
    evictions += other.evictions;
    evicted_bytes += other.evicted_bytes;
    rejected += other.rejected;
    rejected_bytes += other.rejected_bytes;
    refused += other.refused;
    fnv64(eviction_hash, other.eviction_hash);
  }
};

}  // namespace otac
