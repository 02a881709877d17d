// Unified observability layer: a lock-cheap metrics registry of named
// counters, gauges, and fixed-bucket histograms.
//
// The concurrency model is *per-shard accumulation with explicit merge*,
// not shared atomics: every request stream (a shard worker, the global
// trainer) owns a private MetricsRegistry and mutates it through
// pre-resolved handles — a handle increment is one unsynchronized add on
// memory nothing else touches. Registries meet only
// at deterministic points (retrain barriers, end of run), where snapshots
// are taken and merged in shard order. That is what keeps the layer both
// cheap (no contention, no fences on the request path) and deterministic
// (merged counters are a pure function of the trace and the shard
// partition, never of thread scheduling) — the same bulk-synchronous
// argument core/sharded_cache.h makes for the model slot.
//
// Handles stay valid for the registry's lifetime: counters and gauges live
// in node-stable std::map slots, histograms are owned by the map too.
// Lookup by name happens once at bind time, never per request.
//
// Compile-time escape hatch: building with -DOTAC_OBS=OFF (which defines
// OTAC_OBS_OFF) flips obs::kEnabled to false, and every hot-path
// instrumentation site — guarded by `if constexpr (obs::kEnabled)` — is
// compiled out entirely. Snapshot-time population (copying CacheStats into
// a registry at a barrier) is not gated: it is off the request path.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace otac::obs {

#if defined(OTAC_OBS_OFF)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/// Point-in-time state of one histogram: bucket upper bounds (ascending,
/// finite; an implicit +inf overflow bucket follows), per-bucket counts
/// (counts.size() == bounds.size() + 1), and the exact sum of observed
/// values. Plain data — copyable, comparable, serializable.
struct HistogramSnapshot {
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> counts;
  double sum = 0.0;

  [[nodiscard]] std::uint64_t count() const noexcept;

  /// Quantile q in [0, 1] by linear interpolation inside the target bucket
  /// (bucket 0 interpolates from 0). Values in the overflow bucket report
  /// the last finite bound — the histogram cannot resolve beyond it.
  /// Returns 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Bucketwise sum. Throws std::invalid_argument on mismatched bounds
  /// (histograms are only mergeable when they were cut from the same grid).
  void merge(const HistogramSnapshot& other);

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// Fixed-bucket histogram designed for non-negative measures (latencies,
/// durations): values below the grid land in bucket 0, values past the
/// last bound land in the overflow bucket, totals are always preserved.
class FixedHistogram {
 public:
  FixedHistogram() = default;
  /// `upper_bounds` must be finite and strictly ascending.
  explicit FixedHistogram(std::vector<double> upper_bounds);

  /// Index of the bucket `value` falls into (binary search).
  [[nodiscard]] std::size_t bucket_of(double value) const noexcept;

  void add(double value, std::uint64_t weight = 1) noexcept {
    add_to_bucket(bucket_of(value), value, weight);
  }

  /// Fast path for pre-resolved bucket indices (e.g. LatencyRecorder, whose
  /// two possible values are known before the replay loop starts).
  void add_to_bucket(std::size_t bucket, double value,
                     std::uint64_t weight = 1) noexcept {
    counts_[bucket] += weight;
    sum_ += value * static_cast<double>(weight);
  }

  /// Bucketwise sum; throws std::invalid_argument on mismatched bounds.
  void merge(const FixedHistogram& other) { merge(other.snapshot()); }
  void merge(const HistogramSnapshot& other);

  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double quantile(double q) const noexcept {
    return snapshot().quantile(q);
  }
  [[nodiscard]] const std::vector<double>& upper_bounds() const noexcept {
    return upper_bounds_;
  }
  [[nodiscard]] HistogramSnapshot snapshot() const {
    return HistogramSnapshot{upper_bounds_, counts_, sum_};
  }

 private:
  std::vector<double> upper_bounds_;
  std::vector<std::uint64_t> counts_{0};  // bounds.size() + 1 entries
  double sum_ = 0.0;
};

/// Point-in-time state of a whole registry. std::map keys make iteration
/// order (and therefore every serialization) deterministic by name.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Additive merge: counters and gauges sum, histograms merge bucketwise,
  /// names missing on one side are adopted. Associative and (for the
  /// counter/gauge part) commutative — the registry merge-associativity
  /// test pins this across shard counts.
  void merge(const MetricsSnapshot& other);

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

/// Named-metric registry. Single-stream by design (see file comment): one
/// instance per shard / serving loop, no internal locking.
class MetricsRegistry {
 public:
  /// Stable handle types: direct pointers at the backing storage. An
  /// increment through a handle is the entire hot-path cost.
  using Counter = std::uint64_t*;
  using Gauge = double*;

  MetricsRegistry() = default;
  // Handles point into this instance — copying would silently detach them.
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. Repeated calls with the same name return the same
  /// handle; new counters start at 0, gauges at 0.0.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);

  /// Find-or-create with this bucket grid; re-requesting an existing
  /// histogram ignores `upper_bounds` (first registration wins).
  [[nodiscard]] FixedHistogram* histogram(std::string_view name,
                                          std::vector<double> upper_bounds);

  /// Snapshot-time population helpers (assign, not add): barrier snapshots
  /// copy cumulative CacheStats-style totals into the registry, so repeated
  /// population at successive barriers stays idempotent.
  void set(std::string_view name, std::uint64_t value) {
    *counter(name) = value;
  }
  void set_gauge(std::string_view name, double value) { *gauge(name) = value; }

  /// Additive merge of another registry's current state (same semantics as
  /// MetricsSnapshot::merge).
  void merge(const MetricsRegistry& other) { merge(other.snapshot()); }
  void merge(const MetricsSnapshot& other);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, FixedHistogram, std::less<>> histograms_;
};

/// Per-request simulated-latency instrumentation. The paper's response-time
/// model (storage/latency_model.h) maps every request to one of two
/// constants — hit cost or miss penalty — so the recorder resolves both
/// bucket indices up front and the per-request cost is a single
/// add_to_bucket. Disabled (null histogram or OTAC_OBS_OFF) it is free.
class LatencyRecorder {
 public:
  LatencyRecorder() = default;
  LatencyRecorder(FixedHistogram* histogram, double hit_us, double miss_us)
      : histogram_(histogram),
        hit_us_(hit_us),
        miss_us_(miss_us),
        hit_bucket_(histogram != nullptr ? histogram->bucket_of(hit_us) : 0),
        miss_bucket_(histogram != nullptr ? histogram->bucket_of(miss_us)
                                          : 0) {}

  void record(bool hit) noexcept {
    if constexpr (!kEnabled) return;
    if (histogram_ == nullptr) return;
    if (hit) {
      histogram_->add_to_bucket(hit_bucket_, hit_us_);
    } else {
      histogram_->add_to_bucket(miss_bucket_, miss_us_);
    }
  }

 private:
  FixedHistogram* histogram_ = nullptr;
  double hit_us_ = 0.0;
  double miss_us_ = 0.0;
  std::size_t hit_bucket_ = 0;
  std::size_t miss_bucket_ = 0;
};

}  // namespace otac::obs
