// End-to-end synthetic trace generation (see DESIGN.md §2 for the mapping
// from the paper's production trace to this model).
//
// Pipeline:
//   1. generate_owners            — correlated social attributes
//   2. photo placement            — owners chosen ~ activity; upload times
//                                    diurnal within uniformly chosen days over
//                                    [-backlog, horizon); type & size drawn
//   3. PopularityModel::assign    — latent score + calibrated access counts
//                                    over each photo's access window
//   4. access-time sampling       — truncated-Lomax day offsets, diurnal
//                                    second-of-day, terminal type
//   5. sort by (time, photo, terminal) — a linear-time counting sort
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.h"
#include "util/thread_pool.h"

namespace otac {

/// Each photo's access-time kernel (Lomax in the time since upload)
/// truncated to the observation window [0, horizon): the kernel CDF at both
/// window ends, between which event offsets are drawn, and the mass inside,
/// floored at 1e-9 (PopularityModel::assign's window_mass).
struct AccessWindow {
  std::vector<double> cdf_lo;
  std::vector<double> cdf_hi;
  std::vector<double> mass;
};

/// Per photo and independent, so computed fully in parallel on `pool`.
[[nodiscard]] AccessWindow access_window(const WorkloadConfig& config,
                                         const PhotoCatalog& catalog,
                                         ThreadPool& pool);

/// Revision of generate()'s output for a fixed config. Bump it with every
/// change to the bytes generate() produces: on-disk trace caches key on it
/// (experiments/workloads.h). 2: requests ordered by (time, photo, terminal).
inline constexpr std::uint32_t kTraceGeneratorRevision = 2;

class TraceGenerator {
 public:
  explicit TraceGenerator(WorkloadConfig config) : config_(std::move(config)) {}

  /// Generate the full trace. Deterministic for a fixed config (including
  /// config.seed); independent of platform and thread count. The
  /// calibration steps run on a hardware-sized pool owned by the call.
  /// Requests come out ordered by (time, photo, terminal).
  [[nodiscard]] Trace generate() const;

  [[nodiscard]] const WorkloadConfig& config() const noexcept { return config_; }

 private:
  WorkloadConfig config_;
};

/// Convenience: generate with default config scaled by `scale`.
[[nodiscard]] Trace generate_default_trace(double scale, std::uint64_t seed);

}  // namespace otac
