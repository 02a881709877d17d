// Benchmark workload presets: the default QQPhoto-like trace used by every
// bench binary, scaled by OTAC_SCALE and seeded by OTAC_SEED so all
// figure/table harnesses agree on the input.
#pragma once

#include <string>

#include "trace/trace.h"
#include "trace/trace_generator.h"

namespace otac {

struct BenchWorkloadInfo {
  std::uint64_t seed = 0;
  double scale = 1.0;
  std::uint64_t requests = 0;
  std::uint64_t photos = 0;
  double total_object_bytes = 0.0;
  double mean_photo_size = 0.0;
};

/// The reference workload: 9 simulated days, ~400k photos at scale 1.
[[nodiscard]] WorkloadConfig bench_workload_config(double scale,
                                                   std::uint64_t seed);

/// File name of the disk-cached trace of `config`: a hash of the generator
/// revision and of every WorkloadConfig field, so a config change or a
/// change to generate()'s output never serves a stale trace.
[[nodiscard]] std::string bench_trace_cache_name(
    const WorkloadConfig& config,
    std::uint32_t generator_revision = kTraceGeneratorRevision);

/// Generate (or reuse a disk-cached copy of) the bench trace.
/// The trace binary is cached under the OTAC_CACHE_DIR so the
/// one-binary-per-figure harnesses don't regenerate it.
[[nodiscard]] Trace load_bench_trace(double scale, std::uint64_t seed);

[[nodiscard]] BenchWorkloadInfo describe(const Trace& trace, double scale,
                                         std::uint64_t seed);

/// The paper's evaluated dataset is ~450 GB (14M objects, 1:100 sample);
/// its capacity axis 2-20 GB is 0.44%-4.4% of that. map_paper_gb turns a
/// paper-axis "GB" into a byte capacity representing the same fraction of
/// *our* dataset.
inline constexpr double kPaperDatasetGb = 450.0;

[[nodiscard]] std::uint64_t map_paper_gb(double paper_gb,
                                         double total_object_bytes);

}  // namespace otac
