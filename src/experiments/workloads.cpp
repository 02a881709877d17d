#include "experiments/workloads.h"

#include <bit>
#include <filesystem>
#include <sstream>

#include "trace/trace_io.h"
#include "trace/trace_stats.h"
#include "util/env_config.h"
#include "util/fnv.h"

namespace otac {

WorkloadConfig bench_workload_config(double scale, std::uint64_t seed) {
  WorkloadConfig config;  // defaults are the calibrated paper-like shape
  config.seed = seed;
  return scaled(config, scale);
}

std::string bench_trace_cache_name(const WorkloadConfig& config,
                                   std::uint32_t generator_revision) {
  // Every field below; a field added to WorkloadConfig must join the hash.
  static_assert(sizeof(WorkloadConfig) == 464,
                "WorkloadConfig changed: update bench_trace_cache_name");
  std::uint64_t fp = kFnvOffset;
  const auto mix = [&fp](double v) {
    fnv64(fp, std::bit_cast<std::uint64_t>(v));
  };
  fnv64(fp, generator_revision);
  fnv64(fp, config.seed);
  fnv64(fp, config.num_owners);
  fnv64(fp, config.num_photos);
  mix(config.horizon_days);
  mix(config.backlog_days);
  mix(config.one_time_object_fraction);
  mix(config.one_time_access_share);
  fnv64(fp, config.max_accesses_per_photo);
  mix(config.owner_activity_sigma);
  mix(config.friends_activity_coupling);
  mix(config.mean_active_friends);
  mix(config.owner_quality_sigma);
  mix(config.weight_owner_quality);
  mix(config.weight_type);
  mix(config.weight_upload_hour);
  mix(config.weight_noise);
  mix(config.weight_window_mass);
  mix(config.sigmoid_tau);
  mix(config.count_tail_alpha);
  mix(config.count_score_beta);
  fnv64(fp, static_cast<std::uint64_t>(config.type_popularity_rotation_days));
  mix(config.decay_shape);
  mix(config.decay_scale_days);
  mix(config.mobile_share);
  mix(config.diurnal.trough_hour);
  mix(config.diurnal.peak_hour);
  mix(config.diurnal.peak_to_trough);
  for (const double m : config.type_mix) mix(m);
  for (const double t : config.type_popularity) mix(t);
  for (const double s : config.resolution_size_bytes) mix(s);
  mix(config.png_size_factor);
  mix(config.size_sigma);
  std::ostringstream name;
  name << "trace_r" << generator_revision << "_s" << config.seed << "_p"
       << config.num_photos << "_" << std::hex << fp << ".bin";
  return name.str();
}

Trace load_bench_trace(double scale, std::uint64_t seed) {
  const WorkloadConfig config = bench_workload_config(scale, seed);
  const std::string dir = bench_cache_dir();
  if (dir.empty()) return TraceGenerator{config}.generate();

  const std::filesystem::path path =
      std::filesystem::path(dir) / bench_trace_cache_name(config);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!ec && std::filesystem::exists(path)) {
    try {
      return load_trace(path.string());
    } catch (const std::exception&) {
      // Corrupt cache: fall through and regenerate.
    }
  }
  Trace trace = TraceGenerator{config}.generate();
  if (!ec) {
    try {
      save_trace(trace, path.string());
    } catch (const std::exception&) {
      // Cache write failure is non-fatal.
    }
  }
  return trace;
}

BenchWorkloadInfo describe(const Trace& trace, double scale,
                           std::uint64_t seed) {
  const TraceStats stats = compute_trace_stats(trace);
  BenchWorkloadInfo info;
  info.seed = seed;
  info.scale = scale;
  info.requests = stats.total_requests;
  info.photos = stats.distinct_objects;
  info.total_object_bytes = stats.total_object_bytes;
  info.mean_photo_size =
      stats.distinct_objects
          ? stats.total_object_bytes / static_cast<double>(stats.distinct_objects)
          : 0.0;
  return info;
}

std::uint64_t map_paper_gb(double paper_gb, double total_object_bytes) {
  const double fraction = paper_gb / kPaperDatasetGb;
  return static_cast<std::uint64_t>(fraction * total_object_bytes);
}

}  // namespace otac
