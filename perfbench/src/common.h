// Shared pieces of the two benchmark drivers: the workload table, seeded
// inputs and serving configurations, clocks, order statistics, and the
// result lines both drivers print.
//
// Every workload has two phases, so every end-to-end metric is measured on
// every workload:
//   replay  the reference QQPhoto-like trace (scale 4: ~1.6M photos, ~6.3M
//           requests over 9 simulated days) through ShardedCache::run under
//           LRU at 2% of object bytes, 4 shards on 2 worker threads, in the
//           workload's admission mode;
//   wire    a smaller trace of the same shape (scale 1/16, ~0.1M requests)
//           served in Proposal mode by an in-process net::Daemon on
//           loopback, 2 shards at 20 paper-GB, driven by the open-loop
//           client (wire_client.h).
// The wire phase is the same in every workload: in Original mode the
// daemon's tail latency is only scheduler wake-up noise, while Proposal's
// retrain barriers give it a tail the daemon itself sets.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/intelligent_cache.h"
#include "net/daemon.h"
#include "trace/trace.h"

namespace otac::bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command line shared by both drivers:
///   --workload <name> --seed <n> --seconds <s>
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

/// Throws std::invalid_argument on an unknown flag or a missing value.
[[nodiscard]] Args parse_args(int argc, char** argv);

struct Workload {
  const char* name;
  AdmissionMode mode;  ///< of the replay phase
};

/// The workload table; throws std::invalid_argument on an unknown name.
[[nodiscard]] const Workload& find_workload(const std::string& name);

// --- replay phase --------------------------------------------------------
inline constexpr double kReplayScale = 4.0;
inline constexpr double kReplayCapacityFraction = 0.02;
inline constexpr std::size_t kReplayShards = 4;
inline constexpr std::size_t kReplayThreads = 2;

// --- wire phase ----------------------------------------------------------
inline constexpr double kWireScale = 0.0625;
inline constexpr double kWirePaperGb = 20.0;
inline constexpr std::size_t kWireShards = 2;
/// Open-loop GET rate, well below the daemon's loopback saturation.
inline constexpr double kWireGetRate = 60000.0;
/// Every k-th GET is preceded by a PUT of the same photo.
inline constexpr std::uint64_t kWirePutEvery = 10;

/// Seeded synthesis straight from TraceGenerator (never the on-disk trace
/// cache, which would turn set-up into a file read).
[[nodiscard]] Trace make_trace(double scale, std::uint64_t seed);

/// ShardedCache::run configuration of the replay phase. No hit-rate
/// estimate is preset, so the run pays the LRU estimate and the criteria
/// fixpoint as an otac_sim user does.
[[nodiscard]] RunConfig replay_config(const Workload& workload,
                                      const IntelligentCache& system);

/// Daemon configuration of the wire phase: Proposal mode, default
/// blocking dispatch, inline watchdog, no overload ladder, kernel-assigned
/// loopback port.
[[nodiscard]] net::DaemonConfig wire_config(const IntelligentCache& system);

// --- statistics ----------------------------------------------------------

/// Median of a non-empty sample (mean of the middle pair when even).
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank quantile q in [0, 1] of an ascending-sorted sample.
[[nodiscard]] std::int64_t sorted_quantile(
    const std::vector<std::int64_t>& sorted, double q);

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mib();

// --- host interference ---------------------------------------------------

/// Share of the machine's CPU time the hypervisor took from this VM
/// (the "steal" column of /proc/stat) since construction; 0 where the
/// kernel does not report it.
class StealMeter {
 public:
  StealMeter();
  [[nodiscard]] double fraction() const;

 private:
  std::uint64_t steal_ = 0;
  std::uint64_t total_ = 0;
};

/// A repetition during which the host took more than this share of CPU
/// time is disturbed: it is still checked, but its times leave the medians
/// while undisturbed repetitions exist. On a quiet host steal stays below
/// 0.5%; a busy neighbour pushes it past 5% and multiplies wire latency.
inline constexpr double kMaxStealFrac = 0.02;

/// Timed samples of one quantity, split by host disturbance.
class Samples {
 public:
  void add(double value, double steal_frac);
  [[nodiscard]] std::size_t size() const noexcept { return all_.size(); }
  [[nodiscard]] std::size_t clean() const noexcept { return clean_.size(); }
  /// Median of the undisturbed samples; of all when every one was disturbed.
  [[nodiscard]] double median() const;

 private:
  std::vector<double> all_;
  std::vector<double> clean_;
};

/// Whether a phase begun at `begin` with `budget_s` seconds may stop: it
/// has `min` undisturbed samples and spent its budget, or, on a busy host,
/// `min` samples of any kind and two and a half budgets.
[[nodiscard]] bool phase_done(const Samples& samples, std::size_t min,
                              Clock::time_point begin, double budget_s);

// --- output --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Key/value facts about the run (input sizes, seed), printed as one JSON
/// object line prefixed "info " for run.py's provenance stamp.
struct Info {
  std::vector<std::pair<std::string, double>> numbers;
  std::vector<std::pair<std::string, std::string>> strings;
};
void print_info(const Info& info);

/// Human-readable metric table on stdout, one "name value unit" line each.
void print_table(const std::vector<Metric>& metrics);

/// The result line: the last line of stdout. A failed check prints no
/// numbers (metrics is empty).
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

/// Collects correctness failures; each is reported on stderr.
class Checks {
 public:
  void expect(bool condition, const std::string& what);
  [[nodiscard]] bool ok() const noexcept { return failures_ == 0; }

 private:
  std::uint64_t failures_ = 0;
};

}  // namespace otac::bench
