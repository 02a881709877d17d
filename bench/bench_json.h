// Shared scaffolding for the plain-main micro-benchmarks: steady-clock
// timing, best-of-N rep selection, and a machine-readable JSON report
// ({"bench", "reps", "provenance", "cells"}) written next to the working
// directory so CI and the perf notes in DESIGN.md can diff runs without
// scraping stdout. tools/envelope_gate checks every report's schema.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "util/env_config.h"

// Set by the otac_bench_report CMake target at configure time.
#ifndef OTAC_GIT_COMMIT
#define OTAC_GIT_COMMIT "unknown"
#endif
#ifndef OTAC_BUILD_TYPE
#define OTAC_BUILD_TYPE "unknown"
#endif

namespace otac::bench {

/// Default op/row count scaled by OTAC_SCALE (util/env_config.h): the CI
/// bench-smoke job sets OTAC_SCALE=0.02 so every micro-bench finishes in
/// seconds while still exercising the full report path; the floor keeps
/// cells non-degenerate at any scale.
inline std::size_t scaled(std::size_t n) {
  const double s = global_scale();
  const double scaled_n = static_cast<double>(n) * (s > 0.0 ? s : 1.0);
  return std::max<std::size_t>(1, static_cast<std::size_t>(scaled_n));
}

/// Seconds taken by one invocation of `body`.
inline double time_once(const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

/// Best (minimum) wall time over `reps` invocations. Best-of-N is the right
/// statistic on shared machines: interference only ever adds time, so the
/// minimum is the closest observable to the true cost.
inline double best_of(int reps, const std::function<void()>& body) {
  double best = time_once(body);
  for (int r = 1; r < reps; ++r) best = std::min(best, time_once(body));
  return best;
}

/// `text` as a JSON string literal.
inline std::string json_string(const std::string& text) {
  std::string quoted = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  return quoted + '"';
}

/// Where a report's numbers came from: the machine, the build and the
/// workload scale the bench ran at. Numbers without it cannot be compared.
inline std::string provenance_json(double scale) {
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t start = line.find_first_not_of(" \t:", 10);
    if (start != std::string::npos) cpu_model = line.substr(start);
    break;
  }
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#else
  const std::string compiler = "gcc " __VERSION__;
#endif
  return "{\"commit\": " + json_string(OTAC_GIT_COMMIT) +
         ", \"cpu_model\": " + json_string(cpu_model) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + json_string(compiler) +
         ", \"build_type\": " + json_string(OTAC_BUILD_TYPE) +
         ", \"otac_scale\": " + std::to_string(scale) + "}";
}

/// One JSON object per finished cell, preformatted by the bench.
struct Report {
  std::string bench;
  int reps = 1;
  /// The workload scale stamped as provenance otac_scale; a bench scaled
  /// by anything other than OTAC_SCALE overrides it.
  double scale = global_scale();
  std::vector<std::string> cells;

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\n  \"bench\": \"" << bench << "\",\n  \"reps\": " << reps
        << ",\n  \"provenance\": " << provenance_json(scale)
        << ",\n  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      out << "    " << cells[i] << (i + 1 < cells.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << path << " (" << cells.size() << " cells)\n";
  }
};

}  // namespace otac::bench
