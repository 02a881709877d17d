// One-time-access criteria (§4.3): the reaccess-distance threshold
//
//        M = C / [ S̄ · (1 - h) · (1 - p) ]                        (Eq. 2)
//
// where C = cache capacity, S̄ = mean photo size, h = hit rate, p = the
// one-time-access fraction. p depends on M (a larger threshold makes fewer
// accesses "one-time"), so the paper iterates from p = 0; three rounds
// suffice empirically. A photo access is one-time w.r.t. M when its next
// reaccess lies more than M requests ahead (or never happens).
#pragma once

#include <cstdint>

#include "trace/next_access.h"
#include "trace/trace.h"
#include "util/thread_pool.h"

namespace otac {

struct CriteriaResult {
  double m = 0.0;          // reaccess-distance threshold (requests)
  double h = 0.0;          // hit-rate estimate used
  double p = 0.0;          // converged one-time fraction
  double mean_size = 0.0;  // S-bar (bytes)

  friend bool operator==(const CriteriaResult&,
                         const CriteriaResult&) = default;
};

/// Fraction of accesses whose reaccess distance exceeds `m`, counted in
/// parallel on `pool`; the same double for every pool size.
[[nodiscard]] double one_time_fraction(const NextAccessInfo& oracle,
                                       std::uint64_t num_requests, double m,
                                       ThreadPool& pool);

/// Fixpoint computation of M on a pool owned by the call.
/// `hit_rate_estimate` comes from a plain LRU replay at the target capacity
/// (the paper estimates h the same way).
[[nodiscard]] CriteriaResult compute_criteria(const Trace& trace,
                                              const NextAccessInfo& oracle,
                                              std::uint64_t capacity_bytes,
                                              double hit_rate_estimate,
                                              int iterations = 3);

/// LIRS variant (§5.2): M_LIRS = M * R_s with R_s = C_s / C the LIR-stack
/// share of the cache.
[[nodiscard]] double lirs_criteria(double m, double lir_fraction);

}  // namespace otac
