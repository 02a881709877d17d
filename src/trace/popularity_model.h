// Photo popularity synthesis: latent scores, one-time calibration, and
// per-photo access-count assignment.
//
// Every catalog photo receives a latent popularity score
//   z = wq*owner_quality + wt*type_popularity + wh*upload_hour_boost
//       + wn*noise + wm*log(window_mass)
// (standardized over the population). One-time photos are chosen with
// probability 1 - sigmoid((z - theta)/tau); theta is solved by bisection so
// the realized one-time object fraction matches the target *exactly in
// expectation over the population scores*. Multi-access photos draw a
// heavy-tailed count scaled by exp(beta*z); a second bisection on a global
// multiplier pins the mean access count so one-time accesses form the
// target share of the trace.
//
// The raw scores' and count gains' pure per-photo terms and both
// bisections' terms are evaluated on a thread pool; the RNG draws, and the
// additions that follow a draw, stay serial in the serial code's order. The
// one-time fraction is a non-exact floating-point sum, so its terms are
// added serially in photo order; the mean count sums integer-valued terms
// exactly, so its per-block partial sums may be added in any order. The
// result is therefore bit-identical for every pool size (DESIGN.md §6).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "trace/photo_catalog.h"
#include "trace/workload_config.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace otac {

/// Lomax (Pareto-II) CDF with given shape/scale; support x >= 0.
[[nodiscard]] double lomax_cdf(double x, double shape, double scale) noexcept;

/// Inverse of lomax_cdf on [0, 1).
[[nodiscard]] double lomax_cdf_inverse(double u, double shape,
                                       double scale) noexcept;

[[nodiscard]] double sigmoid(double x) noexcept;

struct PopularityAssignment {
  std::vector<float> score;          // standardized latent score per photo
  std::vector<std::uint32_t> count;  // accesses within the window, >= 1
  double theta = 0.0;                // one-time decision threshold
  double count_scale = 0.0;          // calibrated global count multiplier
};

class PopularityModel {
 public:
  /// window_mass[i] = probability mass of the access-time kernel falling
  /// inside the observation window for photo i (in (0, 1]). It is taken by
  /// value because its storage becomes the scratch array of the one-time
  /// bisection. `pool` only evaluates the calibration terms; its size never
  /// changes a bit.
  PopularityAssignment assign(const WorkloadConfig& config,
                              const PhotoCatalog& catalog,
                              std::vector<double> window_mass, Rng& rng,
                              ThreadPool& pool) const;

  /// Hour-of-day upload boost in [-1, 1]: photos uploaded near the diurnal
  /// peak tend to catch more eyeballs. Exposed for tests.
  [[nodiscard]] static double upload_hour_boost(int hour) noexcept;
};

/// Find x in [lo, hi] with f(x) ~= target for nondecreasing f (bisection).
[[nodiscard]] double bisect_nondecreasing(double lo, double hi, double target,
                                          int iterations,
                                          const std::function<double(double)>& f);

}  // namespace otac
