#include "trace/popularity_model.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/zipf.h"

namespace otac {

namespace {

/// Photos per calibration block: large enough that a block's work dwarfs
/// the pool's per-block dispatch, small enough to spread 60k photos.
constexpr std::size_t kCalibrationBlock = 16'384;

}  // namespace

double lomax_cdf(double x, double shape, double scale) noexcept {
  if (x <= 0.0) return 0.0;
  return 1.0 - std::pow(1.0 + x / scale, -shape);
}

double lomax_cdf_inverse(double u, double shape, double scale) noexcept {
  u = std::clamp(u, 0.0, 1.0 - 1e-15);
  return scale * (std::pow(1.0 - u, -1.0 / shape) - 1.0);
}

double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }

double bisect_nondecreasing(double lo, double hi, double target,
                            int iterations,
                            const std::function<double(double)>& f) {
  // Expand hi until it brackets the target (or give up and return hi).
  for (int i = 0; i < 64 && f(hi) < target; ++i) hi *= 2.0;
  for (int i = 0; i < iterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (f(mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double PopularityModel::upload_hour_boost(int hour) noexcept {
  // Smooth bump peaking at 20:00 (the diurnal peak), trough near 08:00.
  return std::cos(2.0 * std::numbers::pi * (hour - 20.0) / 24.0);
}

PopularityAssignment PopularityModel::assign(
    const WorkloadConfig& config, const PhotoCatalog& catalog,
    std::vector<double> window_mass, Rng& rng, ThreadPool& pool) const {
  const std::size_t n = catalog.photo_count();
  if (window_mass.size() != n) {
    throw std::invalid_argument("PopularityModel: window_mass size mismatch");
  }
  if (n == 0) return {};

  PopularityAssignment result;
  result.score.resize(n);

  // --- Raw scores -----------------------------------------------------------
  // The pure per-photo terms run on the pool: the quality, type and hour
  // terms summed left to right, and the window-mass term (in window_mass's
  // own storage). The noise draw and the two remaining additions stay
  // serial, in the serial expression's association order.
  std::vector<double> fixed_term(n);
  pool.parallel_for_blocks(
      n, kCalibrationBlock, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const PhotoMeta& photo = catalog.photo(static_cast<PhotoId>(i));
          const OwnerMeta& owner = catalog.owner(photo.owner);
          int type_slot = type_index(photo.type);
          if (config.type_popularity_rotation_days > 0) {
            // Concept drift: rotate the type->popularity mapping by upload
            // day.
            const std::int64_t shift = day_index(photo.upload_time) /
                                       config.type_popularity_rotation_days;
            type_slot = static_cast<int>(
                ((type_slot + shift) % kPhotoTypeCount + kPhotoTypeCount) %
                kPhotoTypeCount);
          }
          const double type_term =
              config.type_popularity[static_cast<std::size_t>(type_slot)];
          const double hour_term =
              upload_hour_boost(hour_of_day(photo.upload_time));
          fixed_term[i] = config.weight_owner_quality *
                              static_cast<double>(owner.quality) +
                          config.weight_type * type_term +
                          config.weight_upload_hour * hour_term;
          window_mass[i] = config.weight_window_mass *
                           std::log(std::max(window_mass[i], 1e-9));
        }
      });
  double mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double raw = fixed_term[i] + config.weight_noise * rng.normal() +
                       window_mass[i];
    result.score[i] = static_cast<float>(raw);
    mean += raw;
  }
  mean /= static_cast<double>(n);
  double variance = 0.0;
  for (const float s : result.score) {
    const double d = static_cast<double>(s) - mean;
    variance += d * d;
  }
  const double stddev = std::sqrt(variance / static_cast<double>(n));
  const double inv_std = stddev > 0.0 ? 1.0 / stddev : 1.0;
  for (float& s : result.score) {
    s = static_cast<float>((static_cast<double>(s) - mean) * inv_std);
  }

  // --- One-time threshold ----------------------------------------------------
  // P(one-time | z) = 1 - sigmoid((z - theta)/tau); increasing in theta, so
  // the expected fraction is nondecreasing and bisection applies. The terms
  // are computed in parallel, then added serially in photo order: the one
  // order that gives theta its bits. They live in window_mass's storage,
  // which the raw scores no longer need.
  const double tau = config.sigmoid_tau;
  std::vector<double>& one_time_term = window_mass;
  const auto expected_one_time = [&](double theta) {
    pool.parallel_for_blocks(
        n, kCalibrationBlock, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            one_time_term[i] =
                1.0 -
                sigmoid((static_cast<double>(result.score[i]) - theta) / tau);
          }
        });
    double acc = 0.0;
    for (const double term : one_time_term) acc += term;
    return acc / static_cast<double>(n);
  };
  result.theta = bisect_nondecreasing(-20.0, 20.0,
                                      config.one_time_object_fraction, 60,
                                      expected_one_time);

  // --- Draw one-time vs multi -------------------------------------------------
  result.count.assign(n, 1);
  std::vector<std::size_t> multi;
  multi.reserve(n / 2);
  for (std::size_t i = 0; i < n; ++i) {
    const double p_one =
        1.0 -
        sigmoid((static_cast<double>(result.score[i]) - result.theta) / tau);
    if (!rng.bernoulli(p_one)) multi.push_back(i);
  }

  // --- Heavy-tailed counts for multi-access photos -----------------------------
  // Target mean count mu makes one-time accesses the configured share:
  // share = N1 / (N * mu)  =>  mu = object_fraction / access_share.
  const double mu =
      config.one_time_object_fraction / config.one_time_access_share;
  if (mu < 1.0) {
    throw std::invalid_argument(
        "WorkloadConfig: one_time_access_share too large for object fraction");
  }
  const std::size_t n_multi = multi.size();
  if (n_multi > 0) {
    const ZipfSampler tail{100'000, config.count_tail_alpha};
    // exp(beta*z) on the pool; the tail draws stay serial. A product of
    // two doubles has the same bits in either operand order.
    std::vector<double> gain(n_multi);
    pool.parallel_for_blocks(
        n_multi, kCalibrationBlock, [&](std::size_t begin, std::size_t end) {
          for (std::size_t j = begin; j < end; ++j) {
            gain[j] = std::exp(config.count_score_beta *
                               static_cast<double>(result.score[multi[j]]));
          }
        });
    for (double& g : gain) g *= static_cast<double>(tail.sample(rng));
    const double max_extra =
        static_cast<double>(config.max_accesses_per_photo) - 2.0;
    // Every term is an integer-valued double and the total stays far below
    // 2^53, so the per-block partial sums are exact in any order.
    std::vector<double> partial((n_multi + kCalibrationBlock - 1) /
                                kCalibrationBlock);
    const auto mean_count = [&](double s) {
      pool.parallel_for_blocks(
          n_multi, kCalibrationBlock, [&](std::size_t begin, std::size_t end) {
            double sum = 0.0;
            for (std::size_t j = begin; j < end; ++j) {
              sum += 2.0 + std::min(max_extra, std::floor(s * gain[j]));
            }
            partial[begin / kCalibrationBlock] = sum;
          });
      double total = static_cast<double>(n - n_multi);  // one-time photos
      for (const double sum : partial) total += sum;
      return total / static_cast<double>(n);
    };
    result.count_scale =
        bisect_nondecreasing(0.0, 4.0, mu, 60, mean_count);
    for (std::size_t j = 0; j < n_multi; ++j) {
      const double extra =
          std::min(max_extra, std::floor(result.count_scale * gain[j]));
      result.count[multi[j]] =
          static_cast<std::uint32_t>(2.0 + extra);
    }
  }
  return result;
}

}  // namespace otac
