#include "trace/trace_generator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "trace/popularity_model.h"
#include "trace/social_model.h"
#include "util/alias_table.h"

namespace otac {

namespace {

/// Largest horizon whose times fit the 31-bit time field of a sort key.
constexpr std::int64_t kMaxHorizonSeconds = std::int64_t{1} << 31;

/// Orders `requests` by (time, photo, terminal), pc before mobile: a total
/// order on the request value, so the result is the same whichever correct
/// sort produces it.
///
/// Precondition: `requests` is ordered by photo (generate() appends events
/// photo by photo in ascending id) and every time is in [0, horizon_s).
/// Two stable LSD counting passes on time then yield (time, photo) order,
/// and one linear pass orders each run of equal (time, photo) by terminal.
/// The scratch buffer holds packed `time << 33 | photo << 1 | terminal`
/// keys: pass 1 scatters into it, pass 2 scatters back as Requests.
void sort_requests(std::vector<Request>& requests, std::int64_t horizon_s) {
  const auto time_bits = static_cast<unsigned>(
      std::bit_width(static_cast<std::uint64_t>(horizon_s - 1)));
  const unsigned lo_bits = time_bits / 2;
  const std::uint64_t lo_mask = (std::uint64_t{1} << lo_bits) - 1;
  std::vector<std::size_t> lo_start((std::size_t{1} << lo_bits) + 1, 0);
  std::vector<std::size_t> hi_start(
      (std::size_t{1} << (time_bits - lo_bits)) + 1, 0);
  for (const Request& r : requests) {
    const auto t = static_cast<std::uint64_t>(r.time.seconds);
    ++lo_start[(t & lo_mask) + 1];
    ++hi_start[(t >> lo_bits) + 1];
  }
  std::partial_sum(lo_start.begin(), lo_start.end(), lo_start.begin());
  std::partial_sum(hi_start.begin(), hi_start.end(), hi_start.begin());

  std::vector<std::uint64_t> keys(requests.size());
  for (const Request& r : requests) {
    const auto t = static_cast<std::uint64_t>(r.time.seconds);
    keys[lo_start[t & lo_mask]++] = t << 33 |
                                    static_cast<std::uint64_t>(r.photo) << 1 |
                                    static_cast<std::uint64_t>(r.terminal);
  }
  for (const std::uint64_t key : keys) {
    const std::uint64_t t = key >> 33;
    Request& r = requests[hi_start[t >> lo_bits]++];
    r.time = SimTime{static_cast<std::int64_t>(t)};
    r.photo = static_cast<PhotoId>(key >> 1);
    r.terminal = static_cast<TerminalType>(key & 1);
  }

  // Equal (time, photo) runs: pc first, then mobile.
  const std::size_t n = requests.size();
  for (std::size_t begin = 0, end = 0; begin < n; begin = end) {
    std::size_t mobiles = 0;
    for (end = begin; end < n && requests[end].time == requests[begin].time &&
                      requests[end].photo == requests[begin].photo;
         ++end) {
      mobiles += requests[end].terminal == TerminalType::mobile;
    }
    for (std::size_t i = begin; i < end; ++i) {
      requests[i].terminal =
          i < end - mobiles ? TerminalType::pc : TerminalType::mobile;
    }
  }
}

}  // namespace

double Trace::total_request_bytes() const {
  double total = 0.0;
  for (const Request& request : requests) {
    total += catalog.photo(request.photo).size_bytes;
  }
  return total;
}

AccessWindow access_window(const WorkloadConfig& config,
                           const PhotoCatalog& catalog, ThreadPool& pool) {
  constexpr std::size_t kBlock = 16'384;
  const double shape = config.decay_shape;
  const double scale_s = config.decay_scale_days * kSecondsPerDay;
  const std::int64_t horizon_s = from_days(config.horizon_days).seconds;
  const std::span<const PhotoMeta> photos = catalog.photos();
  const std::size_t n = photos.size();
  AccessWindow window;
  window.cdf_lo.resize(n);
  window.cdf_hi.resize(n);
  window.mass.resize(n);
  pool.parallel_for_blocks(n, kBlock, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::int64_t upload = photos[i].upload_time.seconds;
      const double lo = static_cast<double>(std::max<std::int64_t>(0, -upload));
      const double hi = static_cast<double>(horizon_s - upload);
      window.cdf_lo[i] = lomax_cdf(lo, shape, scale_s);
      window.cdf_hi[i] = lomax_cdf(hi, shape, scale_s);
      window.mass[i] = std::max(window.cdf_hi[i] - window.cdf_lo[i], 1e-9);
    }
  });
  return window;
}

Trace TraceGenerator::generate() const {
  const WorkloadConfig& config = config_;
  if (config.num_photos == 0 || config.num_owners == 0) {
    throw std::invalid_argument("TraceGenerator: empty population");
  }
  const std::int64_t horizon_s = from_days(config.horizon_days).seconds;
  if (horizon_s < 1) {
    throw std::invalid_argument("TraceGenerator: horizon must be positive");
  }
  if (horizon_s > kMaxHorizonSeconds) {
    throw std::invalid_argument("TraceGenerator: horizon exceeds 2^31 s");
  }

  Rng master{config.seed};
  Rng owner_rng = master.fork(1);
  Rng photo_rng = master.fork(2);
  Rng pop_rng = master.fork(3);
  Rng event_rng = master.fork(4);

  Trace trace;
  trace.config = config;
  trace.horizon = SimTime{horizon_s};

  // --- 1. Owners -------------------------------------------------------------
  std::vector<OwnerMeta> owners = generate_owners(config, owner_rng);
  std::vector<double> owner_weights(owners.size());
  for (std::size_t i = 0; i < owners.size(); ++i) {
    owner_weights[i] = owners[i].activity;
  }
  const AliasTable owner_sampler{owner_weights};
  const AliasTable type_sampler{
      std::span<const double>{config.type_mix.data(), config.type_mix.size()}};
  const DiurnalModel diurnal{config.diurnal};

  // --- 2. Photos ---------------------------------------------------------------
  std::vector<PhotoMeta> photos;
  photos.reserve(config.num_photos);
  for (std::uint32_t i = 0; i < config.num_photos; ++i) {
    PhotoMeta photo;
    photo.owner = static_cast<UserId>(owner_sampler.sample(photo_rng));
    owners[photo.owner].photo_count += 1;
    photo.type = type_from_index(static_cast<int>(type_sampler.sample(photo_rng)));

    const double median =
        config.resolution_size_bytes[static_cast<std::size_t>(
            photo.type.resolution)] *
        (photo.type.format == PhotoFormat::png ? config.png_size_factor : 1.0);
    const double size =
        median * std::exp(config.size_sigma * photo_rng.normal());
    photo.size_bytes = static_cast<std::uint32_t>(
        std::clamp(size, 512.0, 16.0 * 1024.0 * 1024.0));

    // Upload day uniform over [-backlog, horizon); second-of-day diurnal.
    const std::int64_t upload_day = photo_rng.uniform_int(
        -from_days(config.backlog_days).seconds / kSecondsPerDay,
        horizon_s / kSecondsPerDay - 1);
    photo.upload_time = SimTime{upload_day * kSecondsPerDay +
                                diurnal.sample_second_of_day(photo_rng)};
    photos.push_back(photo);
  }
  trace.catalog = PhotoCatalog{std::move(photos), std::move(owners)};

  // --- 3. Popularity / counts ----------------------------------------------------
  ThreadPool pool;
  AccessWindow window = access_window(config, trace.catalog, pool);
  const PopularityModel popularity;
  PopularityAssignment assignment =
      popularity.assign(config, trace.catalog, std::move(window.mass),
                        pop_rng, pool);
  trace.latent_score = assignment.score;

  // --- 4. Events --------------------------------------------------------------------
  std::size_t total_events = 0;
  for (const std::uint32_t c : assignment.count) total_events += c;
  trace.requests.reserve(total_events);

  const double shape = config.decay_shape;
  const double scale_s = config.decay_scale_days * kSecondsPerDay;
  for (std::size_t i = 0; i < assignment.count.size(); ++i) {
    const auto id = static_cast<PhotoId>(i);
    const std::int64_t upload = trace.catalog.photo(id).upload_time.seconds;
    for (std::uint32_t k = 0; k < assignment.count[i]; ++k) {
      // Offset drawn from the Lomax kernel truncated to the window.
      const double u =
          window.cdf_lo[i] +
          event_rng.next_double() * (window.cdf_hi[i] - window.cdf_lo[i]);
      const double offset = lomax_cdf_inverse(u, shape, scale_s);
      const std::int64_t raw_time =
          upload + static_cast<std::int64_t>(offset);
      // Preserve the day (decay structure) but redistribute the second of
      // day along the diurnal curve.
      const std::int64_t day = day_index(SimTime{std::clamp<std::int64_t>(
          raw_time, 0, horizon_s - 1)});
      std::int64_t when =
          day * kSecondsPerDay + diurnal.sample_second_of_day(event_rng);
      if (when <= upload) {
        // Same-day access drawn before the upload instant: nudge it to just
        // after upload (a few minutes of jitter), staying inside the window.
        const auto jitter = static_cast<std::int64_t>(
            event_rng.exponential(1.0 / (10.0 * kSecondsPerMinute)));
        when = std::min<std::int64_t>(upload + 1 + jitter, horizon_s - 1);
      }
      when = std::clamp<std::int64_t>(when, 0, horizon_s - 1);

      Request request;
      request.time = SimTime{when};
      request.photo = id;
      request.terminal = event_rng.bernoulli(config.mobile_share)
                             ? TerminalType::mobile
                             : TerminalType::pc;
      trace.requests.push_back(request);
    }
  }

  // --- 5. Sort -----------------------------------------------------------------------
  // Step 4 appended the events photo by photo in ascending id, which is
  // sort_requests' precondition.
  sort_requests(trace.requests, horizon_s);
  return trace;
}

Trace generate_default_trace(double scale, std::uint64_t seed) {
  WorkloadConfig config;
  config.seed = seed;
  TraceGenerator generator{scaled(config, scale)};
  return generator.generate();
}

}  // namespace otac
