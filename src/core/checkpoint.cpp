#include "core/checkpoint.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "core/run_metrics.h"
#include "util/crc32.h"
#include "util/failpoint.h"

namespace otac {

namespace {

constexpr std::uint32_t kMagic = 0x4F54434B;  // "OTCK"
constexpr std::uint32_t kVersion = 1;

enum SectionId : std::uint32_t {
  kParams = 1,
  kModel = 2,
  kHistory = 3,
  kTrainer = 4,
};
constexpr std::uint32_t kSectionCount = 4;

template <typename T>
void append_pod(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Checked sequential reader over the encoded bytes: every read is bounds
/// validated so corrupt length fields fail cleanly instead of overrunning.
struct Reader {
  const std::string& bytes;
  std::size_t pos = 0;

  [[nodiscard]] std::size_t remaining() const { return bytes.size() - pos; }

  template <typename T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) {
      throw std::runtime_error("checkpoint: truncated field");
    }
    T value;
    std::memcpy(&value, bytes.data() + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }

  std::string read_bytes(std::size_t size) {
    if (remaining() < size) {
      throw std::runtime_error("checkpoint: truncated payload");
    }
    std::string out = bytes.substr(pos, size);
    pos += size;
    return out;
  }
};

std::string encode_params(const ClassifierSnapshot& snap) {
  std::string out;
  append_pod(out, snap.m);
  append_pod(out, snap.h);
  append_pod(out, snap.p);
  append_pod(out, snap.cost_v);
  append_pod(out, snap.last_trained_day);
  append_pod(out, snap.last_trained_time);
  append_pod(out, static_cast<std::int32_t>(snap.trainings));
  return out;
}

std::string encode_history(const ClassifierSnapshot& snap) {
  std::string out;
  append_pod(out, snap.history_rectified);
  append_pod(out, static_cast<std::uint64_t>(snap.history.size()));
  for (const HistoryTable::Entry& entry : snap.history) {
    append_pod(out, entry.photo);
    append_pod(out, entry.index);
  }
  return out;
}

std::string encode_trainer(const ClassifierSnapshot& snap) {
  std::string out;
  append_pod(out, snap.trainer_minute);
  append_pod(out, static_cast<std::int32_t>(snap.trainer_minute_count));
  append_pod(out,
             static_cast<std::uint32_t>(FeatureExtractor::kFeatureCount));
  append_pod(out, static_cast<std::uint64_t>(snap.samples.size()));
  for (const TrainingSample& sample : snap.samples) {
    for (const float f : sample.features) append_pod(out, f);
    append_pod(out, sample.index);
    append_pod(out, sample.time.seconds);
  }
  return out;
}

void append_section(std::string& out, std::uint32_t id,
                    const std::string& payload) {
  append_pod(out, id);
  append_pod(out, static_cast<std::uint64_t>(payload.size()));
  out.append(payload);
  append_pod(out, crc32(payload));
}

void decode_params(const std::string& payload, ClassifierSnapshot& snap) {
  Reader in{payload};
  snap.m = in.read<double>();
  snap.h = in.read<double>();
  snap.p = in.read<double>();
  snap.cost_v = in.read<double>();
  snap.last_trained_day = in.read<std::int64_t>();
  snap.last_trained_time = in.read<std::int64_t>();
  snap.trainings = in.read<std::int32_t>();
  if (!std::isfinite(snap.m) || !std::isfinite(snap.h) ||
      !std::isfinite(snap.p) || !std::isfinite(snap.cost_v)) {
    throw std::runtime_error("checkpoint: non-finite criteria params");
  }
}

void decode_history(const std::string& payload, ClassifierSnapshot& snap) {
  Reader in{payload};
  snap.history_rectified = in.read<std::uint64_t>();
  const auto count = in.read<std::uint64_t>();
  constexpr std::size_t kEntryBytes =
      sizeof(PhotoId) + sizeof(std::uint64_t);
  if (count > in.remaining() / kEntryBytes) {
    throw std::runtime_error("checkpoint: history count exceeds section");
  }
  snap.history.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    HistoryTable::Entry entry;
    entry.photo = in.read<PhotoId>();
    entry.index = in.read<std::uint64_t>();
    snap.history.push_back(entry);
  }
}

void decode_trainer(const std::string& payload, ClassifierSnapshot& snap) {
  Reader in{payload};
  snap.trainer_minute = in.read<std::int64_t>();
  snap.trainer_minute_count = in.read<std::int32_t>();
  const auto feature_dim = in.read<std::uint32_t>();
  if (feature_dim != FeatureExtractor::kFeatureCount) {
    throw std::runtime_error("checkpoint: trainer feature arity mismatch");
  }
  const auto count = in.read<std::uint64_t>();
  constexpr std::size_t kSampleBytes =
      FeatureExtractor::kFeatureCount * sizeof(float) +
      sizeof(std::uint64_t) + sizeof(std::int64_t);
  if (count > in.remaining() / kSampleBytes) {
    throw std::runtime_error("checkpoint: sample count exceeds section");
  }
  snap.samples.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    TrainingSample sample;
    for (float& f : sample.features) f = in.read<float>();
    sample.index = in.read<std::uint64_t>();
    sample.time = SimTime{in.read<std::int64_t>()};
    snap.samples.push_back(sample);
  }
}

}  // namespace

std::string checkpoint_origin_name(CheckpointOrigin origin) {
  switch (origin) {
    case CheckpointOrigin::none:
      return "cold-start";
    case CheckpointOrigin::current:
      return "current";
    case CheckpointOrigin::previous:
      return "previous";
  }
  throw std::invalid_argument("checkpoint_origin_name: unknown origin");
}

CheckpointManager::CheckpointManager(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) {
    throw std::invalid_argument("CheckpointManager: empty directory");
  }
}

std::string CheckpointManager::current_path() const {
  return dir_ + "/classifier.otck";
}

std::string CheckpointManager::previous_path() const {
  return dir_ + "/classifier.prev.otck";
}

std::string CheckpointManager::temp_path() const {
  return dir_ + "/classifier.tmp.otck";
}

const std::vector<std::string>& CheckpointManager::failpoint_names() {
  static const std::vector<std::string> names = {
      "checkpoint.write.open_fail", "checkpoint.write.torn",
      "checkpoint.write.bitflip",   "checkpoint.write.crash",
      "checkpoint.rotate.fail",     "checkpoint.rename.fail",
      "checkpoint.load.io",
  };
  return names;
}

std::string CheckpointManager::encode(const ClassifierSnapshot& snapshot) {
  std::string out;
  append_pod(out, kMagic);
  append_pod(out, kVersion);
  append_pod(out, kSectionCount);
  append_section(out, kParams, encode_params(snapshot));
  append_section(out, kModel, snapshot.model_blob);
  append_section(out, kHistory, encode_history(snapshot));
  append_section(out, kTrainer, encode_trainer(snapshot));
  return out;
}

ClassifierSnapshot CheckpointManager::decode(const std::string& bytes) {
  Reader in{bytes};
  if (in.read<std::uint32_t>() != kMagic) {
    throw std::runtime_error("checkpoint: bad magic");
  }
  if (in.read<std::uint32_t>() != kVersion) {
    throw std::runtime_error("checkpoint: unsupported version");
  }
  const auto section_count = in.read<std::uint32_t>();
  if (section_count != kSectionCount) {
    throw std::runtime_error("checkpoint: wrong section count");
  }
  ClassifierSnapshot snap;
  bool seen[kSectionCount + 1] = {};
  for (std::uint32_t s = 0; s < section_count; ++s) {
    const auto id = in.read<std::uint32_t>();
    const auto size = in.read<std::uint64_t>();
    if (size > in.remaining()) {
      throw std::runtime_error("checkpoint: section size exceeds file");
    }
    const std::string payload = in.read_bytes(size);
    const auto stored_crc = in.read<std::uint32_t>();
    if (crc32(payload) != stored_crc) {
      throw std::runtime_error("checkpoint: section checksum mismatch");
    }
    if (id == 0 || id > kSectionCount || seen[id]) {
      throw std::runtime_error("checkpoint: bad section id");
    }
    seen[id] = true;
    switch (id) {
      case kParams:
        decode_params(payload, snap);
        break;
      case kModel:
        snap.model_blob = payload;
        break;
      case kHistory:
        decode_history(payload, snap);
        break;
      case kTrainer:
        decode_trainer(payload, snap);
        break;
      default:
        break;
    }
  }
  if (in.remaining() != 0) {
    throw std::runtime_error("checkpoint: trailing bytes");
  }
  return snap;
}

void CheckpointManager::save(const ClassifierSnapshot& snapshot) {
  const bool timed = save_seconds_ != nullptr;
  const auto started = timed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
  try {
    save_impl(snapshot);
  } catch (...) {
    if (save_failures_ != nullptr) ++*save_failures_;
    throw;
  }
  if (saves_ != nullptr) ++*saves_;
  if (timed) {
    save_seconds_->add(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - started)
                           .count());
  }
}

void CheckpointManager::save_impl(const ClassifierSnapshot& snapshot) {
  std::filesystem::create_directories(dir_);
  std::string payload = encode(snapshot);
  if (OTAC_FAILPOINT_ACTIVE("checkpoint.write.bitflip")) {
    // Silent media corruption: the write "succeeds" but a payload byte is
    // flipped; only the load-time CRC can catch this.
    payload[payload.size() / 2] ^= 0x40;
  }

  const std::string tmp = temp_path();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out || OTAC_FAILPOINT_ACTIVE("checkpoint.write.open_fail")) {
      throw std::runtime_error("checkpoint: cannot open " + tmp);
    }
    if (OTAC_FAILPOINT_ACTIVE("checkpoint.write.torn")) {
      // Crash mid-write: half the bytes land, then the process "dies".
      out.write(payload.data(),
                static_cast<std::streamsize>(payload.size() / 2));
      out.flush();
      throw fail::FailpointTriggered{"checkpoint.write.torn"};
    }
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) throw std::runtime_error("checkpoint: write failure");
    // Crash after a complete temp write but before publication: the temp
    // file is complete yet invisible to load() — still a clean recovery.
    OTAC_FAILPOINT_THROW("checkpoint.write.crash");
  }

  std::error_code ec;
  if (std::filesystem::exists(current_path())) {
    if (OTAC_FAILPOINT_ACTIVE("checkpoint.rotate.fail")) {
      throw std::runtime_error("checkpoint: rotate failed (injected)");
    }
    std::filesystem::rename(current_path(), previous_path(), ec);
    if (ec) {
      throw std::runtime_error("checkpoint: rotate failed: " + ec.message());
    }
  }
  if (OTAC_FAILPOINT_ACTIVE("checkpoint.rename.fail")) {
    throw std::runtime_error("checkpoint: rename failed (injected)");
  }
  // Atomic publication (POSIX rename within one directory).
  std::filesystem::rename(tmp, current_path(), ec);
  if (ec) {
    throw std::runtime_error("checkpoint: rename failed: " + ec.message());
  }
}

CheckpointLoad CheckpointManager::load() const {
  const bool timed = load_seconds_ != nullptr;
  const auto started = timed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
  const CheckpointLoad result = load_impl();
  switch (result.origin) {
    case CheckpointOrigin::current:
      if (loads_current_ != nullptr) ++*loads_current_;
      break;
    case CheckpointOrigin::previous:
      if (loads_previous_ != nullptr) ++*loads_previous_;
      break;
    case CheckpointOrigin::none:
      if (loads_cold_ != nullptr) ++*loads_cold_;
      break;
  }
  if (rejected_files_ != nullptr) {
    *rejected_files_ += static_cast<std::uint64_t>(result.rejected_files);
  }
  if (timed) {
    load_seconds_->add(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - started)
                           .count());
  }
  return result;
}

void CheckpointManager::configure_retry(const CheckpointRetryConfig& config) {
  retry_config_ = config;
  retry_backoff_ = ExponentialBackoff{config.backoff, config.backoff_seed};
}

bool CheckpointManager::save_with_retry(const ClassifierSnapshot& snapshot) {
  if (read_only_) {
    // Terminal state: durability was given up; serving goes on. Counted so
    // an operator can see how many snapshots were sacrificed.
    if (read_only_skips_ != nullptr) ++*read_only_skips_;
    return false;
  }
  retry_backoff_.reset();
  bool done = false;
  while (!done) {  // bounded by retry_backoff_.exhausted() below
    try {
      save(snapshot);
      return true;
    } catch (const std::exception&) {
      if (retry_backoff_.exhausted()) {
        // Budget spent: either surface the final error or fall through to
        // the terminal read-only state below.
        if (!retry_config_.read_only_on_exhaustion) throw;
        done = true;
      } else {
        // Transient storage faults (the write.* failpoints model media
        // errors and crash points) are re-attempted after a backoff delay;
        // save_impl starts from encode() so a half-written temp file from
        // the failed attempt is simply overwritten.
        const double delay_s = retry_backoff_.next_delay_s();
        if (save_retries_ != nullptr) ++*save_retries_;
        std::this_thread::sleep_for(std::chrono::duration<double>(delay_s));
      }
    }
  }
  read_only_ = true;
  if (read_only_skips_ != nullptr) ++*read_only_skips_;
  return false;
}

CheckpointLoad CheckpointManager::load_with_retry() {
  retry_backoff_.reset();
  CheckpointLoad result = load();
  // A generation that exists but was rejected may be a *transient* read
  // error (checkpoint.load.io) rather than corruption: re-read up to the
  // budget. Cold start with nothing on disk is final — no retry can help.
  while (result.origin == CheckpointOrigin::none && result.rejected_files > 0 &&
         !retry_backoff_.exhausted()) {
    const double delay_s = retry_backoff_.next_delay_s();
    if (load_retries_ != nullptr) ++*load_retries_;
    std::this_thread::sleep_for(std::chrono::duration<double>(delay_s));
    result = load();
  }
  return result;
}

void CheckpointManager::bind_metrics(obs::MetricsRegistry& registry) {
  saves_ = registry.counter("checkpoint.saves");
  save_failures_ = registry.counter("checkpoint.save_failures");
  save_retries_ = registry.counter("checkpoint.save_retries");
  load_retries_ = registry.counter("checkpoint.load_retries");
  read_only_skips_ = registry.counter("checkpoint.read_only_skips");
  loads_current_ = registry.counter("checkpoint.loads_current");
  loads_previous_ = registry.counter("checkpoint.loads_previous");
  loads_cold_ = registry.counter("checkpoint.loads_cold");
  rejected_files_ = registry.counter("checkpoint.rejected_files");
  save_seconds_ = registry.histogram("checkpoint.save_seconds",
                                     duration_histogram_bounds_s());
  load_seconds_ = registry.histogram("checkpoint.load_seconds",
                                     duration_histogram_bounds_s());
}

CheckpointLoad CheckpointManager::load_impl() const {
  CheckpointLoad result;
  const std::pair<std::string, CheckpointOrigin> generations[] = {
      {current_path(), CheckpointOrigin::current},
      {previous_path(), CheckpointOrigin::previous},
  };
  for (const auto& [path, origin] : generations) {
    std::ifstream in(path, std::ios::binary);
    if (!in) continue;  // generation absent — try the older one
    std::string bytes{std::istreambuf_iterator<char>{in},
                      std::istreambuf_iterator<char>{}};
    try {
      if (OTAC_FAILPOINT_ACTIVE("checkpoint.load.io")) {
        throw std::runtime_error("checkpoint: read failed (injected)");
      }
      result.snapshot = decode(bytes);
      result.origin = origin;
      return result;
    } catch (const std::exception&) {
      ++result.rejected_files;
      result.snapshot = ClassifierSnapshot{};
    }
  }
  result.origin = CheckpointOrigin::none;
  return result;
}

}  // namespace otac
