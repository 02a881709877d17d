#include "net/daemon.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/run_metrics.h"
#include "core/shard_engine.h"
#include "core/sharded_cache.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "storage/latency_model.h"

namespace otac::net {

namespace {

/// Protocol-violation errors carry the 1-based frame position, matching
/// the codec's own messages (net/protocol.cpp).
[[noreturn]] void fail_frame(std::uint64_t frame_number,
                             const std::string& text) {
  throw std::runtime_error("frame " + std::to_string(frame_number) + ": " +
                           text);
}

/// One client socket plus the lock serializing reply writes to it: the
/// owning reader thread and any shard worker may answer concurrently.
struct Connection {
  UniqueFd fd;
  std::mutex write_mutex;
};

/// One in-flight request, parked in its shard's inbound queue between the
/// connection reader and the shard worker.
struct Envelope {
  std::shared_ptr<Connection> conn;
  std::uint64_t sequence = 0;
  std::uint64_t index = 0;  ///< trace request index (GET only)
  PhotoId photo = 0;
  bool is_put = false;
};

/// Bounded MPSC ring of envelopes for one shard. Push blocks while full
/// (TCP backpressure) unless the caller opts for try_push (RETRY replies).
/// Stop is drain-then-exit: pop_batch keeps returning queued work after
/// stop() and yields 0 only once the ring is empty, so a graceful stop
/// never discards accepted requests.
class InboundQueue {
 public:
  explicit InboundQueue(std::size_t capacity) : ring_(capacity) {}

  bool push(Envelope&& envelope) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [&] { return count_ < ring_.size() || stopped_; });
    if (stopped_) return false;
    ring_[(head_ + count_) % ring_.size()] = std::move(envelope);
    ++count_;
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; on failure the envelope is left intact.
  bool try_push(Envelope&& envelope) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_ || count_ == ring_.size()) return false;
    ring_[(head_ + count_) % ring_.size()] = std::move(envelope);
    ++count_;
    not_empty_.notify_one();
    return true;
  }

  /// Block until at least one envelope (or a drained stop), then hand out
  /// up to `max` in arrival order and mark the worker busy until
  /// mark_idle(). Returns 0 only when stopped and empty.
  std::size_t pop_batch(Envelope* out, std::size_t max) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return count_ > 0 || stopped_; });
    const std::size_t gathered = std::min(count_, max);
    for (std::size_t i = 0; i < gathered; ++i) {
      out[i] = std::move(ring_[head_]);
      head_ = (head_ + 1) % ring_.size();
    }
    count_ -= gathered;
    if (gathered > 0) {
      busy_ = true;
      not_full_.notify_all();
    }
    return gathered;
  }

  void mark_idle() {
    const std::lock_guard<std::mutex> lock(mutex_);
    busy_ = false;
    if (count_ == 0) idle_.notify_all();
  }

  /// Block until the queue is empty AND the worker is parked — the
  /// retrain-barrier quiesce point. Only meaningful while dispatch is
  /// blocked (the caller holds the dispatch lock exclusively).
  void wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [&] { return count_ == 0 && !busy_; });
  }

  void stop() {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::condition_variable idle_;
  std::vector<Envelope> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  bool busy_ = false;
  bool stopped_ = false;
};

/// The transport half of one shard: its inbound queue and the worker
/// thread that feeds the queue's requests to the shard engine.
struct ShardWorker {
  explicit ShardWorker(std::size_t queue_capacity) : inbound(queue_capacity) {}

  InboundQueue inbound;
  std::thread thread;
  obs::FixedHistogram* gather_sizes = nullptr;  // physical gather width
};

ResultStatus status_of(ShardEngine::Outcome outcome) noexcept {
  switch (outcome) {
    case ShardEngine::Outcome::hit:
      return ResultStatus::hit;
    case ShardEngine::Outcome::stored:
      return ResultStatus::miss_admitted;
    case ShardEngine::Outcome::rejected:
      break;
    case ShardEngine::Outcome::shed:
      return ResultStatus::shed;
  }
  return ResultStatus::miss_rejected;
}

}  // namespace

struct Daemon::Impl {
  Impl(const IntelligentCache& system_in, DaemonConfig config_in)
      : system(&system_in),
        trace(&system_in.trace()),
        config(std::move(config_in)) {}

  const IntelligentCache* system;
  const Trace* trace;
  DaemonConfig config;

  double hit_latency_us = 0.0;
  double miss_latency_us = 0.0;

  // Everything that serves, retrains and reports (built by start()).
  // Readers dispatch under a shared lock; advancing the engine past an
  // epoch end takes it exclusively and waits for every shard queue to
  // drain first.
  std::unique_ptr<ShardEngine> engine;
  RunResult result;
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::shared_mutex dispatch_mutex;

  UniqueFd listener;
  std::uint16_t bound_port = 0;
  std::thread acceptor;
  std::mutex connections_mutex;
  std::vector<std::shared_ptr<Connection>> connections;
  std::vector<std::thread> connection_threads;

  std::atomic<bool> stop_flag{false};
  bool started = false;
  std::once_flag stop_once;
  std::atomic<bool> finalized{false};
  std::mutex shutdown_mutex;
  std::condition_variable shutdown_cv;
  bool shutdown_requested = false;

  // Transport counters (DaemonWireStats); relaxed — they order nothing.
  std::atomic<std::uint64_t> connections_total{0};
  std::atomic<std::uint64_t> frames_received{0};
  std::atomic<std::uint64_t> frames_sent{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> retry_replies{0};
  std::atomic<std::uint64_t> shed_replies{0};
  std::atomic<std::uint64_t> get_requests{0};
  std::atomic<std::uint64_t> put_requests{0};

  void start();
  void accept_loop();
  void serve_connection(const std::shared_ptr<Connection>& conn);
  bool dispatch_frame(const std::shared_ptr<Connection>& conn,
                      const FrameHeader& header,
                      std::span<const std::uint8_t> payload,
                      std::uint64_t frame_number);
  void enqueue(Envelope&& envelope);
  void maybe_barrier(std::uint64_t index);
  void quiesce_locked();
  void advance_locked(std::uint64_t index);
  void worker_loop(std::size_t s);
  void send_frame(Connection& conn, const std::uint8_t* data,
                  std::size_t size);
  void send_result(Envelope& envelope, ResultStatus status, bool degraded);
  void send_error(Connection& conn, const std::string& text);
  SummaryPayload build_summary_locked();
  void finish_locked();
  void populate_wire_metrics();
  void stop();
};

void Daemon::Impl::start() {
  // Validates the RunConfig and builds every shard; throws before any
  // socket or thread exists.
  // otac-lint: allow(hotpath-alloc) one-time construction, not per-request
  engine = std::make_unique<ShardEngine>(*system, config.run,
                                         config.publish_lag_requests);
  const LatencyModel latency{config.run.latency};
  const bool classified_path = classifies(config.run.mode);
  hit_latency_us = latency.request_latency_us(true, classified_path);
  miss_latency_us = latency.request_latency_us(false, classified_path);

  const std::size_t queue_capacity =
      std::max<std::size_t>(1, config.queue_capacity);
  for (std::size_t s = 0; s < config.run.shards; ++s) {
    // Cold: per-shard construction, once per daemon.
    // otac-lint: allow(hotpath-alloc)
    workers.push_back(std::make_unique<ShardWorker>(queue_capacity));
    workers.back()->gather_sizes = engine->shard_registry(s).histogram(
        "daemon.batch_gather_size", admission_batch_histogram_bounds());
  }

  listener = tcp_listen(config.host, config.port);
  bound_port = local_port(listener.get());
  for (std::size_t s = 0; s < workers.size(); ++s) {
    workers[s]->thread = std::thread([this, s] { worker_loop(s); });
  }
  acceptor = std::thread([this] { accept_loop(); });
  started = true;
}

void Daemon::Impl::accept_loop() {
  while (!stop_flag.load(std::memory_order_relaxed)) {
    pollfd waiter{};
    waiter.fd = listener.get();
    waiter.events = POLLIN;
    const int ready = ::poll(&waiter, 1, 100);
    if (ready <= 0) continue;  // timeout or EINTR; bounded by the stop flag
    const int fd = ::accept(listener.get(), nullptr, nullptr);
    if (fd < 0) continue;
    if (stop_flag.load(std::memory_order_relaxed)) {
      UniqueFd{fd}.reset();
      break;
    }
    // Cold: per-connection setup, not the per-frame path.
    // otac-lint: allow(hotpath-alloc)
    auto connection = std::make_shared<Connection>();
    connection->fd = UniqueFd{fd};
    connections_total.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(connections_mutex);
    // otac-lint: allow(hotpath-alloc)
    connections.push_back(connection);
    // otac-lint: allow(hotpath-alloc)
    connection_threads.emplace_back(
        [this, connection] { serve_connection(connection); });
  }
}

void Daemon::Impl::serve_connection(const std::shared_ptr<Connection>& conn) {
  // Client frames carry fixed-size payloads (checked against the header
  // before the payload read), so one small stack buffer serves the whole
  // connection — the inbound path allocates nothing per frame.
  std::array<std::uint8_t, kHeaderBytes> head{};
  std::array<std::uint8_t, 64> body{};
  static_assert(kGetPayloadBytes <= 64 && kPutPayloadBytes <= 64);
  std::uint64_t frames = 0;
  bool running = true;
  while (running && !stop_flag.load(std::memory_order_relaxed)) {
    const std::size_t got =
        recv_exact(conn->fd.get(), head.data(), head.size());
    if (got == 0) break;  // clean EOF at a frame boundary
    const std::uint64_t number = frames + 1;
    try {
      const FrameHeader header = decode_header(
          std::span<const std::uint8_t>(head.data(), got), number);
      check_client_frame(header, number);
      std::size_t body_got = 0;
      if (header.payload_size > 0) {
        body_got = recv_exact(conn->fd.get(), body.data(),
                              header.payload_size);
      }
      verify_payload(
          header, std::span<const std::uint8_t>(body.data(), body_got),
          number);
      frames_received.fetch_add(1, std::memory_order_relaxed);
      ++frames;
      running = dispatch_frame(
          conn, header,
          std::span<const std::uint8_t>(body.data(), header.payload_size),
          number);
    } catch (const std::exception& error) {
      // Protocol violation: answer with the exact decode error, then drop
      // the connection — resynchronizing a corrupt byte stream is not
      // worth guessing at frame boundaries.
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(*conn, error.what());
      running = false;
    }
  }
  conn->fd.shutdown_both();
}

bool Daemon::Impl::dispatch_frame(const std::shared_ptr<Connection>& conn,
                                  const FrameHeader& header,
                                  std::span<const std::uint8_t> payload,
                                  std::uint64_t frame_number) {
  switch (header.type) {
    case FrameType::get_request: {
      const GetPayload get = decode_get(payload, frame_number);
      if (get.index >= trace->requests.size()) {
        fail_frame(frame_number,
                   "get index " + std::to_string(get.index) +
                       " out of range (trace has " +
                       std::to_string(trace->requests.size()) + " requests)");
      }
      const Request& request = trace->requests[get.index];
      if (get.photo != request.photo) {
        // The strongest seed/scale-mismatch canary available: client and
        // server must be generating the same trace.
        fail_frame(frame_number,
                   "get photo " + std::to_string(get.photo) +
                       " does not match trace request " +
                       std::to_string(get.index) + " (expected " +
                       std::to_string(request.photo) +
                       "; client/server seed or scale mismatch)");
      }
      get_requests.fetch_add(1, std::memory_order_relaxed);
      maybe_barrier(get.index);
      Envelope envelope;
      envelope.conn = conn;
      envelope.sequence = header.sequence;
      envelope.index = get.index;
      envelope.photo = request.photo;
      enqueue(std::move(envelope));
      return true;
    }
    case FrameType::put_request: {
      const PutPayload put = decode_put(payload, frame_number);
      if (put.photo >= trace->catalog.photo_count()) {
        fail_frame(frame_number,
                   "put photo " + std::to_string(put.photo) +
                       " out of range (catalog has " +
                       std::to_string(trace->catalog.photo_count()) +
                       " photos)");
      }
      put_requests.fetch_add(1, std::memory_order_relaxed);
      Envelope envelope;
      envelope.conn = conn;
      envelope.sequence = header.sequence;
      envelope.photo = put.photo;
      envelope.is_put = true;
      enqueue(std::move(envelope));
      return true;
    }
    case FrameType::stats_request: {
      // End-of-stream snapshot: quiesce every shard, run every remaining
      // retrain barrier, and summarize the engine's totals.
      SummaryPayload summary;
      {
        const std::unique_lock<std::shared_mutex> lock(dispatch_mutex);
        advance_locked(trace->requests.size());
        summary = build_summary_locked();
      }
      std::array<std::uint8_t, kSummaryFrameBytes> frame{};
      encode_summary_frame(frame.data(), header.sequence, summary);
      send_frame(*conn, frame.data(), frame.size());
      return true;
    }
    case FrameType::report_request: {
      std::string json;
      {
        const std::unique_lock<std::shared_mutex> lock(dispatch_mutex);
        quiesce_locked();
        finish_locked();
        json = result.obs.to_json();
      }
      const std::vector<std::uint8_t> frame = encode_frame(
          FrameType::report, header.sequence,
          std::span<const std::uint8_t>(
              reinterpret_cast<const std::uint8_t*>(json.data()),
              json.size()));
      send_frame(*conn, frame.data(), frame.size());
      return true;
    }
    case FrameType::shutdown_request: {
      const std::vector<std::uint8_t> frame =
          encode_frame(FrameType::shutdown_ack, header.sequence, {});
      send_frame(*conn, frame.data(), frame.size());
      {
        const std::lock_guard<std::mutex> lock(shutdown_mutex);
        shutdown_requested = true;
      }
      shutdown_cv.notify_all();
      return false;
    }
    case FrameType::result:
    case FrameType::summary:
    case FrameType::report:
    case FrameType::shutdown_ack:
    case FrameType::error:
      break;  // unreachable: check_client_frame already rejected these
  }
  fail_frame(frame_number, "unexpected frame type in dispatch");
}

void Daemon::Impl::enqueue(Envelope&& envelope) {
  const std::size_t s = shard_of_photo(envelope.photo, workers.size());
  // Shared dispatch lock: many readers enqueue concurrently; a retrain
  // barrier (or a stats/report snapshot) excludes them all.
  const std::shared_lock<std::shared_mutex> lock(dispatch_mutex);
  InboundQueue& inbound = workers[s]->inbound;
  if (config.retry_when_full) {
    if (!inbound.try_push(std::move(envelope))) {
      retry_replies.fetch_add(1, std::memory_order_relaxed);
      send_result(envelope, ResultStatus::retry, false);
    }
    return;
  }
  // Blocking dispatch: queue-full pressure propagates to the client as
  // TCP backpressure. A false return means the daemon is stopping; the
  // request is dropped with the connection.
  (void)inbound.push(std::move(envelope));
}

void Daemon::Impl::maybe_barrier(std::uint64_t index) {
  // The epoch rule, as in the replay: the barrier for trigger t runs
  // before any request with index > t is dispatched. The fast path is one
  // atomic load; the check repeats under the dispatch lock because
  // another reader may have advanced the engine meanwhile.
  if (index < engine->epoch_end()) return;
  const std::unique_lock<std::shared_mutex> lock(dispatch_mutex);
  if (index < engine->epoch_end()) return;
  advance_locked(index);
}

void Daemon::Impl::quiesce_locked() {
  // Dispatch is excluded (unique lock held), so each queue drains
  // monotonically; after this loop every shard worker is parked.
  for (const auto& worker : workers) worker->inbound.wait_idle();
}

void Daemon::Impl::advance_locked(std::uint64_t index) {
  // Every worker is parked, so each new generation serves exactly the
  // replay's "requests from the next epoch on".
  quiesce_locked();
  populate_wire_metrics();
  engine->advance(index);
}

void Daemon::Impl::worker_loop(std::size_t s) {
  // One gather's envelopes live on the worker stack; pop_batch hands out
  // at most one admission batch per call, and returns 0 only once the
  // daemon is stopping and the queue has drained.
  ShardWorker& worker = *workers[s];
  constexpr std::size_t kBatch = ServingCore::kAdmissionBatchCapacity;
  std::array<Envelope, kBatch> batch;
  std::array<std::uint64_t, kBatch> indices{};
  std::array<ShardEngine::RowOutcome, kBatch> outcomes{};
  while (const std::size_t gathered =
             worker.inbound.pop_batch(batch.data(), batch.size())) {
    worker.gather_sizes->add(static_cast<double>(gathered));
    // Arrival order is serving order: each run of consecutive GETs is one
    // engine batch, and a PUT between runs is one upsert.
    std::size_t begin = 0;
    while (begin < gathered) {
      if (batch[begin].is_put) {
        engine->upsert(s, batch[begin].photo);
        send_result(batch[begin], ResultStatus::put_ok, false);
        ++begin;
        continue;
      }
      std::size_t end = begin;
      for (; end < gathered && !batch[end].is_put; ++end) {
        indices[end - begin] = batch[end].index;
      }
      engine->serve_batch(s, indices.data(), end - begin, outcomes.data());
      for (std::size_t b = begin; b < end; ++b) {
        const ShardEngine::RowOutcome& row = outcomes[b - begin];
        if (row.outcome == ShardEngine::Outcome::shed) {
          shed_replies.fetch_add(1, std::memory_order_relaxed);
        }
        send_result(batch[b], status_of(row.outcome), row.degraded);
      }
      begin = end;
    }
    // Drop connection references before parking so clients that left
    // don't linger until the next gather overwrites the slots.
    for (std::size_t b = 0; b < gathered; ++b) batch[b] = Envelope{};
    worker.inbound.mark_idle();
  }
}

void Daemon::Impl::send_frame(Connection& conn, const std::uint8_t* data,
                              std::size_t size) {
  bool sent = false;
  {
    const std::lock_guard<std::mutex> lock(conn.write_mutex);
    sent = send_all(conn.fd.get(), data, size);
  }
  if (sent) frames_sent.fetch_add(1, std::memory_order_relaxed);
}

void Daemon::Impl::send_result(Envelope& envelope, ResultStatus status,
                               bool degraded) {
  ResultPayload payload;
  payload.status = status;
  payload.degraded = static_cast<std::uint8_t>(degraded ? 1 : 0);
  if (status == ResultStatus::hit) {
    payload.latency_us = hit_latency_us;
  } else if (status == ResultStatus::miss_admitted ||
             status == ResultStatus::miss_rejected) {
    payload.latency_us = miss_latency_us;
  }
  std::array<std::uint8_t, kResultFrameBytes> frame{};
  encode_result_frame(frame.data(), envelope.sequence, payload);
  send_frame(*envelope.conn, frame.data(), frame.size());
}

void Daemon::Impl::send_error(Connection& conn, const std::string& text) {
  // Cold: protocol-violation reply.
  const std::vector<std::uint8_t> frame = encode_frame(
      FrameType::error, 0,
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  send_frame(conn, frame.data(), frame.size());
}

SummaryPayload Daemon::Impl::build_summary_locked() {
  const RunResult totals = engine->totals();
  SummaryPayload summary;
  summary.requests = totals.stats.requests;
  summary.hits = totals.stats.hits;
  summary.insertions = totals.stats.insertions;
  summary.rejected = totals.stats.rejected;
  summary.evictions = totals.stats.evictions;
  summary.shed_requests = totals.degradation.shed_requests;
  summary.degraded_admits = totals.degradation.degraded_admits;
  summary.overload_transitions = totals.degradation.overload_transitions;
  summary.retrain_timeouts = totals.degradation.retrain_timeouts;
  summary.trainings = static_cast<std::uint64_t>(totals.trainings);
  summary.eviction_hash = totals.stats.eviction_hash;
  summary.file_hit_rate = totals.stats.file_hit_rate();
  summary.byte_hit_rate = totals.stats.byte_hit_rate();
  summary.mean_latency_us = totals.mean_latency_us;
  summary.refused = totals.stats.refused;
  return summary;
}

void Daemon::Impl::populate_wire_metrics() {
  obs::MetricsRegistry& registry = engine->global_registry();
  registry.set("daemon.connections",
               connections_total.load(std::memory_order_relaxed));
  registry.set("daemon.frames_received",
               frames_received.load(std::memory_order_relaxed));
  registry.set("daemon.frames_sent",
               frames_sent.load(std::memory_order_relaxed));
  registry.set("daemon.get_requests",
               get_requests.load(std::memory_order_relaxed));
  registry.set("daemon.protocol_errors",
               protocol_errors.load(std::memory_order_relaxed));
  registry.set("daemon.put_requests",
               put_requests.load(std::memory_order_relaxed));
  registry.set("daemon.retry_replies",
               retry_replies.load(std::memory_order_relaxed));
  registry.set("daemon.shed_replies",
               shed_replies.load(std::memory_order_relaxed));
}

void Daemon::Impl::finish_locked() {
  // Every step is an assignment over cumulative state, so re-running it
  // (report frame, then stop) is idempotent. The engine's finish() runs
  // any retrain barrier still pending first.
  populate_wire_metrics();
  result = engine->finish(workers.size());  // one worker per shard
  result.obs.source = "otacd";
}

void Daemon::Impl::stop() {
  std::call_once(stop_once, [this] {
    {
      // Under the mutex so a concurrent wait_for_shutdown can't check the
      // predicate and park between the store and the notify.
      const std::lock_guard<std::mutex> lock(shutdown_mutex);
      stop_flag.store(true, std::memory_order_relaxed);
    }
    shutdown_cv.notify_all();
    if (!started) {
      finalized.store(true, std::memory_order_release);
      return;
    }
    listener.shutdown_both();
    if (acceptor.joinable()) acceptor.join();
    {
      const std::lock_guard<std::mutex> lock(connections_mutex);
      for (const auto& connection : connections) {
        connection->fd.shutdown_both();
      }
    }
    // Wake any reader blocked on a full queue (its push returns false),
    // then let the workers drain everything already dispatched.
    for (const auto& worker : workers) worker->inbound.stop();
    for (auto& thread : connection_threads) {
      if (thread.joinable()) thread.join();
    }
    for (const auto& worker : workers) {
      if (worker->thread.joinable()) worker->thread.join();
    }
    {
      const std::unique_lock<std::shared_mutex> lock(dispatch_mutex);
      finish_locked();
    }
    finalized.store(true, std::memory_order_release);
  });
}

Daemon::Daemon(const IntelligentCache& system, DaemonConfig config)
    // otac-lint: allow(hotpath-alloc) one-time construction, not per-request
    : impl_(std::make_unique<Impl>(system, std::move(config))) {}

Daemon::~Daemon() { impl_->stop(); }

void Daemon::start() { impl_->start(); }

std::uint16_t Daemon::port() const { return impl_->bound_port; }

void Daemon::wait_for_shutdown() {
  std::unique_lock<std::mutex> lock(impl_->shutdown_mutex);
  impl_->shutdown_cv.wait(lock, [this] {
    return impl_->shutdown_requested ||
           impl_->stop_flag.load(std::memory_order_relaxed);
  });
}

void Daemon::stop() { impl_->stop(); }

const RunResult& Daemon::result() const {
  if (!impl_->finalized.load(std::memory_order_acquire)) {
    throw std::logic_error("Daemon::result() before stop()");
  }
  return impl_->result;
}

DaemonWireStats Daemon::wire_stats() const {
  DaemonWireStats out;
  out.connections =
      impl_->connections_total.load(std::memory_order_relaxed);
  out.frames_received =
      impl_->frames_received.load(std::memory_order_relaxed);
  out.frames_sent = impl_->frames_sent.load(std::memory_order_relaxed);
  out.protocol_errors =
      impl_->protocol_errors.load(std::memory_order_relaxed);
  out.retry_replies = impl_->retry_replies.load(std::memory_order_relaxed);
  out.shed_replies = impl_->shed_replies.load(std::memory_order_relaxed);
  out.get_requests = impl_->get_requests.load(std::memory_order_relaxed);
  out.put_requests = impl_->put_requests.load(std::memory_order_relaxed);
  return out;
}

}  // namespace otac::net
