// otacd — the network serving daemon: a transport around the serving
// engine (core/shard_engine.h) behind the length-prefixed wire protocol
// (net/protocol.h) on a TCP loopback socket.
//
// The daemon is a *networked replay*: server and client independently
// generate the same seeded trace, so GET frames address requests by trace
// index and the server retains everything the in-process replay has — the
// photo catalog, the next-access oracle for training labels, the criteria
// M, and the engine's retrain triggers. Serving, retraining and reporting
// are the very ShardEngine calls ShardedCache::run makes, which is what
// lets a loopback run reproduce the replay's RunResult bit-for-bit (the
// e2e determinism test pins it), while the transport underneath is real
// sockets, real threads, and real backpressure.
//
// Threading model (DESIGN.md §15):
//   acceptor thread        poll+accept loop, bounded by the stop flag
//   connection threads     one per client: read frames in order, decode,
//                          advance the engine when a GET reaches its
//                          epoch end (quiesce, then ShardEngine::advance
//                          under the exclusive dispatch lock), and
//                          dispatch into the owning shard's bounded queue
//   trainer worker         the engine's watchdog worker: with a publish
//                          lag (the default) each retrain fits there
//                          while the shards serve on; the reader that
//                          reaches the publish point waits for it
//   shard workers          one per shard; each gathers <=64 queued
//                          requests and hands each run of GETs to
//                          ShardEngine::serve_batch (PUTs to
//                          ShardEngine::upsert), then maps the per-row
//                          outcomes to RESULT frames
//
// Backpressure maps to the protocol at two layers: the engine's *fluid*
// ShardQueue (deterministic, sim-time driven) turns Shedding into SHED
// replies and Degraded into cheap Original-path admission flagged in the
// RESULT frame; the *physical* inbound queue either blocks the connection
// reader when full (default — TCP backpressure, keeps single-connection
// runs deterministic) or, with retry_when_full, answers RETRY immediately.
// A MISS_ADMITTED reply means the object was written to the cache; an
// admitted miss the policy refused (object larger than the shard) or
// whose SSD write was dropped answers MISS_REJECTED.
//
// Retrain stalls: a trigger's drain quiesces every shard (to take their
// sample buffers at a trace-determined point), but the fit does not: with
// publish_lag_requests = L > 0 the model trained at trigger t first
// serves request t + L + 1, and only a fit slower than L requests of
// traffic stalls the publish point. The first model publishes at its
// trigger (nothing serves yet). L = 0 is the single barrier of the
// in-process replay: drain, fit and publish with the shards stopped.
//
// Determinism contract: with one client connection sending GET frames in
// trace-index order, the default blocking dispatch, and a watchdog
// without a timeout, the server-side RunResult equals the in-process
// replay at the same lag (ShardEngine{system, run, L}.replay; at L = 0,
// ShardedCache::run on the same RunConfig) — including the eviction
// hash. Multiple connections or retry_when_full keep all safety
// properties (TSan-clean, bounded queues) but order shed/degraded
// transitions by arrival, not by trace.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/intelligent_cache.h"

namespace otac::net {

struct DaemonConfig {
  /// Serving configuration: mode, policy, capacity, shards, resilience.
  /// `run.threads` is ignored — the daemon runs one worker per shard.
  RunConfig run;
  /// Requests between a retrain trigger and the publish of its model
  /// (ShardEngine's publish lag): the fit runs off the serving path while
  /// the previous model serves them. 0 stops the shards for the fit.
  std::uint64_t publish_lag_requests = 1024;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned (read back via port())
  /// Physical inbound frames buffered per shard before backpressure.
  std::size_t queue_capacity = 1024;
  /// Queue-full policy: false blocks the connection reader (deterministic
  /// TCP backpressure), true replies RETRY without serving.
  bool retry_when_full = false;
};

/// Transport-layer counters (exported as daemon.* metrics in the report;
/// deliberately outside RunResult so result equality stays a statement
/// about serving behavior).
struct DaemonWireStats {
  std::uint64_t connections = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t retry_replies = 0;
  std::uint64_t shed_replies = 0;
  std::uint64_t get_requests = 0;
  std::uint64_t put_requests = 0;
};

class Daemon {
 public:
  /// The system (trace + oracle) must outlive the daemon.
  Daemon(const IntelligentCache& system, DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind, listen, and spawn the acceptor and shard workers. Throws on
  /// bind/listen failure or an invalid RunConfig.
  void start();

  /// Port actually bound (valid after start()).
  [[nodiscard]] std::uint16_t port() const;

  /// Block until a client sends a SHUTDOWN frame (or stop() is called).
  void wait_for_shutdown();

  /// Graceful stop: close the listener, drain every shard queue, join all
  /// threads, and assemble the final RunResult through ShardEngine::finish,
  /// which runs any remaining retrain barriers. Idempotent.
  void stop();

  /// Server-side result of everything served so far. Valid after stop().
  [[nodiscard]] const RunResult& result() const;

  [[nodiscard]] DaemonWireStats wire_stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace otac::net
