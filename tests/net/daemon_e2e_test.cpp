// Loopback end-to-end suite for the serving daemon (label `concurrency`,
// so `scripts/ci.sh concurrency` runs it under TSan): the determinism
// contract — one connection, GET frames in trace order, blocking
// dispatch, a watchdog without a timeout — must reproduce the in-process
// replay at the same publish lag bit-for-bit, eviction hash included,
// with real sockets, real worker threads and a real trainer thread
// underneath. Plus the wire-facing behaviors no
// in-process test can cover: PUT serving, malformed frames answered with
// an ERROR frame and a closed connection, and the SHUTDOWN handshake.
#include "net/daemon.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "core/shard_engine.h"
#include "core/sharded_cache.h"
#include "net/loadgen.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "trace/trace_generator.h"

namespace otac::net {
namespace {

const Trace& test_trace() {
  static const Trace trace = [] {
    WorkloadConfig config;
    config.num_owners = 200;
    config.num_photos = 2500;
    config.seed = 7;
    return TraceGenerator{config}.generate();
  }();
  return trace;
}

const IntelligentCache& test_system() {
  static const IntelligentCache system{test_trace()};
  return system;
}

RunConfig serving_config(bool overload) {
  RunConfig config;
  config.policy = PolicyKind::lru;
  config.mode = AdmissionMode::proposal;
  config.capacity_bytes = 6 * 1024 * 1024;
  config.shards = 4;
  config.resilience.overload.enabled = overload;
  // No watchdog timeout: every publish waits for its fit, the
  // deterministic configuration the daemon's contract is stated for.
  config.resilience.watchdog.timeout_s = 0.0;
  return config;
}

/// One full client session: every trace request in order, full speed
/// (offered_rps 0 disables pacing), then STATS + SHUTDOWN.
LoadgenResult drive(const Daemon& daemon, std::uint64_t put_every = 0) {
  LoadgenConfig config;
  config.port = daemon.port();
  config.offered_rps = 0.0;
  config.put_every = put_every;
  return run_loadgen(test_trace(), config);
}

constexpr std::uint64_t kDefaultLag = DaemonConfig{}.publish_lag_requests;

RunResult serve_once(const RunConfig& config, LoadgenResult* client = nullptr,
                     std::uint64_t put_every = 0,
                     std::uint64_t publish_lag = kDefaultLag) {
  DaemonConfig daemon_config;
  daemon_config.run = config;
  daemon_config.publish_lag_requests = publish_lag;
  Daemon daemon{test_system(), daemon_config};
  daemon.start();
  const LoadgenResult result = drive(daemon, put_every);
  EXPECT_EQ(result.errors, 0u) << result.error_text;
  daemon.stop();
  if (client != nullptr) *client = result;
  return daemon.result();
}

TEST(DaemonE2e, SameSeedSameScheduleTwiceIsIdentical) {
  const RunConfig config = serving_config(/*overload=*/true);
  const RunResult first = serve_once(config);
  const RunResult second = serve_once(config);
  EXPECT_TRUE(first == second);
  EXPECT_EQ(first.stats.eviction_hash, second.stats.eviction_hash);
  EXPECT_EQ(first.degradation.shed_requests,
            second.degradation.shed_requests);
  EXPECT_EQ(first.degradation.degraded_admits,
            second.degradation.degraded_admits);
}

/// The in-process replay at the daemon's publish lag (lag 0 is
/// ShardedCache::run).
RunResult replay_at(const RunConfig& config, std::uint64_t publish_lag) {
  if (publish_lag == 0) return ShardedCache{test_system()}.run(config);
  ShardEngine engine{test_system(), config, publish_lag};
  return std::move(engine.replay(config.shards));
}

TEST(DaemonE2e, MatchesInProcessReplayIncludingEvictionHash) {
  static_assert(kDefaultLag > 0);
  for (const std::uint64_t lag : {kDefaultLag, std::uint64_t{0}}) {
    for (const AdmissionMode mode :
         {AdmissionMode::proposal, AdmissionMode::original,
          AdmissionMode::bypass, AdmissionMode::ideal}) {
      SCOPED_TRACE(std::string{admission_mode_name(mode)} + " at lag " +
                   std::to_string(lag));
      RunConfig config = serving_config(/*overload=*/false);
      config.mode = mode;
      const RunResult over_the_wire =
          serve_once(config, nullptr, /*put_every=*/0, lag);
      const RunResult in_process = replay_at(config, lag);
      EXPECT_TRUE(over_the_wire == in_process);
      EXPECT_EQ(over_the_wire.stats.eviction_hash,
                in_process.stats.eviction_hash);
      EXPECT_EQ(over_the_wire.stats.hits, in_process.stats.hits);
      EXPECT_EQ(over_the_wire.trainings, in_process.trainings);
      if (mode == AdmissionMode::proposal) {
        EXPECT_GE(in_process.trainings, 2);  // so a lagged publish ran
        // The wait at each publish point is in the report exactly when
        // there is a lag to wait out.
        EXPECT_EQ(over_the_wire.obs.merged.histograms.contains(
                      "trainer.publish_wait_seconds"),
                  lag > 0);
      }
    }
  }
}

TEST(DaemonE2e, MissAdmittedRepliesOnlyForStoredObjects) {
  // 512 KiB over 4 shards: photos larger than a shard's 128 KiB are
  // admitted, then refused by the policy's insert — such a miss must
  // answer MISS_REJECTED, not MISS_ADMITTED.
  RunConfig config = serving_config(/*overload=*/false);
  config.capacity_bytes = 512 * 1024;
  LoadgenResult client;
  const RunResult server = serve_once(config, &client);
  const CacheStats& stats = server.stats;
  // The identity from the wire summary alone, with `refused` as sent.
  const SummaryPayload& wire = client.server;
  ASSERT_GT(wire.refused, 0u)
      << "no admitted miss was refused; the test would pass vacuously";
  EXPECT_EQ(wire.hits + wire.insertions + wire.rejected + wire.refused,
            wire.requests);
  EXPECT_EQ(wire.refused, stats.refused);
  EXPECT_EQ(stats.hits + stats.insertions + stats.rejected + stats.refused,
            stats.requests);
  EXPECT_EQ(client.admitted, stats.insertions);
  EXPECT_EQ(client.rejected, stats.requests - stats.hits - stats.insertions);
}

TEST(DaemonE2e, OverloadLadderMatchesInProcessShardQueueReplay) {
  // Same arrival schedule through the daemon's per-shard fluid queues and
  // through the in-process replay's at the same publish lag (at lag 0,
  // ShardedCache::run's): shed/degraded accounting must agree in sum (the
  // merged DegradationCounters are part of RunResult equality).
  const RunConfig config = serving_config(/*overload=*/true);
  for (const std::uint64_t lag : {kDefaultLag, std::uint64_t{0}}) {
    SCOPED_TRACE("lag " + std::to_string(lag));
    LoadgenResult client;
    const RunResult over_the_wire =
        serve_once(config, &client, /*put_every=*/0, lag);
    const RunResult in_process = replay_at(config, lag);
    EXPECT_TRUE(over_the_wire == in_process);
    EXPECT_EQ(over_the_wire.degradation.shed_requests,
              in_process.degradation.shed_requests);
    EXPECT_EQ(over_the_wire.degradation.degraded_admits,
              in_process.degradation.degraded_admits);
    EXPECT_EQ(over_the_wire.degradation.overload_transitions,
              in_process.degradation.overload_transitions);
    // Every shed decision the server took was also reported to the client.
    EXPECT_EQ(client.shed, over_the_wire.degradation.shed_requests);
  }
}

TEST(DaemonE2e, ServerSummaryMatchesClientTallies) {
  const RunConfig config = serving_config(/*overload=*/true);
  LoadgenResult client;
  const RunResult server = serve_once(config, &client);
  EXPECT_EQ(client.requests, test_trace().requests.size());
  EXPECT_EQ(client.replies, client.requests + client.puts);
  EXPECT_EQ(client.server.requests, server.stats.requests);
  EXPECT_EQ(client.server.hits, server.stats.hits);
  EXPECT_EQ(client.server.eviction_hash, server.stats.eviction_hash);
  EXPECT_EQ(client.hits, server.stats.hits);
}

TEST(DaemonE2e, PutFramesInsertAndAreAcknowledged) {
  const RunConfig config = serving_config(/*overload=*/false);
  LoadgenResult client;
  (void)serve_once(config, &client, /*put_every=*/50);
  EXPECT_GT(client.puts, 0u);
  EXPECT_EQ(client.put_oks, client.puts);
  EXPECT_EQ(client.replies, client.requests + client.puts);
}

TEST(DaemonE2e, MalformedFrameGetsErrorReplyAndConnectionClose) {
  DaemonConfig daemon_config;
  daemon_config.run = serving_config(/*overload=*/false);
  Daemon daemon{test_system(), daemon_config};
  daemon.start();
  {
    UniqueFd fd = tcp_connect("127.0.0.1", daemon.port());
    std::array<std::uint8_t, kGetFrameBytes> frame{};
    encode_get_frame(frame.data(), 0, GetPayload{});
    frame[3] = 0x58;  // corrupt the magic
    ASSERT_TRUE(send_all(fd.get(), frame.data(), frame.size()));

    std::array<std::uint8_t, kHeaderBytes> head{};
    ASSERT_EQ(recv_exact(fd.get(), head.data(), head.size()), head.size());
    const FrameHeader header = decode_header(head, 1);
    EXPECT_TRUE(header.type == FrameType::error);
    std::vector<std::uint8_t> body(header.payload_size);
    ASSERT_EQ(recv_exact(fd.get(), body.data(), body.size()), body.size());
    verify_payload(header, body, 1);
    EXPECT_EQ(std::string(body.begin(), body.end()),
              "frame 1: bad magic 0x5841544F");

    // The daemon drops the connection after a protocol error: the next
    // read must see EOF, not a hung socket.
    std::uint8_t byte = 0;
    EXPECT_EQ(recv_exact(fd.get(), &byte, 1), 0u);
  }
  daemon.stop();
  EXPECT_EQ(daemon.wire_stats().protocol_errors, 1u);
  EXPECT_EQ(daemon.result().stats.requests, 0u);
}

TEST(DaemonE2e, OversizedHeaderRejectedBeforePayload) {
  DaemonConfig daemon_config;
  daemon_config.run = serving_config(/*overload=*/false);
  Daemon daemon{test_system(), daemon_config};
  daemon.start();
  {
    UniqueFd fd = tcp_connect("127.0.0.1", daemon.port());
    // A GET header declaring a 1 GiB payload; the daemon must reject it
    // from the header alone instead of trying to read (or allocate) it.
    std::array<std::uint8_t, kHeaderBytes> head{};
    encode_header(head.data(), FrameType::get_request, 0, {});
    put_u32(head.data() + 16, 1u << 30);
    ASSERT_TRUE(send_all(fd.get(), head.data(), head.size()));

    std::array<std::uint8_t, kHeaderBytes> reply{};
    ASSERT_EQ(recv_exact(fd.get(), reply.data(), reply.size()),
              reply.size());
    const FrameHeader header = decode_header(reply, 1);
    EXPECT_TRUE(header.type == FrameType::error);
    std::vector<std::uint8_t> body(header.payload_size);
    ASSERT_EQ(recv_exact(fd.get(), body.data(), body.size()), body.size());
    EXPECT_EQ(std::string(body.begin(), body.end()),
              "frame 1: oversized payload 1073741824 bytes (max 8388608)");
  }
  daemon.stop();
  EXPECT_EQ(daemon.wire_stats().protocol_errors, 1u);
}

TEST(DaemonE2e, ShutdownHandshakeUnblocksWaiters) {
  DaemonConfig daemon_config;
  daemon_config.run = serving_config(/*overload=*/false);
  Daemon daemon{test_system(), daemon_config};
  daemon.start();
  {
    UniqueFd fd = tcp_connect("127.0.0.1", daemon.port());
    const std::vector<std::uint8_t> request =
        encode_frame(FrameType::shutdown_request, 1, {});
    ASSERT_TRUE(send_all(fd.get(), request.data(), request.size()));
    std::array<std::uint8_t, kHeaderBytes> head{};
    ASSERT_EQ(recv_exact(fd.get(), head.data(), head.size()), head.size());
    EXPECT_TRUE(decode_header(head, 1).type == FrameType::shutdown_ack);
  }
  // Returns because of the SHUTDOWN frame, not a stop() call.
  daemon.wait_for_shutdown();
  daemon.stop();
  EXPECT_EQ(daemon.result().stats.requests, 0u);
}

TEST(DaemonE2e, ResultBeforeStopThrows) {
  DaemonConfig daemon_config;
  daemon_config.run = serving_config(/*overload=*/false);
  Daemon daemon{test_system(), daemon_config};
  daemon.start();
  EXPECT_THROW((void)daemon.result(), std::logic_error);
  daemon.stop();
  EXPECT_NO_THROW((void)daemon.result());
}

}  // namespace
}  // namespace otac::net
