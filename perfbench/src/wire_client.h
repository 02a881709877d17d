// The benchmark's open-loop wire client: one connection, one sender
// thread, one receiver thread.
//
// The sender replays the trace's requests in order at a fixed rate: GET i
// is *due* i / kWireGetRate seconds after the start. (Compressing the
// trace's diurnal arrival shape into seconds instead drives its peak hours
// close to the daemon's saturation, so the tail would measure where the
// peaks fall.) Every kWirePutEvery-th GET is preceded by a PUT of the same
// photo, due at the same instant. Frames that are due are sent together;
// the sender never waits for replies.
//
// Latency is timed from each GET's due time, not from when the sender got
// to it, so a stall that blocks the socket (a retrain barrier holding the
// daemon's connection reader) is charged to every request it delays.
// The sender's own lateness is recorded per GET so a run can show the
// numbers measure the daemon, not the client.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "net/daemon.h"
#include "net/protocol.h"
#include "trace/trace.h"

namespace otac::bench {

/// Marks a GET that got no usable reply (unanswered, shed, RETRY, error).
inline constexpr std::int64_t kFailedLatency = INT64_MAX;

struct WireOutcome {
  std::uint64_t gets_sent = 0;
  std::uint64_t puts_sent = 0;
  std::uint64_t frames_sent = 0;      ///< every frame, control included
  std::uint64_t frames_received = 0;  ///< every frame, control included
  std::uint64_t hits = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t put_oks = 0;
  std::uint64_t failed_gets = 0;  ///< shed, RETRY or unanswered
  std::uint64_t errors = 0;       ///< protocol or transport errors
  std::string error_text;
  bool have_summary = false;
  net::SummaryPayload server;  ///< STATS reply after the last GET
  /// Per GET, reply time minus due time; kFailedLatency when failed.
  std::vector<std::int64_t> latency_ns;
  /// Per GET, send time minus due time.
  std::vector<std::int64_t> send_lag_ns;
};

/// Connect to the daemon on loopback `port`, replay every trace request
/// open loop, fetch the STATS summary, and send SHUTDOWN. Throws
/// std::runtime_error when the connect fails.
[[nodiscard]] WireOutcome run_open_loop(const Trace& trace,
                                        std::uint16_t port);

/// Checks a finished pass against the stopped daemon: one reply per frame
/// sent, the daemon's wire counters equal the client's, and the client's
/// tallies equal the STATS summary and the final result.
void check_wire(const WireOutcome& out, const net::Daemon& daemon,
                Checks& checks);

/// One wire pass: set-up (trace synthesis, IntelligentCache, Daemon
/// construction and start), the open-loop client, then stop and check.
struct WirePass {
  double setup_s = 0.0;
  double daemon_start_s = 0.0;  ///< Daemon construction + start()
  double stop_s = 0.0;          ///< Daemon::stop()
  std::uint64_t requests = 0;
  std::uint64_t photos = 0;
  std::uint64_t capacity_bytes = 0;
  net::DaemonWireStats wire;
  WireOutcome out;
};
[[nodiscard]] WirePass run_wire_pass(std::uint64_t seed, Checks& checks);

}  // namespace otac::bench
