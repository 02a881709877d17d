#include "wire_client.h"

#include <sys/prctl.h>
#include <sys/socket.h>

#include <array>
#include <exception>
#include <span>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "net/socket.h"

namespace otac::bench {

namespace {

/// PUT sequences carry the GET index with the top bit set, so the two
/// never collide.
constexpr std::uint64_t kPutBit = 1ULL << 63;
/// Frames the sender hands to one send() when it is behind schedule.
constexpr std::size_t kMaxBurst = 256;
/// Time from the start stamp to the first due frame.
constexpr std::int64_t kLeadNs = 2'000'000;
/// A client send buffer that holds seconds of traffic, so a daemon stall
/// queues frames in the kernel instead of blocking the sender.
constexpr int kSendBufferBytes = 8 << 20;

std::int64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

/// Due time of every GET, relative to the start stamp.
std::vector<std::int64_t> due_times(std::size_t n) {
  std::vector<std::int64_t> due(n);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = kLeadNs + static_cast<std::int64_t>(static_cast<double>(i) /
                                                 kWireGetRate * 1e9);
  }
  return due;
}

/// Receiver: matches RESULT frames to due times until SHUTDOWN's ack, an
/// error frame, or EOF.
void receive(int fd, Clock::time_point start,
             const std::vector<std::int64_t>& due, WireOutcome& out) {
  const std::uint64_t n = due.size();
  std::vector<bool> answered(n, false);
  std::array<std::uint8_t, net::kHeaderBytes> head{};
  std::vector<std::uint8_t> payload;
  for (;;) {
    const std::size_t got = net::recv_exact(fd, head.data(), head.size());
    if (got == 0) return;  // the daemon closed the connection
    const std::uint64_t number = out.frames_received + 1;
    const net::FrameHeader header =
        net::decode_header(std::span<const std::uint8_t>(head.data(), got),
                           number);
    payload.resize(header.payload_size);  // bounded by the codec
    std::size_t body = 0;
    if (header.payload_size > 0) {
      body = net::recv_exact(fd, payload.data(), payload.size());
    }
    net::verify_payload(header,
                        std::span<const std::uint8_t>(payload.data(), body),
                        number);
    const std::int64_t now = ns_between(start, Clock::now());
    ++out.frames_received;
    const std::span<const std::uint8_t> bytes(payload.data(), payload.size());
    switch (header.type) {
      case net::FrameType::result: {
        const net::ResultPayload reply = net::decode_result(bytes, number);
        if ((header.sequence & kPutBit) != 0) {
          if (reply.status != net::ResultStatus::put_ok) {
            throw std::runtime_error("PUT answered with a non-PUT status");
          }
          ++out.put_oks;
          break;
        }
        const std::uint64_t index = header.sequence;
        if (index >= n || answered[index]) {
          throw std::runtime_error("unexpected or duplicate GET reply " +
                                   std::to_string(index));
        }
        answered[index] = true;
        bool served = true;  // shed and RETRY keep kFailedLatency
        switch (reply.status) {
          case net::ResultStatus::hit: ++out.hits; break;
          case net::ResultStatus::miss_admitted: ++out.admitted; break;
          case net::ResultStatus::miss_rejected: ++out.rejected; break;
          case net::ResultStatus::shed:
          case net::ResultStatus::retry: served = false; break;
          case net::ResultStatus::put_ok:
            throw std::runtime_error("GET answered with put_ok");
        }
        if (served) out.latency_ns[index] = now - due[index];
        break;
      }
      case net::FrameType::summary:
        out.server = net::decode_summary(bytes, number);
        out.have_summary = true;
        break;
      case net::FrameType::shutdown_ack:
        return;
      case net::FrameType::error:
        throw std::runtime_error("daemon error frame: " +
                                 std::string(payload.begin(), payload.end()));
      default:
        throw std::runtime_error("unexpected frame from the daemon");
    }
  }
}

}  // namespace

WireOutcome run_open_loop(const Trace& trace, std::uint16_t port) {
  if (trace.requests.empty()) throw std::invalid_argument("empty trace");
  const std::vector<std::int64_t> due = due_times(trace.requests.size());
  const std::size_t n = due.size();

  net::UniqueFd fd = net::tcp_connect("127.0.0.1", port);
  // Best effort: the kernel may clamp the size.
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &kSendBufferBytes,
                     sizeof(kSendBufferBytes));

  WireOutcome out;
  out.latency_ns.assign(n, kFailedLatency);
  out.send_lag_ns.assign(n, 0);
  std::string receive_error;
  std::vector<std::uint8_t> burst(
      kMaxBurst * (net::kPutFrameBytes + net::kGetFrameBytes));

  const Clock::time_point start = Clock::now();
  std::thread receiver([&] {
    try {
      receive(fd.get(), start, due, out);
    } catch (const std::exception& error) {
      receive_error = error.what();
      fd.shutdown_both();  // unblock a sender parked on a full socket
    }
  });

  // Sleep to the due time with no timer slack, so the schedule is kept to
  // microseconds rather than the default 50 us slack.
  const int old_slack = ::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  bool send_failed = false;
  std::size_t i = 0;
  while (i < n && !send_failed) {
    const std::int64_t now = ns_between(start, Clock::now());
    if (due[i] > now) {
      std::this_thread::sleep_until(start + std::chrono::nanoseconds(due[i]));
      continue;
    }
    const std::size_t first = i;
    std::size_t bytes = 0;
    for (; i < n && due[i] <= now && i - first < kMaxBurst; ++i) {
      const Request& request = trace.requests[i];
      if (i % kWirePutEvery == 0) {
        net::PutPayload put;
        put.time_seconds = request.time.seconds;
        put.photo = request.photo;
        net::encode_put_frame(burst.data() + bytes, kPutBit | i, put);
        bytes += net::kPutFrameBytes;
        ++out.puts_sent;
      }
      net::GetPayload get;
      get.index = i;
      get.time_seconds = request.time.seconds;
      get.photo = request.photo;
      get.terminal = static_cast<std::uint8_t>(request.terminal);
      net::encode_get_frame(burst.data() + bytes, i, get);
      bytes += net::kGetFrameBytes;
      ++out.gets_sent;
    }
    const std::int64_t sent_at = ns_between(start, Clock::now());
    for (std::size_t j = first; j < i; ++j) {
      out.send_lag_ns[j] = sent_at - due[j];
    }
    send_failed = !net::send_all(fd.get(), burst.data(), bytes);
  }
  if (old_slack > 0) {
    (void)::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(old_slack), 0,
                  0, 0);
  }
  out.frames_sent = out.gets_sent + out.puts_sent;

  // The daemon's reader handles frames in order, so STATS summarizes after
  // every GET above is served.
  if (!send_failed) {
    std::array<std::uint8_t, net::kHeaderBytes> control{};
    net::encode_header(control.data(), net::FrameType::stats_request, n, {});
    send_failed = !net::send_all(fd.get(), control.data(), control.size());
    if (!send_failed) {
      ++out.frames_sent;
      net::encode_header(control.data(), net::FrameType::shutdown_request,
                         n + 1, {});
      send_failed = !net::send_all(fd.get(), control.data(), control.size());
      if (!send_failed) ++out.frames_sent;
    }
  }
  if (send_failed) fd.shutdown_both();
  receiver.join();

  if (!receive_error.empty()) {
    ++out.errors;
    out.error_text = receive_error;
  } else if (send_failed) {
    ++out.errors;
    out.error_text = "send failed: the daemon closed the connection";
  }
  for (const std::int64_t latency : out.latency_ns) {
    if (latency == kFailedLatency) ++out.failed_gets;
  }
  return out;
}

void check_wire(const WireOutcome& out, const net::Daemon& daemon,
                Checks& checks) {
  checks.expect(out.errors == 0, "wire pass without errors: " + out.error_text);
  checks.expect(out.have_summary, "daemon answered STATS");
  checks.expect(out.frames_received == out.frames_sent,
                "one reply per frame sent");
  const net::DaemonWireStats wire = daemon.wire_stats();
  checks.expect(wire.frames_received == out.frames_sent,
                "daemon received every frame sent");
  checks.expect(wire.frames_sent == out.frames_received,
                "client received every frame the daemon sent");
  checks.expect(wire.protocol_errors == 0, "no protocol errors");
  checks.expect(wire.get_requests == out.gets_sent &&
                    wire.put_requests == out.puts_sent,
                "daemon GET/PUT counts equal the client's");
  checks.expect(out.put_oks == out.puts_sent, "every PUT answered put_ok");
  const net::SummaryPayload& server = out.server;
  checks.expect(server.requests == out.gets_sent,
                "summary requests equal GETs sent");
  checks.expect(server.hits == out.hits, "summary hits equal client hits");
  checks.expect(server.rejected == out.rejected,
                "summary rejections equal client rejections");
  checks.expect(server.requests - server.hits - server.rejected ==
                    out.admitted,
                "summary admitted misses equal client admissions");
  checks.expect(server.shed_requests == 0, "nothing shed");
  const RunResult& result = daemon.result();
  checks.expect(result.stats.requests == server.requests &&
                    result.stats.hits == server.hits &&
                    result.stats.eviction_hash == server.eviction_hash,
                "final daemon result equals its STATS summary");
}

WirePass run_wire_pass(std::uint64_t seed, Checks& checks) {
  WirePass pass;
  const Clock::time_point setup_start = Clock::now();
  const Trace trace = make_trace(kWireScale, seed);
  const IntelligentCache system{trace};
  const net::DaemonConfig config = wire_config(system);
  const Clock::time_point daemon_start = Clock::now();
  net::Daemon daemon{system, config};
  daemon.start();
  pass.daemon_start_s = seconds_since(daemon_start);
  pass.setup_s = seconds_since(setup_start);

  pass.out = run_open_loop(trace, daemon.port());
  // The client has its SHUTDOWN ack (or failed); stop() is what a caller
  // of a shut-down daemon runs next either way.
  const Clock::time_point stop_start = Clock::now();
  daemon.stop();
  pass.stop_s = seconds_since(stop_start);
  check_wire(pass.out, daemon, checks);

  pass.wire = daemon.wire_stats();
  pass.requests = trace.requests.size();
  pass.photos = trace.catalog.photo_count();
  pass.capacity_bytes = config.run.capacity_bytes;
  return pass;
}

}  // namespace otac::bench
