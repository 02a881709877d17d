// Wire protocol of the serving daemon (tools/otacd): length-prefixed
// binary frames over TCP/loopback, little-endian throughout.
//
// Frame layout (kHeaderBytes = 24, then the payload):
//
//   offset  size  field
//        0     4  magic        0x4F 0x54 0x41 0x43 ("OTAC" on the wire)
//        4     2  version      kProtocolVersion
//        6     2  type         FrameType
//        8     8  sequence     client-assigned correlation id (the trace
//                              request index for GET frames)
//       16     4  payload_size bytes that follow; <= kMaxPayloadBytes
//       20     4  payload_crc  CRC-32 (IEEE) over the payload bytes
//
// Every decode error names the offending frame by its 1-based position in
// the stream with an exact, testable message (tests/net/protocol_test.cpp
// sweeps truncation at every boundary). The oversized-payload check runs
// on the header alone, before any payload buffer is allocated or read.
//
// Request/response pairing: GET and PUT are answered with a RESULT frame
// echoing the request's sequence; replies may arrive out of request order
// (shard workers run concurrently), so clients match on sequence, never
// on arrival order. STATS yields a fixed binary SummaryPayload, REPORT a
// variable-length RunReport JSON document, SHUTDOWN an empty ack.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace otac::net {

inline constexpr std::uint32_t kMagic = 0x4341544FU;  // "OTAC" little-endian
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 24;
/// Hard bound on payload size, enforced before allocation. Generous
/// enough for the largest legitimate frame (a RunReport JSON document).
inline constexpr std::uint32_t kMaxPayloadBytes = 8U << 20;

enum class FrameType : std::uint16_t {
  get_request = 1,        ///< serve one trace request        -> result
  put_request = 2,        ///< direct cache insert (warm)     -> result
  result = 3,             ///< RESULT reply for GET/PUT
  stats_request = 4,      ///< binary end-of-stream summary   -> summary
  summary = 5,            ///< SummaryPayload reply
  report_request = 6,     ///< RunReport JSON                 -> report
  report = 7,             ///< JSON text reply
  shutdown_request = 8,   ///< graceful stop                  -> shutdown_ack
  shutdown_ack = 9,       ///< empty ack; daemon stops serving
  error = 10,             ///< UTF-8 error text (protocol violations)
};

/// Stable lowercase label for error messages ("get", "put", "result", ...).
[[nodiscard]] const char* frame_type_name(FrameType type) noexcept;

struct FrameHeader {
  FrameType type = FrameType::error;
  std::uint64_t sequence = 0;
  std::uint32_t payload_size = 0;
  std::uint32_t payload_crc = 0;
};

/// Serving verdict carried by a RESULT frame.
enum class ResultStatus : std::uint8_t {
  hit = 0,
  miss_admitted = 1,   ///< miss, object written to the cache
  miss_rejected = 2,   ///< miss, admission declined the write
  shed = 3,            ///< dropped by the overload ladder before serving
  retry = 4,           ///< inbound queue full (retry dispatch mode only)
  put_ok = 5,          ///< PUT insert completed
};

// --- typed payloads ------------------------------------------------------

/// GET: one trace request, addressed by its global index so the daemon can
/// consult the next-access oracle and the retrain schedule.
struct GetPayload {
  std::uint64_t index = 0;       ///< trace request index
  std::int64_t time_seconds = 0; ///< simulated arrival time
  std::uint32_t photo = 0;
  std::uint8_t terminal = 0;     ///< TerminalType as a byte
};
inline constexpr std::uint32_t kGetPayloadBytes = 24;

/// PUT: insert `photo` (size from the shared catalog) without admission.
struct PutPayload {
  std::int64_t time_seconds = 0;
  std::uint32_t photo = 0;
};
inline constexpr std::uint32_t kPutPayloadBytes = 16;

struct ResultPayload {
  ResultStatus status = ResultStatus::hit;
  std::uint8_t degraded = 0;   ///< served under the Degraded overload state
  double latency_us = 0.0;     ///< Eq. 3 modeled latency of this request
};
inline constexpr std::uint32_t kResultPayloadBytes = 16;

/// Fixed binary end-of-stream summary (the server cell of
/// BENCH_daemon.json, without the client having to parse JSON).
struct SummaryPayload {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t insertions = 0;
  std::uint64_t rejected = 0;
  std::uint64_t evictions = 0;
  std::uint64_t shed_requests = 0;
  std::uint64_t degraded_admits = 0;
  std::uint64_t overload_transitions = 0;
  std::uint64_t retrain_timeouts = 0;
  std::uint64_t trainings = 0;
  std::uint64_t eviction_hash = 0;
  double file_hit_rate = 0.0;
  double byte_hit_rate = 0.0;
  double mean_latency_us = 0.0;
  /// Admitted misses the policy refused to store (object larger than the
  /// shard): hits + insertions + rejected + refused == requests.
  std::uint64_t refused = 0;
};
inline constexpr std::uint32_t kSummaryPayloadBytes = 120;

// --- little-endian primitives -------------------------------------------

void put_u16(std::uint8_t* out, std::uint16_t v) noexcept;
void put_u32(std::uint8_t* out, std::uint32_t v) noexcept;
void put_u64(std::uint8_t* out, std::uint64_t v) noexcept;
void put_f64(std::uint8_t* out, double v) noexcept;
[[nodiscard]] std::uint16_t read_u16(const std::uint8_t* in) noexcept;
[[nodiscard]] std::uint32_t read_u32(const std::uint8_t* in) noexcept;
[[nodiscard]] std::uint64_t read_u64(const std::uint8_t* in) noexcept;
[[nodiscard]] double read_f64(const std::uint8_t* in) noexcept;

// --- encode --------------------------------------------------------------

/// Write the 24-byte header for a frame whose payload is already known.
/// `out` must hold kHeaderBytes.
void encode_header(std::uint8_t* out, FrameType type, std::uint64_t sequence,
                   std::span<const std::uint8_t> payload) noexcept;

/// Whole frame (header + payload) as a fresh buffer. Convenience for the
/// cold control frames; the serving path uses the fixed-size encoders.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    FrameType type, std::uint64_t sequence,
    std::span<const std::uint8_t> payload);

inline constexpr std::size_t kGetFrameBytes = kHeaderBytes + kGetPayloadBytes;
inline constexpr std::size_t kPutFrameBytes = kHeaderBytes + kPutPayloadBytes;
inline constexpr std::size_t kResultFrameBytes =
    kHeaderBytes + kResultPayloadBytes;
inline constexpr std::size_t kSummaryFrameBytes =
    kHeaderBytes + kSummaryPayloadBytes;

/// Fixed-size whole-frame encoders into caller storage — the request and
/// reply hot paths allocate nothing.
void encode_get_frame(std::uint8_t* out, std::uint64_t sequence,
                      const GetPayload& payload) noexcept;
void encode_put_frame(std::uint8_t* out, std::uint64_t sequence,
                      const PutPayload& payload) noexcept;
void encode_result_frame(std::uint8_t* out, std::uint64_t sequence,
                         const ResultPayload& payload) noexcept;
void encode_summary_frame(std::uint8_t* out, std::uint64_t sequence,
                          const SummaryPayload& payload) noexcept;

// --- decode --------------------------------------------------------------
//
// All decoders throw std::runtime_error with a message prefixed
// "frame N: " where N is the 1-based position of the offending frame in
// its stream (callers thread the count through).

/// Validate and parse a 24-byte header. Checks, in order: length, magic,
/// version, frame type, payload bound — so an oversized payload_size is
/// rejected here, before any payload buffer exists.
[[nodiscard]] FrameHeader decode_header(std::span<const std::uint8_t> bytes,
                                        std::uint64_t frame_number);

/// Check the payload against the header's size and CRC declarations.
void verify_payload(const FrameHeader& header,
                    std::span<const std::uint8_t> payload,
                    std::uint64_t frame_number);

/// Server-side pre-read validation: every client->server frame carries a
/// fixed payload size (get 24, put 16, the control requests 0), so the
/// daemon rejects a header declaring anything else *before* reading the
/// payload — the reader's receive buffer is a small fixed stack array.
/// Throws the typed decoders' "<type> payload is N bytes (expected M)"
/// message, or "unexpected <type> frame from client" for reply types.
void check_client_frame(const FrameHeader& header, std::uint64_t frame_number);

[[nodiscard]] GetPayload decode_get(std::span<const std::uint8_t> payload,
                                    std::uint64_t frame_number);
[[nodiscard]] PutPayload decode_put(std::span<const std::uint8_t> payload,
                                    std::uint64_t frame_number);
[[nodiscard]] ResultPayload decode_result(
    std::span<const std::uint8_t> payload, std::uint64_t frame_number);
[[nodiscard]] SummaryPayload decode_summary(
    std::span<const std::uint8_t> payload, std::uint64_t frame_number);

/// One fully decoded frame (CRC already verified).
struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Incremental decoder over an in-memory byte stream: next() yields frames
/// in order, returns nullopt exactly at a clean frame boundary, and throws
/// the same frame-numbered errors the daemon's socket reader produces —
/// which is what lets the malformed-frame sweep run without sockets.
class FrameParser {
 public:
  explicit FrameParser(std::span<const std::uint8_t> buffer) noexcept
      : buffer_(buffer) {}

  [[nodiscard]] std::optional<Frame> next();
  [[nodiscard]] std::uint64_t frames_decoded() const noexcept {
    return frames_;
  }

 private:
  std::span<const std::uint8_t> buffer_;
  std::size_t offset_ = 0;
  std::uint64_t frames_ = 0;
};

}  // namespace otac::net
