#include "net/protocol.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <stdexcept>

// Wire integrity, not a golden fingerprint: the frame CRC guards payloads
// against truncation and bit rot in transit, the same duty util/crc32.h
// already performs for checkpoint sections (golden sequences keep using
// util/fnv.h). src/net/protocol.cpp is therefore on the golden-hash
// rule's CRC exemption list next to core/checkpoint.cpp.
#include "util/crc32.h"

namespace otac::net {

namespace {

[[noreturn]] void fail(std::uint64_t frame_number, const char* format, ...) {
  char message[160];
  std::snprintf(message, sizeof(message), "frame %llu: ",
                static_cast<unsigned long long>(frame_number));
  va_list args;
  va_start(args, format);
  std::vsnprintf(message + std::strlen(message),
                 sizeof(message) - std::strlen(message), format, args);
  va_end(args);
  throw std::runtime_error(message);
}

}  // namespace

const char* frame_type_name(FrameType type) noexcept {
  switch (type) {
    case FrameType::get_request: return "get";
    case FrameType::put_request: return "put";
    case FrameType::result: return "result";
    case FrameType::stats_request: return "stats";
    case FrameType::summary: return "summary";
    case FrameType::report_request: return "report-request";
    case FrameType::report: return "report";
    case FrameType::shutdown_request: return "shutdown";
    case FrameType::shutdown_ack: return "shutdown-ack";
    case FrameType::error: return "error";
  }
  return "unknown";
}

void put_u16(std::uint8_t* out, std::uint16_t v) noexcept {
  out[0] = static_cast<std::uint8_t>(v & 0xFFU);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* out, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFU);
  }
}

void put_u64(std::uint8_t* out, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFU);
  }
}

void put_f64(std::uint8_t* out, double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

std::uint16_t read_u16(const std::uint8_t* in) noexcept {
  return static_cast<std::uint16_t>(in[0] | (in[1] << 8));
}

std::uint32_t read_u32(const std::uint8_t* in) noexcept {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | in[i];
  return v;
}

std::uint64_t read_u64(const std::uint8_t* in) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | in[i];
  return v;
}

double read_f64(const std::uint8_t* in) noexcept {
  const std::uint64_t bits = read_u64(in);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void encode_header(std::uint8_t* out, FrameType type, std::uint64_t sequence,
                   std::span<const std::uint8_t> payload) noexcept {
  put_u32(out, kMagic);
  put_u16(out + 4, kProtocolVersion);
  put_u16(out + 6, static_cast<std::uint16_t>(type));
  put_u64(out + 8, sequence);
  put_u32(out + 16, static_cast<std::uint32_t>(payload.size()));
  put_u32(out + 20, payload.empty()
                        ? 0
                        : crc32(payload.data(), payload.size()));
}

std::vector<std::uint8_t> encode_frame(FrameType type, std::uint64_t sequence,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame(kHeaderBytes + payload.size());
  encode_header(frame.data(), type, sequence, payload);
  if (!payload.empty()) {
    std::memcpy(frame.data() + kHeaderBytes, payload.data(), payload.size());
  }
  return frame;
}

void encode_get_frame(std::uint8_t* out, std::uint64_t sequence,
                      const GetPayload& payload) noexcept {
  std::uint8_t* body = out + kHeaderBytes;
  put_u64(body, payload.index);
  put_u64(body + 8, static_cast<std::uint64_t>(payload.time_seconds));
  put_u32(body + 16, payload.photo);
  body[20] = payload.terminal;
  body[21] = body[22] = body[23] = 0;
  encode_header(out, FrameType::get_request, sequence,
                {body, kGetPayloadBytes});
}

void encode_put_frame(std::uint8_t* out, std::uint64_t sequence,
                      const PutPayload& payload) noexcept {
  std::uint8_t* body = out + kHeaderBytes;
  put_u64(body, static_cast<std::uint64_t>(payload.time_seconds));
  put_u32(body + 8, payload.photo);
  put_u32(body + 12, 0);
  encode_header(out, FrameType::put_request, sequence,
                {body, kPutPayloadBytes});
}

void encode_result_frame(std::uint8_t* out, std::uint64_t sequence,
                         const ResultPayload& payload) noexcept {
  std::uint8_t* body = out + kHeaderBytes;
  body[0] = static_cast<std::uint8_t>(payload.status);
  body[1] = payload.degraded;
  for (int i = 2; i < 8; ++i) body[i] = 0;
  put_f64(body + 8, payload.latency_us);
  encode_header(out, FrameType::result, sequence, {body, kResultPayloadBytes});
}

void encode_summary_frame(std::uint8_t* out, std::uint64_t sequence,
                          const SummaryPayload& payload) noexcept {
  std::uint8_t* body = out + kHeaderBytes;
  put_u64(body, payload.requests);
  put_u64(body + 8, payload.hits);
  put_u64(body + 16, payload.insertions);
  put_u64(body + 24, payload.rejected);
  put_u64(body + 32, payload.evictions);
  put_u64(body + 40, payload.shed_requests);
  put_u64(body + 48, payload.degraded_admits);
  put_u64(body + 56, payload.overload_transitions);
  put_u64(body + 64, payload.retrain_timeouts);
  put_u64(body + 72, payload.trainings);
  put_u64(body + 80, payload.eviction_hash);
  put_f64(body + 88, payload.file_hit_rate);
  put_f64(body + 96, payload.byte_hit_rate);
  put_f64(body + 104, payload.mean_latency_us);
  put_u64(body + 112, payload.refused);
  encode_header(out, FrameType::summary, sequence,
                {body, kSummaryPayloadBytes});
}

FrameHeader decode_header(std::span<const std::uint8_t> bytes,
                          std::uint64_t frame_number) {
  if (bytes.size() < kHeaderBytes) {
    fail(frame_number, "truncated header (got %zu of %zu bytes)",
         bytes.size(), kHeaderBytes);
  }
  const std::uint32_t magic = read_u32(bytes.data());
  if (magic != kMagic) {
    fail(frame_number, "bad magic 0x%08X", magic);
  }
  const std::uint16_t version = read_u16(bytes.data() + 4);
  if (version != kProtocolVersion) {
    fail(frame_number, "unsupported protocol version %u (expected %u)",
         version, kProtocolVersion);
  }
  const std::uint16_t raw_type = read_u16(bytes.data() + 6);
  if (raw_type < static_cast<std::uint16_t>(FrameType::get_request) ||
      raw_type > static_cast<std::uint16_t>(FrameType::error)) {
    fail(frame_number, "unknown frame type %u", raw_type);
  }
  FrameHeader header;
  header.type = static_cast<FrameType>(raw_type);
  header.sequence = read_u64(bytes.data() + 8);
  header.payload_size = read_u32(bytes.data() + 16);
  header.payload_crc = read_u32(bytes.data() + 20);
  if (header.payload_size > kMaxPayloadBytes) {
    // Rejected from the header alone: no payload buffer has been
    // allocated or read at this point, so a hostile length cannot force
    // an allocation.
    fail(frame_number, "oversized payload %u bytes (max %u)",
         header.payload_size, kMaxPayloadBytes);
  }
  return header;
}

void verify_payload(const FrameHeader& header,
                    std::span<const std::uint8_t> payload,
                    std::uint64_t frame_number) {
  if (payload.size() < header.payload_size) {
    fail(frame_number, "truncated payload (got %zu of %u bytes)",
         payload.size(), header.payload_size);
  }
  const std::uint32_t computed =
      header.payload_size == 0
          ? 0
          : crc32(payload.data(), header.payload_size);
  if (computed != header.payload_crc) {
    fail(frame_number, "payload CRC mismatch (got 0x%08X, expected 0x%08X)",
         computed, header.payload_crc);
  }
}

namespace {

void check_payload_size(std::span<const std::uint8_t> payload,
                        std::uint32_t expected, const char* type_name,
                        std::uint64_t frame_number) {
  if (payload.size() != expected) {
    fail(frame_number, "%s payload is %zu bytes (expected %u)", type_name,
         payload.size(), expected);
  }
}

}  // namespace

void check_client_frame(const FrameHeader& header,
                        std::uint64_t frame_number) {
  std::uint32_t expected = 0;
  switch (header.type) {
    case FrameType::get_request: expected = kGetPayloadBytes; break;
    case FrameType::put_request: expected = kPutPayloadBytes; break;
    case FrameType::stats_request:
    case FrameType::report_request:
    case FrameType::shutdown_request:
      expected = 0;
      break;
    case FrameType::result:
    case FrameType::summary:
    case FrameType::report:
    case FrameType::shutdown_ack:
    case FrameType::error:
      fail(frame_number, "unexpected %s frame from client",
           frame_type_name(header.type));
  }
  if (header.payload_size != expected) {
    fail(frame_number, "%s payload is %u bytes (expected %u)",
         frame_type_name(header.type), header.payload_size, expected);
  }
}

GetPayload decode_get(std::span<const std::uint8_t> payload,
                      std::uint64_t frame_number) {
  check_payload_size(payload, kGetPayloadBytes, "get", frame_number);
  GetPayload out;
  out.index = read_u64(payload.data());
  out.time_seconds = static_cast<std::int64_t>(read_u64(payload.data() + 8));
  out.photo = read_u32(payload.data() + 16);
  out.terminal = payload[20];
  return out;
}

PutPayload decode_put(std::span<const std::uint8_t> payload,
                      std::uint64_t frame_number) {
  check_payload_size(payload, kPutPayloadBytes, "put", frame_number);
  PutPayload out;
  out.time_seconds = static_cast<std::int64_t>(read_u64(payload.data()));
  out.photo = read_u32(payload.data() + 8);
  return out;
}

ResultPayload decode_result(std::span<const std::uint8_t> payload,
                            std::uint64_t frame_number) {
  check_payload_size(payload, kResultPayloadBytes, "result", frame_number);
  if (payload[0] > static_cast<std::uint8_t>(ResultStatus::put_ok)) {
    fail(frame_number, "unknown result status %u", payload[0]);
  }
  ResultPayload out;
  out.status = static_cast<ResultStatus>(payload[0]);
  out.degraded = payload[1];
  out.latency_us = read_f64(payload.data() + 8);
  return out;
}

SummaryPayload decode_summary(std::span<const std::uint8_t> payload,
                              std::uint64_t frame_number) {
  check_payload_size(payload, kSummaryPayloadBytes, "summary", frame_number);
  SummaryPayload out;
  out.requests = read_u64(payload.data());
  out.hits = read_u64(payload.data() + 8);
  out.insertions = read_u64(payload.data() + 16);
  out.rejected = read_u64(payload.data() + 24);
  out.evictions = read_u64(payload.data() + 32);
  out.shed_requests = read_u64(payload.data() + 40);
  out.degraded_admits = read_u64(payload.data() + 48);
  out.overload_transitions = read_u64(payload.data() + 56);
  out.retrain_timeouts = read_u64(payload.data() + 64);
  out.trainings = read_u64(payload.data() + 72);
  out.eviction_hash = read_u64(payload.data() + 80);
  out.file_hit_rate = read_f64(payload.data() + 88);
  out.byte_hit_rate = read_f64(payload.data() + 96);
  out.mean_latency_us = read_f64(payload.data() + 104);
  out.refused = read_u64(payload.data() + 112);
  return out;
}

std::optional<Frame> FrameParser::next() {
  if (offset_ == buffer_.size()) return std::nullopt;
  const std::uint64_t number = frames_ + 1;
  const FrameHeader header =
      decode_header(buffer_.subspan(offset_), number);
  const std::size_t body_begin = offset_ + kHeaderBytes;
  const std::span<const std::uint8_t> rest = buffer_.subspan(body_begin);
  verify_payload(header, rest, number);
  Frame frame;
  frame.header = header;
  frame.payload.assign(rest.begin(), rest.begin() + header.payload_size);
  offset_ = body_begin + header.payload_size;
  ++frames_;
  return frame;
}

}  // namespace otac::net
