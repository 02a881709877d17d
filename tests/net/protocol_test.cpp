// Malformed-frame sweep for the daemon wire protocol, in the style of the
// trace_io forward-version tests: every rejection path must fire with its
// exact, frame-numbered message, and truncation is swept at every header
// and payload boundary. Runs entirely in memory via FrameParser — the
// daemon's socket reader shares the same decode_header / verify_payload /
// check_client_frame sequence, so these messages are what a client sees
// in an ERROR frame.
#include "net/protocol.h"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace otac::net {
namespace {

std::vector<std::uint8_t> get_frame(std::uint64_t sequence = 7) {
  GetPayload get;
  get.index = 42;
  get.time_seconds = 1234;
  get.photo = 99;
  get.terminal = 1;
  std::vector<std::uint8_t> frame(kGetFrameBytes);
  encode_get_frame(frame.data(), sequence, get);
  return frame;
}

/// Expect `body` to throw std::runtime_error with exactly `message`.
template <typename Body>
void expect_error(const Body& body, const std::string& message) {
  try {
    body();
    FAIL() << "expected error: " << message;
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string{error.what()}, message);
  }
}

TEST(Protocol, GetFrameRoundTrip) {
  const std::vector<std::uint8_t> bytes = get_frame();
  FrameParser parser{bytes};
  const std::optional<Frame> frame = parser.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->header.type == FrameType::get_request);
  EXPECT_EQ(frame->header.sequence, 7u);
  const GetPayload get = decode_get(frame->payload, 1);
  EXPECT_EQ(get.index, 42u);
  EXPECT_EQ(get.time_seconds, 1234);
  EXPECT_EQ(get.photo, 99u);
  EXPECT_EQ(get.terminal, 1u);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.frames_decoded(), 1u);
}

TEST(Protocol, PutResultSummaryRoundTrip) {
  PutPayload put;
  put.time_seconds = -5;
  put.photo = 3;
  std::vector<std::uint8_t> put_bytes(kPutFrameBytes);
  encode_put_frame(put_bytes.data(), 11, put);
  FrameParser put_parser{put_bytes};
  const PutPayload put_back = decode_put(put_parser.next()->payload, 1);
  EXPECT_EQ(put_back.time_seconds, -5);
  EXPECT_EQ(put_back.photo, 3u);

  ResultPayload result;
  result.status = ResultStatus::miss_admitted;
  result.degraded = 1;
  result.latency_us = 1250.5;
  std::vector<std::uint8_t> result_bytes(kResultFrameBytes);
  encode_result_frame(result_bytes.data(), 12, result);
  FrameParser result_parser{result_bytes};
  const ResultPayload result_back =
      decode_result(result_parser.next()->payload, 1);
  EXPECT_TRUE(result_back.status == ResultStatus::miss_admitted);
  EXPECT_EQ(result_back.degraded, 1u);
  EXPECT_DOUBLE_EQ(result_back.latency_us, 1250.5);

  SummaryPayload summary;
  summary.requests = 1000;
  summary.hits = 600;
  summary.eviction_hash = 0x482f95a6f4a0f410ULL;
  summary.file_hit_rate = 0.6;
  summary.mean_latency_us = 5200.25;
  summary.refused = 17;
  std::vector<std::uint8_t> summary_bytes(kSummaryFrameBytes);
  encode_summary_frame(summary_bytes.data(), 13, summary);
  FrameParser summary_parser{summary_bytes};
  const SummaryPayload summary_back =
      decode_summary(summary_parser.next()->payload, 1);
  EXPECT_EQ(summary_back.requests, 1000u);
  EXPECT_EQ(summary_back.hits, 600u);
  EXPECT_EQ(summary_back.eviction_hash, 0x482f95a6f4a0f410ULL);
  EXPECT_DOUBLE_EQ(summary_back.file_hit_rate, 0.6);
  EXPECT_DOUBLE_EQ(summary_back.mean_latency_us, 5200.25);
  EXPECT_EQ(summary_back.refused, 17u);
}

TEST(Protocol, ControlFramesRoundTripEmptyPayload) {
  for (const FrameType type :
       {FrameType::stats_request, FrameType::report_request,
        FrameType::shutdown_request, FrameType::shutdown_ack}) {
    const std::vector<std::uint8_t> bytes = encode_frame(type, 21, {});
    ASSERT_EQ(bytes.size(), kHeaderBytes);
    FrameParser parser{bytes};
    const std::optional<Frame> frame = parser.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_TRUE(frame->header.type == type);
    EXPECT_EQ(frame->header.payload_size, 0u);
    EXPECT_TRUE(frame->payload.empty());
  }
}

TEST(Protocol, VariableLengthReportRoundTrip) {
  const std::string json = "{\"source\": \"otacd\"}";
  const std::vector<std::uint8_t> bytes = encode_frame(
      FrameType::report, 3,
      {reinterpret_cast<const std::uint8_t*>(json.data()), json.size()});
  FrameParser parser{bytes};
  const std::optional<Frame> frame = parser.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(std::string(frame->payload.begin(), frame->payload.end()), json);
}

// --- truncation sweep -----------------------------------------------------

TEST(Protocol, TruncationAtEveryHeaderBoundary) {
  const std::vector<std::uint8_t> whole = get_frame();
  for (std::size_t cut = 0; cut < kHeaderBytes; ++cut) {
    const std::vector<std::uint8_t> truncated(whole.begin(),
                                              whole.begin() + cut);
    FrameParser parser{truncated};
    if (cut == 0) {
      // A clean EOF at a frame boundary is not an error.
      EXPECT_FALSE(parser.next().has_value());
      continue;
    }
    SCOPED_TRACE("cut at header byte " + std::to_string(cut));
    expect_error([&] { (void)parser.next(); },
                 "frame 1: truncated header (got " + std::to_string(cut) +
                     " of 24 bytes)");
  }
}

TEST(Protocol, TruncationAtEveryPayloadBoundary) {
  const std::vector<std::uint8_t> whole = get_frame();
  for (std::size_t cut = kHeaderBytes; cut < whole.size(); ++cut) {
    const std::vector<std::uint8_t> truncated(whole.begin(),
                                              whole.begin() + cut);
    FrameParser parser{truncated};
    SCOPED_TRACE("cut at payload byte " + std::to_string(cut - kHeaderBytes));
    expect_error([&] { (void)parser.next(); },
                 "frame 1: truncated payload (got " +
                     std::to_string(cut - kHeaderBytes) + " of 24 bytes)");
  }
}

// --- header rejection paths ----------------------------------------------

TEST(Protocol, BadMagicRejected) {
  std::vector<std::uint8_t> frame = get_frame();
  frame[3] = 0x58;  // "OTAX"
  FrameParser parser{frame};
  expect_error([&] { (void)parser.next(); },
               "frame 1: bad magic 0x5841544F");
}

TEST(Protocol, UnsupportedVersionRejected) {
  std::vector<std::uint8_t> frame = get_frame();
  put_u16(frame.data() + 4, 2);
  FrameParser parser{frame};
  expect_error([&] { (void)parser.next(); },
               "frame 1: unsupported protocol version 2 (expected 1)");
}

TEST(Protocol, UnknownFrameTypeRejected) {
  std::vector<std::uint8_t> frame = get_frame();
  put_u16(frame.data() + 6, 11);
  FrameParser parser{frame};
  expect_error([&] { (void)parser.next(); },
               "frame 1: unknown frame type 11");
  put_u16(frame.data() + 6, 0);
  FrameParser zero_parser{frame};
  expect_error([&] { (void)zero_parser.next(); },
               "frame 1: unknown frame type 0");
}

TEST(Protocol, OversizedPayloadRejectedFromHeaderAlone) {
  // Header-only bytes declaring kMaxPayloadBytes + 1: the header check
  // must reject before any payload is expected, so the error is
  // "oversized", never "truncated payload" — that ordering is what keeps
  // a hostile length from forcing an allocation.
  std::vector<std::uint8_t> header(kHeaderBytes);
  encode_header(header.data(), FrameType::report, 1, {});
  put_u32(header.data() + 16, kMaxPayloadBytes + 1);
  FrameParser parser{header};
  expect_error([&] { (void)parser.next(); },
               "frame 1: oversized payload 8388609 bytes (max 8388608)");
}

TEST(Protocol, PayloadCrcMismatchRejected) {
  std::vector<std::uint8_t> frame = get_frame();
  frame[kHeaderBytes + 2] ^= 0x01;  // flip one payload bit
  const std::uint32_t declared = read_u32(frame.data() + 20);
  FrameParser parser{frame};
  try {
    (void)parser.next();
    FAIL() << "expected CRC mismatch";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_TRUE(what.starts_with("frame 1: payload CRC mismatch (got 0x"))
        << what;
    char expected[16];
    std::snprintf(expected, sizeof(expected), "0x%08X", declared);
    EXPECT_NE(what.find(std::string{"expected "} + expected),
              std::string::npos)
        << what;
  }
}

// --- typed decoders and server-side pre-read validation -------------------

TEST(Protocol, TypedDecodersRejectWrongSizes) {
  const std::vector<std::uint8_t> bytes(8, 0);
  expect_error([&] { (void)decode_get(bytes, 3); },
               "frame 3: get payload is 8 bytes (expected 24)");
  expect_error([&] { (void)decode_put(bytes, 4); },
               "frame 4: put payload is 8 bytes (expected 16)");
  expect_error([&] { (void)decode_result(bytes, 5); },
               "frame 5: result payload is 8 bytes (expected 16)");
  expect_error([&] { (void)decode_summary(bytes, 6); },
               "frame 6: summary payload is 8 bytes (expected 120)");
}

TEST(Protocol, UnknownResultStatusRejected) {
  std::vector<std::uint8_t> payload(kResultPayloadBytes, 0);
  payload[0] = 6;
  expect_error([&] { (void)decode_result(payload, 2); },
               "frame 2: unknown result status 6");
}

TEST(Protocol, CheckClientFrameAcceptsRequestTypes) {
  FrameHeader header;
  header.type = FrameType::get_request;
  header.payload_size = kGetPayloadBytes;
  EXPECT_NO_THROW(check_client_frame(header, 1));
  header.type = FrameType::put_request;
  header.payload_size = kPutPayloadBytes;
  EXPECT_NO_THROW(check_client_frame(header, 1));
  for (const FrameType type :
       {FrameType::stats_request, FrameType::report_request,
        FrameType::shutdown_request}) {
    header.type = type;
    header.payload_size = 0;
    EXPECT_NO_THROW(check_client_frame(header, 1));
  }
}

TEST(Protocol, CheckClientFrameRejectsBeforePayloadRead) {
  FrameHeader header;
  header.type = FrameType::get_request;
  header.payload_size = 23;
  expect_error([&] { check_client_frame(header, 9); },
               "frame 9: get payload is 23 bytes (expected 24)");
  header.type = FrameType::stats_request;
  header.payload_size = 1;
  expect_error([&] { check_client_frame(header, 10); },
               "frame 10: stats payload is 1 bytes (expected 0)");
}

TEST(Protocol, CheckClientFrameRejectsReplyTypes) {
  FrameHeader header;
  header.payload_size = 0;
  const struct {
    FrameType type;
    const char* name;
  } replies[] = {{FrameType::result, "result"},
                 {FrameType::summary, "summary"},
                 {FrameType::report, "report"},
                 {FrameType::shutdown_ack, "shutdown-ack"},
                 {FrameType::error, "error"}};
  for (const auto& reply : replies) {
    header.type = reply.type;
    expect_error([&] { check_client_frame(header, 2); },
                 std::string{"frame 2: unexpected "} + reply.name +
                     " frame from client");
  }
}

// --- stream position in error messages ------------------------------------

TEST(Protocol, ErrorsCarryOneBasedFramePosition) {
  // Three good frames then a corrupt one: the error must name frame 4.
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 3; ++i) {
    const std::vector<std::uint8_t> good = get_frame(static_cast<unsigned>(i));
    stream.insert(stream.end(), good.begin(), good.end());
  }
  std::vector<std::uint8_t> bad = get_frame(3);
  bad[3] = 0x58;
  stream.insert(stream.end(), bad.begin(), bad.end());

  FrameParser parser{stream};
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(parser.next().has_value());
  EXPECT_EQ(parser.frames_decoded(), 3u);
  expect_error([&] { (void)parser.next(); },
               "frame 4: bad magic 0x5841544F");
}

TEST(Protocol, MultiFrameStreamDecodesInOrder) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const std::vector<std::uint8_t> frame = get_frame(i);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  FrameParser parser{stream};
  for (std::uint64_t i = 0; i < 5; ++i) {
    const std::optional<Frame> frame = parser.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->header.sequence, i);
  }
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.frames_decoded(), 5u);
}

}  // namespace
}  // namespace otac::net
