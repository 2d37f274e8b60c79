// Framing + marshalling tests for the network protocol — pure in-memory,
// no sockets: everything here feeds bytes to FrameParser / the protocol
// marshalling functions directly, so the whole rejection taxonomy
// (truncation, garbage, version skew, CRC corruption, digest mismatch,
// out-of-range arguments) is pinned without a server.
//
// The socket-level behaviors (partial reads, overload, drain) live in
// tests/test_net.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "serve/request.hpp"

namespace dnj::net {
namespace {

image::Image tiny_image(int w = 8, int h = 6, int ch = 1) {
  image::Image img(w, h, ch);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      for (int c = 0; c < ch; ++c)
        img.at(x, y, c) = static_cast<std::uint8_t>((x * 7 + y * 13 + c * 29) & 0xFF);
  return img;
}

Frame roundtrip_one(const std::vector<std::uint8_t>& bytes) {
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  Frame out;
  EXPECT_EQ(parser.next(&out), ParseResult::kFrame);
  EXPECT_EQ(parser.buffered(), 0u);
  return out;
}

TEST(NetFraming, Crc32MatchesTheStandardCheckValue) {
  // The ISO-HDLC check value — any stock zlib/PNG/Ethernet CRC-32 agrees.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0x00000000u);
}

TEST(NetFraming, HeaderRoundTripPreservesEveryField) {
  Frame f;
  f.type = FrameType::kRequest;
  f.op = Op::kTranscode;
  f.status = 0;
  f.request_id = 0xDEADBEEF;
  f.config_digest = 0x0123456789ABCDEFull;
  f.payload = {1, 2, 3, 4, 5};

  const std::vector<std::uint8_t> bytes = serialize_frame(f);
  ASSERT_EQ(bytes.size(), kHeaderSize + 5);
  EXPECT_EQ(read_u32(bytes.data()), kMagic);

  const Frame back = roundtrip_one(bytes);
  EXPECT_EQ(back.version, kProtocolVersion);
  EXPECT_EQ(back.type, FrameType::kRequest);
  EXPECT_EQ(back.op, Op::kTranscode);
  EXPECT_EQ(back.request_id, 0xDEADBEEFu);
  EXPECT_EQ(back.config_digest, 0x0123456789ABCDEFull);
  EXPECT_EQ(back.payload, f.payload);
}

TEST(NetFraming, ZeroLengthPayloadIsAValidFrame) {
  const std::vector<std::uint8_t> bytes = serialize_frame(make_ping(7));
  ASSERT_EQ(bytes.size(), kHeaderSize);
  const Frame back = roundtrip_one(bytes);
  EXPECT_EQ(back.op, Op::kPing);
  EXPECT_EQ(back.request_id, 7u);
  EXPECT_TRUE(back.payload.empty());
}

TEST(NetFraming, ByteAtATimeFeedReassemblesFrames) {
  Frame f;
  f.type = FrameType::kResponse;
  f.op = Op::kEncode;
  f.payload.assign(300, 0x5A);
  const std::vector<std::uint8_t> bytes = serialize_frame(f);

  FrameParser parser;
  Frame out;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    parser.feed(&bytes[i], 1);
    ASSERT_EQ(parser.next(&out), ParseResult::kNeedMore) << "at byte " << i;
  }
  parser.feed(&bytes.back(), 1);
  ASSERT_EQ(parser.next(&out), ParseResult::kFrame);
  EXPECT_EQ(out.payload, f.payload);
}

TEST(NetFraming, BackToBackFramesParseInOrder) {
  std::vector<std::uint8_t> stream;
  for (std::uint32_t id = 1; id <= 3; ++id) {
    const std::vector<std::uint8_t> one = serialize_frame(make_ping(id));
    stream.insert(stream.end(), one.begin(), one.end());
  }
  FrameParser parser;
  parser.feed(stream.data(), stream.size());
  Frame out;
  for (std::uint32_t id = 1; id <= 3; ++id) {
    ASSERT_EQ(parser.next(&out), ParseResult::kFrame);
    EXPECT_EQ(out.request_id, id);
  }
  EXPECT_EQ(parser.next(&out), ParseResult::kNeedMore);
}

TEST(NetFraming, HeldBytesStayWithinOneFramePlusOneRead) {
  // Pipelined frames arrive in reads that never line up with frame ends;
  // the parser must not keep the already-parsed bytes of earlier frames.
  constexpr std::size_t kFrames = 20000;
  constexpr std::size_t kRead = 1499;
  Frame f;
  f.op = Op::kDecode;
  f.payload.assign(1001, 0x5A);
  const std::vector<std::uint8_t> one = serialize_frame(f);
  ASSERT_EQ(one.size(), 1029u);
  std::vector<std::uint8_t> stream;
  stream.reserve(one.size() * kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) stream.insert(stream.end(), one.begin(), one.end());

  FrameParser parser;
  Frame out;
  std::size_t frames = 0;
  std::size_t most_held = 0;
  for (std::size_t at = 0; at < stream.size(); at += kRead) {
    parser.feed(stream.data() + at, std::min(kRead, stream.size() - at));
    most_held = std::max(most_held, parser.held());
    ParseResult pr;
    while ((pr = parser.next(&out)) == ParseResult::kFrame) ++frames;
    ASSERT_EQ(pr, ParseResult::kNeedMore);
  }
  EXPECT_EQ(frames, kFrames);
  EXPECT_EQ(parser.buffered(), 0u);
  EXPECT_LE(most_held, one.size() + kRead);
}

TEST(NetFraming, TruncatedHeaderIsNeedMoreNotAnError) {
  const std::vector<std::uint8_t> bytes = serialize_frame(make_ping(1));
  FrameParser parser;
  parser.feed(bytes.data(), kHeaderSize - 1);
  Frame out;
  EXPECT_EQ(parser.next(&out), ParseResult::kNeedMore);
  EXPECT_FALSE(parser.broken());
}

TEST(NetFraming, GarbageStreamIsBadMagicAndSticky) {
  std::vector<std::uint8_t> garbage(64, 0xAB);
  FrameParser parser;
  parser.feed(garbage.data(), garbage.size());
  Frame out;
  EXPECT_EQ(parser.next(&out), ParseResult::kBadMagic);
  EXPECT_TRUE(parser.broken());
  // Even a valid frame fed afterwards cannot rescue the stream.
  const std::vector<std::uint8_t> good = serialize_frame(make_ping(1));
  parser.feed(good.data(), good.size());
  EXPECT_EQ(parser.next(&out), ParseResult::kBadMagic);
}

TEST(NetFraming, VersionSkewIsBadVersion) {
  std::vector<std::uint8_t> bytes = serialize_frame(make_ping(1));
  bytes[4] = kProtocolVersion + 1;  // version byte
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  Frame out;
  EXPECT_EQ(parser.next(&out), ParseResult::kBadVersion);
  EXPECT_TRUE(parser.broken());
}

TEST(NetFraming, CorruptPayloadIsBadCrc) {
  Frame f;
  f.type = FrameType::kRequest;
  f.op = Op::kDecode;
  f.payload = {10, 20, 30, 40};
  std::vector<std::uint8_t> bytes = serialize_frame(f);
  bytes[kHeaderSize + 2] ^= 0x01;  // flip one payload bit
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  Frame out;
  EXPECT_EQ(parser.next(&out), ParseResult::kBadCrc);
  EXPECT_TRUE(parser.broken());
}

TEST(NetFraming, BadTypeByteIsBadHeader) {
  std::vector<std::uint8_t> bytes = serialize_frame(make_ping(1));
  bytes[5] = 9;  // type byte: neither request nor response
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  Frame out;
  EXPECT_EQ(parser.next(&out), ParseResult::kBadHeader);
}

TEST(NetFraming, PayloadSizeLimitIsEnforcedExactly) {
  // A parser with a tiny configured ceiling pins the max-length behavior
  // without 64 MiB allocations: at the limit parses, one past it fails.
  Frame at_limit;
  at_limit.type = FrameType::kRequest;
  at_limit.op = Op::kDecode;
  at_limit.payload.assign(128, 0x11);

  FrameParser ok_parser(/*max_payload=*/128);
  const std::vector<std::uint8_t> ok_bytes = serialize_frame(at_limit);
  ok_parser.feed(ok_bytes.data(), ok_bytes.size());
  Frame out;
  EXPECT_EQ(ok_parser.next(&out), ParseResult::kFrame);
  EXPECT_EQ(out.payload.size(), 128u);

  at_limit.payload.push_back(0x22);  // 129 bytes
  FrameParser over_parser(/*max_payload=*/128);
  const std::vector<std::uint8_t> over_bytes = serialize_frame(at_limit);
  over_parser.feed(over_bytes.data(), over_bytes.size());
  EXPECT_EQ(over_parser.next(&out), ParseResult::kBadHeader);
  EXPECT_TRUE(over_parser.broken());
}

// ------------------------------------------------------------ marshalling

TEST(NetProtocol, EncodeRequestRoundTrips) {
  serve::Request req;
  req.kind = serve::RequestKind::kEncode;
  req.config.quality = 85;
  req.config.subsampling = jpeg::Subsampling::k444;
  req.config.optimize_huffman = true;
  req.config.restart_interval = 4;
  req.config.comment = "roundtrip";
  req.image = tiny_image(10, 8, 3);

  const Frame frame = make_request(42, req);
  EXPECT_EQ(frame.op, Op::kEncode);
  EXPECT_NE(frame.config_digest, 0u);

  serve::Request back;
  ASSERT_EQ(parse_request(frame, &back), WireStatus::kOk);
  EXPECT_EQ(back.kind, serve::RequestKind::kEncode);
  EXPECT_EQ(back.config.quality, 85);
  EXPECT_EQ(back.config.subsampling, jpeg::Subsampling::k444);
  EXPECT_TRUE(back.config.optimize_huffman);
  EXPECT_EQ(back.config.restart_interval, 4);
  EXPECT_EQ(back.config.comment, "roundtrip");
  EXPECT_EQ(back.image.width(), 10);
  EXPECT_EQ(back.image.height(), 8);
  EXPECT_EQ(back.image.channels(), 3);
  EXPECT_EQ(back.image.data(), req.image.data());
}

TEST(NetProtocol, CustomTablesSurviveTheWire) {
  std::array<std::uint16_t, 64> luma{}, chroma{};
  for (int i = 0; i < 64; ++i) {
    luma[static_cast<std::size_t>(i)] = static_cast<std::uint16_t>(i + 1);
    chroma[static_cast<std::size_t>(i)] = static_cast<std::uint16_t>(2 * i + 1);
  }
  serve::Request req;
  req.kind = serve::RequestKind::kEncode;
  req.config.use_custom_tables = true;
  req.config.luma_table = jpeg::QuantTable(luma);
  req.config.chroma_table = jpeg::QuantTable(chroma);
  req.image = tiny_image();

  serve::Request back;
  ASSERT_EQ(parse_request(make_request(1, req), &back), WireStatus::kOk);
  ASSERT_TRUE(back.config.use_custom_tables);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(back.config.luma_table.step(i), req.config.luma_table.step(i));
    EXPECT_EQ(back.config.chroma_table.step(i), req.config.chroma_table.step(i));
  }
}

TEST(NetProtocol, EveryOpRoundTrips) {
  serve::Request decode;
  decode.kind = serve::RequestKind::kDecode;
  decode.bytes = {0xFF, 0xD8, 0xFF, 0xD9};
  serve::Request back;
  ASSERT_EQ(parse_request(make_request(1, decode), &back), WireStatus::kOk);
  EXPECT_EQ(back.kind, serve::RequestKind::kDecode);
  EXPECT_EQ(back.bytes, decode.bytes);

  serve::Request transcode;
  transcode.kind = serve::RequestKind::kTranscode;
  transcode.config.quality = 60;
  transcode.bytes = {0xFF, 0xD8, 0x00, 0xFF, 0xD9};
  ASSERT_EQ(parse_request(make_request(2, transcode), &back), WireStatus::kOk);
  EXPECT_EQ(back.kind, serve::RequestKind::kTranscode);
  EXPECT_EQ(back.config.quality, 60);
  EXPECT_EQ(back.bytes, transcode.bytes);

  serve::Request deepn;
  deepn.kind = serve::RequestKind::kDeepnEncode;
  deepn.quality = 35;
  deepn.image = tiny_image();
  ASSERT_EQ(parse_request(make_request(3, deepn), &back), WireStatus::kOk);
  EXPECT_EQ(back.kind, serve::RequestKind::kDeepnEncode);
  EXPECT_EQ(back.quality, 35);
  EXPECT_EQ(back.image.data(), deepn.image.data());

  serve::Request infer;
  infer.kind = serve::RequestKind::kInfer;
  infer.bytes = {0xFF, 0xD8, 0x01, 0xFF, 0xD9};
  ASSERT_EQ(parse_request(make_request(4, infer), &back), WireStatus::kOk);
  EXPECT_EQ(back.kind, serve::RequestKind::kInfer);
  EXPECT_EQ(back.bytes, infer.bytes);
}

TEST(NetProtocol, HeaderDigestMismatchIsMalformed) {
  serve::Request req;
  req.kind = serve::RequestKind::kEncode;
  req.config.quality = 50;
  req.image = tiny_image();
  Frame frame = make_request(1, req);
  frame.config_digest ^= 1;  // header no longer matches the options bytes
  serve::Request back;
  EXPECT_EQ(parse_request(frame, &back), WireStatus::kMalformed);
}

TEST(NetProtocol, TruncatedPayloadIsMalformedNotInvalidArgument) {
  serve::Request req;
  req.kind = serve::RequestKind::kEncode;
  req.config.quality = 50;
  req.image = tiny_image();
  Frame frame = make_request(1, req);
  frame.payload.resize(frame.payload.size() - 3);  // chop pixel bytes
  serve::Request back;
  EXPECT_EQ(parse_request(frame, &back), WireStatus::kMalformed);
}

TEST(NetProtocol, SemanticRangeErrorsAreInvalidArgument) {
  // Structurally sound frames with out-of-range values: the connection can
  // survive these (unlike kMalformed), so the distinction matters.
  serve::Request bad_quality;
  bad_quality.kind = serve::RequestKind::kDeepnEncode;
  bad_quality.quality = 0;
  bad_quality.image = tiny_image();
  serve::Request back;
  EXPECT_EQ(parse_request(make_request(1, bad_quality), &back),
            WireStatus::kInvalidArgument);

  serve::Request empty_stream;
  empty_stream.kind = serve::RequestKind::kDecode;
  EXPECT_EQ(parse_request(make_request(2, empty_stream), &back),
            WireStatus::kInvalidArgument);

  // Channels = 2 is structurally readable but semantically unsupported.
  serve::Request enc;
  enc.kind = serve::RequestKind::kEncode;
  enc.config.quality = 50;
  enc.image = tiny_image();
  Frame frame = make_request(3, enc);
  // Patch the image block's channel count in place. The options block with
  // an empty comment and no custom tables is 16 bytes (quality u32, four
  // flag bytes, restart u32, comment_len u32); the image block follows as
  // width u32, height u32, channels u32 — channels starts at offset 24.
  const std::size_t channels_off = 16 + 8;
  ASSERT_EQ(frame.payload[channels_off], 1);  // layout sanity
  frame.payload[channels_off] = 2;
  EXPECT_EQ(parse_request(frame, &back), WireStatus::kInvalidArgument);

  // The restart interval and the comment's COM segment length are 16-bit
  // fields in the stream (T.81 B.2.4.4, B.2.4.5): the encoder would refuse
  // larger values, so the parser refuses them first. The largest values
  // that fit still parse.
  serve::Request restart = enc;
  restart.config.restart_interval = 70000;
  EXPECT_EQ(parse_request(make_request(4, restart), &back), WireStatus::kInvalidArgument);
  restart.config.restart_interval = 65535;
  EXPECT_EQ(parse_request(make_request(5, restart), &back), WireStatus::kOk);
  serve::Request comment = enc;
  comment.config.comment.assign(70000, 'c');
  EXPECT_EQ(parse_request(make_request(6, comment), &back), WireStatus::kInvalidArgument);
  comment.config.comment.assign(65533, 'c');
  EXPECT_EQ(parse_request(make_request(7, comment), &back), WireStatus::kOk);
}

TEST(NetProtocol, UnknownOpIsMalformed) {
  Frame frame = make_ping(1);
  frame.op = static_cast<Op>(200);
  serve::Request back;
  EXPECT_EQ(parse_request(frame, &back), WireStatus::kMalformed);
}

TEST(NetProtocol, PingWithPayloadIsMalformed) {
  Frame frame = make_ping(1);
  frame.payload = {1};
  serve::Request back;
  EXPECT_EQ(parse_request(frame, &back), WireStatus::kMalformed);
}

TEST(NetProtocol, OkResponseCarriesObservabilityAndPayload) {
  serve::Response resp;
  resp.status = serve::Status::kOk;
  resp.bytes = {9, 8, 7, 6};
  resp.batch_size = 5;
  resp.queue_us = 123.5;
  resp.service_us = 456.25;

  Frame frame = make_response(77, Op::kEncode, 0xABCDu, resp);
  EXPECT_EQ(frame.config_digest, 0xABCDu);
  ASSERT_FALSE(frame.payload.empty());
  EXPECT_EQ(frame.payload[0], 0u);  // the retired cache-hit byte

  WireReply reply;
  ASSERT_TRUE(parse_response(frame, &reply));
  EXPECT_EQ(reply.status, WireStatus::kOk);
  EXPECT_EQ(reply.request_id, 77u);
  EXPECT_EQ(reply.bytes, resp.bytes);
  EXPECT_FALSE(reply.cache_hit);
  EXPECT_EQ(reply.batch_size, 5u);
  EXPECT_DOUBLE_EQ(reply.queue_us, 123.5);
  EXPECT_DOUBLE_EQ(reply.service_us, 456.25);

  // A reply whose byte is set (an older server's cache hit) still parses.
  frame.payload[0] = 1;
  ASSERT_TRUE(parse_response(frame, &reply));
  EXPECT_TRUE(reply.cache_hit);
  EXPECT_EQ(reply.bytes, resp.bytes);
}

TEST(NetProtocol, DecodeAndInferResponsesRoundTrip) {
  serve::Response dec;
  dec.image = tiny_image(5, 4, 3);
  WireReply reply;
  ASSERT_TRUE(parse_response(make_response(1, Op::kDecode, 0, dec), &reply));
  EXPECT_EQ(reply.image.width(), 5);
  EXPECT_EQ(reply.image.height(), 4);
  EXPECT_EQ(reply.image.data(), dec.image.data());

  serve::Response inf;
  inf.probs = {0.1f, 0.7f, 0.2f};
  ASSERT_TRUE(parse_response(make_response(2, Op::kInfer, 0, inf), &reply));
  ASSERT_EQ(reply.probs.size(), 3u);
  EXPECT_FLOAT_EQ(reply.probs[1], 0.7f);
}

TEST(NetProtocol, ServeFailuresBecomeTypedErrorResponses) {
  serve::Response rejected;
  rejected.status = serve::Status::kRejected;
  rejected.error = "queue full";
  WireReply reply;
  ASSERT_TRUE(parse_response(make_response(1, Op::kEncode, 0, rejected), &reply));
  EXPECT_EQ(reply.status, WireStatus::kRejected);
  EXPECT_EQ(reply.error, "queue full");
  EXPECT_TRUE(reply.bytes.empty());

  // kError has no wire value of its own: it maps to kInternal.
  serve::Response failed;
  failed.status = serve::Status::kError;
  failed.error = "handler threw";
  ASSERT_TRUE(parse_response(make_response(2, Op::kDecode, 0, failed), &reply));
  EXPECT_EQ(reply.status, WireStatus::kInternal);
  EXPECT_EQ(reply.error, "handler threw");
}

TEST(NetProtocol, WireOnlyErrorsRoundTrip) {
  WireReply reply;
  ASSERT_TRUE(parse_response(
      make_error(3, Op::kPing, WireStatus::kVersionSkew, "speak version 1"), &reply));
  EXPECT_EQ(reply.status, WireStatus::kVersionSkew);
  EXPECT_EQ(reply.error, "speak version 1");
}

TEST(NetProtocol, WireDigestIsFnv1aOfTheOptionsSection) {
  // The digest rule is implementable by a foreign client from the spec
  // alone: FNV-1a 64 over the serialized options section.
  serve::Request req;
  req.kind = serve::RequestKind::kEncode;
  req.config.quality = 92;
  req.image = tiny_image();

  std::vector<std::uint8_t> options;
  append_options(req.config, options);
  std::uint64_t digest = 14695981039346656037ull;
  for (std::uint8_t b : options) {
    digest ^= b;
    digest *= 1099511628211ull;
  }
  EXPECT_EQ(wire_config_digest(req), digest);
  EXPECT_EQ(make_request(1, req).config_digest, digest);

  serve::Request no_options;
  no_options.kind = serve::RequestKind::kDecode;
  no_options.bytes = {1};
  EXPECT_EQ(wire_config_digest(no_options), 0u);
}

}  // namespace
}  // namespace dnj::net
