// End-to-end tests of the network front end: a real server on a loopback
// socket, the blocking Client as the peer.
//
// The load-bearing test is ByteIdenticalToSynchronousCalls: response
// payloads received over TCP must equal the synchronous in-process calls
// bit for bit — across worker counts, cold and warm worker contexts, and
// both poller backends. That is the serving determinism contract crossing
// the wire; everything between the client and the codec (marshalling,
// framing, socket fragmentation, scheduling, write-back) must be
// payload-transparent for it to hold.
//
// The rest covers the connection state machine: pipelining and response
// correlation, replies gathered into one write per loop pass, a reader that
// stalls the server's writes, chunked sends, protocol-error frames
// (garbage, version skew, oversized), typed overload rejection, the
// connection cap, idle timeouts, and graceful drain. Every blocking read is
// armed with a receive timeout — a hung server fails a test, never the
// suite.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>

#include "api/dnj.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"

namespace dnj::net {
namespace {

// The whole suite runs with tracing forced on: observability must never
// influence payload bytes, so the byte-identity contract is exercised in
// its strongest form — every request traced end to end.
const bool force_tracing = [] {
  obs::Tracer::instance().set_sample_every(1);
  return true;
}();

image::Image test_image(int w = 48, int h = 32, int ch = 1) {
  image::Image img(w, h, ch);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      for (int c = 0; c < ch; ++c)
        img.at(x, y, c) = static_cast<std::uint8_t>((x * 5 + y * 3 + c * 17 + (x * y) % 7) & 0xFF);
  return img;
}

/// A large image whose encode is slow enough to pile requests up behind it.
image::Image big_image(int side = 1024) {
  image::Image img(side, side, 1);
  for (int y = 0; y < side; ++y)
    for (int x = 0; x < side; ++x)
      img.at(x, y) = static_cast<std::uint8_t>((x * x + y * 31) & 0xFF);
  return img;
}

serve::Request encode_request(const image::Image& img, int quality) {
  serve::Request req;
  req.kind = serve::RequestKind::kEncode;
  req.config.quality = quality;
  req.config.subsampling = jpeg::Subsampling::k444;
  req.image = img;
  return req;
}

/// Service + server pair bound to an ephemeral loopback port.
struct TestServer {
  explicit TestServer(serve::ServiceConfig service_cfg = {}, ServerConfig server_cfg = {})
      : service(std::move(service_cfg)), server(service, std::move(server_cfg)) {
    std::string error;
    started = server.start(&error);
    EXPECT_TRUE(started) << error;
  }

  Client connect() {
    Client client;
    std::string error;
    EXPECT_TRUE(client.connect("127.0.0.1", static_cast<std::uint16_t>(server.port()), &error))
        << error;
    return client;
  }

  serve::TranscodeService service;
  Server server;
  bool started = false;
};

TEST(NetServer, PingRoundTrip) {
  TestServer ts;
  Client client = ts.connect();
  std::string error;
  EXPECT_TRUE(client.ping(&error)) << error;
  EXPECT_TRUE(client.ping(&error)) << error;  // connection is reusable
  EXPECT_GE(ts.server.stats().pings, 2u);
}

TEST(NetServer, ByteIdenticalToSynchronousCalls) {
  const image::Image img = test_image(40, 28, 3);
  api::Session session;

  for (int workers : {1, 4}) {
    serve::ServiceConfig cfg;
    cfg.workers = workers;
    TestServer ts(std::move(cfg));
    Client client = ts.connect();
    std::string error;

    // encode: wire result == synchronous api::Codec result.
    serve::Request enc = encode_request(img, 85);
    const auto sync_encode = session.codec().encode(
        api::ImageView{img.data().data(), img.width(), img.height(), img.channels()},
        api::EncodeOptions().quality(85).chroma_420(false));
    ASSERT_TRUE(sync_encode.ok());
    // Twice: the second call runs on a warm worker context — the payload
    // must not depend on that, and no reply is ever a cache hit.
    for (int round = 0; round < 2; ++round) {
      WireReply reply;
      ASSERT_TRUE(client.call(enc, &reply, &error)) << error;
      ASSERT_EQ(reply.status, WireStatus::kOk) << "workers=" << workers << " round=" << round;
      EXPECT_EQ(reply.bytes, sync_encode.value()) << "workers=" << workers << " round=" << round;
      EXPECT_FALSE(reply.cache_hit) << "workers=" << workers << " round=" << round;
    }

    // decode: wire pixels == synchronous pixels.
    serve::Request dec;
    dec.kind = serve::RequestKind::kDecode;
    dec.bytes = sync_encode.value();
    const auto sync_decode = session.codec().decode(sync_encode.value());
    ASSERT_TRUE(sync_decode.ok());
    WireReply dec_reply;
    ASSERT_TRUE(client.call(dec, &dec_reply, &error)) << error;
    ASSERT_EQ(dec_reply.status, WireStatus::kOk);
    EXPECT_EQ(dec_reply.image.data(), sync_decode.value().pixels);
    EXPECT_FALSE(dec_reply.cache_hit);

    // transcode.
    serve::Request trans;
    trans.kind = serve::RequestKind::kTranscode;
    trans.bytes = sync_encode.value();
    trans.config.quality = 60;
    trans.config.subsampling = jpeg::Subsampling::k444;
    const auto sync_transcode = session.codec().transcode(
        sync_encode.value(), api::EncodeOptions().quality(60).chroma_420(false));
    ASSERT_TRUE(sync_transcode.ok());
    WireReply trans_reply;
    ASSERT_TRUE(client.call(trans, &trans_reply, &error)) << error;
    ASSERT_EQ(trans_reply.status, WireStatus::kOk);
    EXPECT_EQ(trans_reply.bytes, sync_transcode.value());
    EXPECT_FALSE(trans_reply.cache_hit);

    // deepn-encode: reference is the service's own synchronous path
    // (the result depends on the service's installed table pair).
    serve::Request deepn;
    deepn.kind = serve::RequestKind::kDeepnEncode;
    deepn.quality = 70;
    deepn.image = img;
    const serve::Response sync_deepn = ts.service.execute(deepn);
    ASSERT_EQ(sync_deepn.status, serve::Status::kOk);
    WireReply deepn_reply;
    ASSERT_TRUE(client.call(deepn, &deepn_reply, &error)) << error;
    ASSERT_EQ(deepn_reply.status, WireStatus::kOk);
    EXPECT_EQ(deepn_reply.bytes, sync_deepn.bytes);
    EXPECT_FALSE(deepn_reply.cache_hit);
  }
}

TEST(NetServer, BothPollerBackendsServeIdenticalPayloads) {
  const image::Image img = test_image();
  const serve::Request req = encode_request(img, 80);

  std::vector<std::vector<std::uint8_t>> payloads;
  for (PollerBackend backend : {PollerBackend::kPoll, PollerBackend::kAuto}) {
    ServerConfig cfg;
    cfg.backend = backend;
    TestServer ts({}, std::move(cfg));
    Client client = ts.connect();
    std::string error;
    WireReply reply;
    ASSERT_TRUE(client.call(req, &reply, &error)) << error;
    ASSERT_EQ(reply.status, WireStatus::kOk);
    payloads.push_back(reply.bytes);
  }
  EXPECT_EQ(payloads[0], payloads[1]);
}

/// The poller backends this build can run: poll always, epoll where
/// compiled in.
std::vector<PollerBackend> both_backends() {
  std::vector<PollerBackend> backends{PollerBackend::kPoll};
  if (epoll_available()) backends.push_back(PollerBackend::kEpoll);
  return backends;
}

TEST(NetServer, RepliesOfOnePassLeaveInOneWrite) {
  for (PollerBackend backend : both_backends()) {
    ServerConfig cfg;
    cfg.backend = backend;
    TestServer ts({}, std::move(cfg));
    Client client = ts.connect();
    std::string error;
    ASSERT_TRUE(client.ping(&error)) << error;  // the connection is open and idle

    // 64 pings in one send: the loop reads them in one pass, queues 64
    // pongs, and writes them with one gather call (two if the read split).
    constexpr std::uint32_t kPings = 64;
    std::vector<std::uint8_t> burst;
    for (std::uint32_t id = 1; id <= kPings; ++id) {
      const std::vector<std::uint8_t> frame = serialize_frame(make_ping(1000 + id));
      burst.insert(burst.end(), frame.begin(), frame.end());
    }
    // socket_writes is counted just after sendmsg returns, so it can trail
    // the client's receive by a moment: wait for the first pong's write.
    ServerStats before = ts.server.stats();
    for (int i = 0; i < 200 && before.socket_writes == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      before = ts.server.stats();
    }
    ASSERT_TRUE(client.send_raw(burst.data(), burst.size(), &error)) << error;
    for (std::uint32_t id = 1; id <= kPings; ++id) {
      WireReply reply;
      ASSERT_TRUE(client.recv_reply(&reply, &error)) << error << " (pong " << id << ")";
      EXPECT_EQ(reply.status, WireStatus::kOk);
      EXPECT_EQ(reply.op, Op::kPing);
      EXPECT_EQ(reply.request_id, 1000 + id);  // frames leave in queue order
    }

    ServerStats after = ts.server.stats();  // likewise for the pongs' write
    for (int i = 0; i < 200 && after.socket_writes == before.socket_writes; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      after = ts.server.stats();
    }
    EXPECT_EQ(after.frames_out - before.frames_out, kPings);
    EXPECT_GE(after.socket_writes - before.socket_writes, 1u);
    EXPECT_LE(after.socket_writes - before.socket_writes, 2u);
  }
}

TEST(NetServer, StalledReaderGetsEveryReplyIntact) {
  // Decode replies totalling more than the server's socket send buffer can
  // take (about 4 MiB at Linux defaults) on top of a deliberately small
  // client receive buffer: the server's writes hit EAGAIN, wait for
  // writability, and resume mid-frame. Distinct streams per request so a
  // reply that arrives shifted or mixed up cannot match its expectation.
  constexpr int kRequests = 12;
  constexpr int kSide = 512;  // 768 KiB of pixels per reply, 9 MiB in all
  api::Session session;
  std::vector<std::vector<std::uint8_t>> streams;
  std::vector<std::vector<std::uint8_t>> expected;
  const image::Image img = test_image(kSide, kSide, 3);
  for (int i = 0; i < kRequests; ++i) {
    const auto enc = session.codec().encode(
        api::ImageView{img.data().data(), img.width(), img.height(), img.channels()},
        api::EncodeOptions().quality(40 + 4 * i));
    ASSERT_TRUE(enc.ok());
    const auto dec = session.codec().decode(enc.value());
    ASSERT_TRUE(dec.ok());
    streams.push_back(enc.value());
    expected.push_back(dec.value().pixels);
  }

  for (PollerBackend backend : both_backends()) {
    serve::ServiceConfig service_cfg;
    service_cfg.workers = 2;
    ServerConfig cfg;
    cfg.backend = backend;
    TestServer ts(std::move(service_cfg), std::move(cfg));

    // SO_RCVBUF before connect, so the window the server sees is small from
    // the handshake on.
    ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    ASSERT_TRUE(fd.valid());
    const int rcvbuf = 4096;
    ASSERT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf), 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(ts.server.port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    ASSERT_TRUE(set_recv_timeout_ms(fd.get(), 10000));

    // Send every request before reading a byte.
    for (int i = 0; i < kRequests; ++i) {
      serve::Request dec;
      dec.kind = serve::RequestKind::kDecode;
      dec.bytes = streams[static_cast<std::size_t>(i)];
      const std::vector<std::uint8_t> bytes =
          serialize_frame(make_request(static_cast<std::uint32_t>(i + 1), dec));
      ASSERT_TRUE(send_all(fd.get(), bytes.data(), bytes.size()));
    }
    // Let the replies pile up behind the stalled reader.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    FrameParser parser;
    std::set<std::uint32_t> seen;
    std::vector<std::uint8_t> buf(64 * 1024);
    while (seen.size() < static_cast<std::size_t>(kRequests)) {
      Frame frame;
      const ParseResult pr = parser.next(&frame);
      ASSERT_TRUE(pr == ParseResult::kFrame || pr == ParseResult::kNeedMore)
          << "reply stream corrupt after " << seen.size() << " replies";
      if (pr == ParseResult::kNeedMore) {
        const long got = recv_some(fd.get(), buf.data(), buf.size());
        ASSERT_GT(got, 0) << "after " << seen.size() << " replies";
        parser.feed(buf.data(), static_cast<std::size_t>(got));
        continue;
      }
      WireReply reply;
      ASSERT_TRUE(parse_response(frame, &reply));
      ASSERT_EQ(reply.status, WireStatus::kOk) << reply.error;
      ASSERT_GE(reply.request_id, 1u);
      ASSERT_LE(reply.request_id, static_cast<std::uint32_t>(kRequests));
      EXPECT_TRUE(seen.insert(reply.request_id).second)
          << "request " << reply.request_id << " answered twice";
      EXPECT_EQ(reply.image.data(), expected[reply.request_id - 1])
          << "request " << reply.request_id;
    }
  }
}

TEST(NetServer, ChunkedSendsReassemble) {
  TestServer ts;
  Client client = ts.connect();
  std::string error;

  const std::vector<std::uint8_t> bytes =
      serialize_frame(make_request(99, encode_request(test_image(), 75)));
  // Dribble the frame out in small chunks with pauses: the server sees
  // partial headers and partial payloads across many read events.
  for (std::size_t off = 0; off < bytes.size(); off += 41) {
    const std::size_t n = std::min<std::size_t>(41, bytes.size() - off);
    ASSERT_TRUE(client.send_raw(bytes.data() + off, n, &error)) << error;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  WireReply reply;
  ASSERT_TRUE(client.recv_reply(&reply, &error)) << error;
  EXPECT_EQ(reply.status, WireStatus::kOk);
  EXPECT_EQ(reply.request_id, 99u);
}

TEST(NetServer, PipelinedRequestsComeBackCorrelated) {
  serve::ServiceConfig cfg;
  cfg.workers = 4;  // concurrent completion => replies may reorder
  TestServer ts(std::move(cfg));
  Client client = ts.connect();
  std::string error;

  const image::Image img = test_image();
  std::map<std::uint32_t, int> quality_by_id;
  for (int q = 50; q < 58; ++q) {
    const std::uint32_t id = client.send_request(encode_request(img, q), &error);
    ASSERT_NE(id, 0u) << error;
    quality_by_id[id] = q;
  }

  api::Session session;
  const std::size_t expected_replies = quality_by_id.size();
  for (std::size_t i = 0; i < expected_replies; ++i) {
    WireReply reply;
    ASSERT_TRUE(client.recv_reply(&reply, &error)) << error;
    ASSERT_EQ(reply.status, WireStatus::kOk);
    ASSERT_TRUE(quality_by_id.count(reply.request_id));
    const auto expect = session.codec().encode(
        api::ImageView{img.data().data(), img.width(), img.height(), img.channels()},
        api::EncodeOptions().quality(quality_by_id[reply.request_id]).chroma_420(false));
    ASSERT_TRUE(expect.ok());
    EXPECT_EQ(reply.bytes, expect.value());
    quality_by_id.erase(reply.request_id);  // exactly one reply per id
  }
  EXPECT_TRUE(quality_by_id.empty());
}

TEST(NetServer, GarbageGetsTypedErrorThenClose) {
  TestServer ts;
  Client client = ts.connect();
  std::string error;

  std::vector<std::uint8_t> garbage(64, 0xAB);
  ASSERT_TRUE(client.send_raw(garbage.data(), garbage.size(), &error));
  WireReply reply;
  ASSERT_TRUE(client.recv_reply(&reply, &error)) << error;
  EXPECT_EQ(reply.status, WireStatus::kMalformed);
  // The stream is poisoned: the server closes after flushing the error.
  EXPECT_FALSE(client.recv_reply(&reply, &error));
  EXPECT_GE(ts.server.stats().protocol_errors, 1u);
}

TEST(NetServer, VersionSkewGetsTypedErrorThenClose) {
  TestServer ts;
  Client client = ts.connect();
  std::string error;

  std::vector<std::uint8_t> bytes = serialize_frame(make_ping(1));
  bytes[4] = kProtocolVersion + 1;  // version byte
  ASSERT_TRUE(client.send_raw(bytes.data(), bytes.size(), &error));
  WireReply reply;
  ASSERT_TRUE(client.recv_reply(&reply, &error)) << error;
  EXPECT_EQ(reply.status, WireStatus::kVersionSkew);
  // As for bad magic, the refusal does not echo the id (PROTOCOL.md §4).
  EXPECT_EQ(reply.request_id, 0u);
  EXPECT_FALSE(client.recv_reply(&reply, &error));
}

TEST(NetServer, StatsOpInsideVersionOneIsMalformed) {
  // The accepted-version range lets a v1 frame in, but op 6 does not
  // exist in v1: the spec says unknown op == kMalformed, stream closes.
  TestServer ts;
  Client client = ts.connect();
  std::string error;

  std::vector<std::uint8_t> bytes =
      serialize_frame(make_stats_request(9, StatsFormat::kPrometheus));
  bytes[4] = 1;  // a v1 client could never mean "stats" by op 6
  ASSERT_TRUE(client.send_raw(bytes.data(), bytes.size(), &error));
  WireReply reply;
  ASSERT_TRUE(client.recv_reply(&reply, &error)) << error;
  EXPECT_EQ(reply.status, WireStatus::kMalformed);
  EXPECT_FALSE(client.recv_reply(&reply, &error));
}

TEST(NetServer, OversizedFrameGetsTypedErrorThenClose) {
  ServerConfig cfg;
  cfg.max_payload = 4096;  // small ceiling, no giant allocations needed
  TestServer ts({}, std::move(cfg));
  Client client = ts.connect();
  std::string error;

  // A syntactically valid header announcing a payload over the ceiling.
  std::vector<std::uint8_t> header;
  append_u32(header, kMagic);
  append_u8(header, kProtocolVersion);
  append_u8(header, static_cast<std::uint8_t>(FrameType::kRequest));
  append_u8(header, static_cast<std::uint8_t>(Op::kDecode));
  append_u8(header, 0);
  append_u32(header, 1);       // request_id
  append_u64(header, 0);       // config_digest
  append_u32(header, 8192);    // payload_size: past the ceiling
  append_u32(header, 0);       // crc (never checked — header is rejected)
  ASSERT_TRUE(client.send_raw(header.data(), header.size(), &error));

  WireReply reply;
  ASSERT_TRUE(client.recv_reply(&reply, &error)) << error;
  EXPECT_EQ(reply.status, WireStatus::kMalformed);
  EXPECT_FALSE(client.recv_reply(&reply, &error));
}

TEST(NetServer, InvalidArgumentKeepsTheConnectionAlive) {
  TestServer ts;
  Client client = ts.connect();
  std::string error;

  serve::Request bad;
  bad.kind = serve::RequestKind::kDeepnEncode;
  bad.quality = 0;  // out of range, but the frame itself is well-formed
  bad.image = test_image();
  WireReply reply;
  ASSERT_TRUE(client.call(bad, &reply, &error)) << error;
  EXPECT_EQ(reply.status, WireStatus::kInvalidArgument);

  // A restart interval or a comment too long for the stream's 16-bit
  // fields is refused at the boundary, not inside a worker.
  serve::Request restart = encode_request(test_image(), 75);
  restart.config.restart_interval = 70000;
  ASSERT_TRUE(client.call(restart, &reply, &error)) << error;
  EXPECT_EQ(reply.status, WireStatus::kInvalidArgument) << reply.error;
  serve::Request comment = encode_request(test_image(), 75);
  comment.config.comment.assign(70000, 'c');
  ASSERT_TRUE(client.call(comment, &reply, &error)) << error;
  EXPECT_EQ(reply.status, WireStatus::kInvalidArgument) << reply.error;

  // Unlike kMalformed, the framing is still trustworthy: same connection,
  // next request works.
  EXPECT_TRUE(client.ping(&error)) << error;
}

TEST(NetServer, OverloadYieldsTypedRejection) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  cfg.admission = serve::AdmissionPolicy::kReject;
  TestServer ts(std::move(cfg));
  Client client = ts.connect();
  std::string error;

  // One slow encode occupies the worker; a burst behind it overflows the
  // one-slot queue, and the rejections come back as typed frames.
  const int kBurst = 12;
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < kBurst; ++i) {
    const std::uint32_t id = client.send_request(encode_request(big_image(), 75), &error);
    ASSERT_NE(id, 0u) << error;
    ids.push_back(id);
  }

  int ok = 0, rejected = 0;
  for (int i = 0; i < kBurst; ++i) {
    WireReply reply;
    ASSERT_TRUE(client.recv_reply(&reply, &error)) << error << " (reply " << i << ")";
    if (reply.status == WireStatus::kOk) {
      EXPECT_FALSE(reply.bytes.empty());
      ++ok;
    } else {
      EXPECT_EQ(reply.status, WireStatus::kRejected);
      EXPECT_FALSE(reply.error.empty());
      ++rejected;
    }
  }
  EXPECT_GE(ok, 1);        // the in-flight request completes
  EXPECT_GE(rejected, 1);  // and the overflow is told so, in-band
  EXPECT_EQ(ok + rejected, kBurst);
}

TEST(NetServer, ConnectionCapRejectsSurplusConnections) {
  ServerConfig cfg;
  cfg.max_connections = 1;
  TestServer ts({}, std::move(cfg));

  Client first = ts.connect();
  std::string error;
  ASSERT_TRUE(first.ping(&error)) << error;

  // The second connection is accepted at the TCP level, told kRejected in
  // a best-effort frame, and closed.
  Client second = ts.connect();
  WireReply reply;
  ASSERT_TRUE(second.recv_reply(&reply, &error)) << error;
  EXPECT_EQ(reply.status, WireStatus::kRejected);
  EXPECT_FALSE(second.recv_reply(&reply, &error));  // closed
  EXPECT_GE(ts.server.stats().connections_rejected, 1u);

  // The first connection is unaffected.
  EXPECT_TRUE(first.ping(&error)) << error;
}

TEST(NetServer, IdleConnectionsAreClosed) {
  ServerConfig cfg;
  cfg.idle_timeout_ms = 100;
  TestServer ts({}, std::move(cfg));
  Client client = ts.connect();
  std::string error;
  ASSERT_TRUE(client.ping(&error)) << error;

  // Go quiet past the timeout: the server closes the connection.
  WireReply reply;
  EXPECT_FALSE(client.recv_reply(&reply, &error));
  EXPECT_GE(ts.server.stats().connections_idle_closed, 1u);
}

TEST(NetServer, GracefulDrainFlushesSubmittedWork) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  TestServer ts(std::move(cfg));
  Client client = ts.connect();
  std::string error;

  // Pipeline a slow request and three fast ones, give the event loop time
  // to read and submit all four, then stop the server mid-flight.
  const int kInFlight = 4;
  ASSERT_NE(client.send_request(encode_request(big_image(), 75), &error), 0u);
  for (int i = 0; i < kInFlight - 1; ++i)
    ASSERT_NE(client.send_request(encode_request(test_image(), 60 + i), &error), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  ts.server.stop();  // blocks until drained

  // Every request submitted before the drain must have produced a flushed
  // response; after them, clean EOF.
  for (int i = 0; i < kInFlight; ++i) {
    WireReply reply;
    ASSERT_TRUE(client.recv_reply(&reply, &error)) << error << " (reply " << i << ")";
    EXPECT_EQ(reply.status, WireStatus::kOk);
  }
  WireReply extra;
  EXPECT_FALSE(client.recv_reply(&extra, &error));

  // The listener is gone: new connections are refused.
  Client late;
  EXPECT_FALSE(late.connect("127.0.0.1", static_cast<std::uint16_t>(ts.server.port() <= 0
                                                                        ? 1
                                                                        : ts.server.port()),
                            &error));
}

TEST(NetServer, StopIsIdempotentAndRestartWorks) {
  TestServer ts;
  ts.server.stop();
  ts.server.stop();
  EXPECT_FALSE(ts.server.running());
  EXPECT_EQ(ts.server.port(), -1);

  // start() after stop() brings the server back on a fresh socket.
  std::string error;
  ASSERT_TRUE(ts.server.start(&error)) << error;
  EXPECT_TRUE(ts.server.running());
  Client client = ts.connect();
  EXPECT_TRUE(client.ping(&error)) << error;
  // Double-start while running is refused.
  EXPECT_FALSE(ts.server.start(&error));
}

TEST(NetServer, StatsScrapeExposesBothLayersOverTheWire) {
  TestServer ts;
  Client client = ts.connect();
  std::string error;

  // Put at least one request through so the counters are non-trivial.
  WireReply reply;
  ASSERT_TRUE(client.call(encode_request(test_image(), 80), &reply, &error)) << error;
  ASSERT_EQ(reply.status, WireStatus::kOk);

  // Prometheus text: service counters and net counters answer one scrape.
  std::string text;
  ASSERT_TRUE(client.scrape(StatsFormat::kPrometheus, &text, &error)) << error;
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
  EXPECT_NE(text.find("serve_requests_submitted_total 1"), std::string::npos) << text;
  EXPECT_NE(text.find("serve_requests_completed_total"), std::string::npos);
  EXPECT_NE(text.find("net_frames_in_total"), std::string::npos);
  EXPECT_NE(text.find("net_socket_writes_total"), std::string::npos);
  EXPECT_NE(text.find("net_connections_active 1"), std::string::npos);
  EXPECT_NE(text.find("net_response_bytes"), std::string::npos);

  // JSON rendering of the same registry.
  std::string json_text;
  ASSERT_TRUE(client.scrape(StatsFormat::kJson, &json_text, &error)) << error;
  EXPECT_EQ(json_text.rfind("{\"metrics\":[", 0), 0u) << json_text.substr(0, 40);
  EXPECT_NE(json_text.find("\"name\":\"serve_requests_submitted_total\""),
            std::string::npos);

  // Trace dump over the wire.
  std::string trace_text;
  ASSERT_TRUE(client.scrape(StatsFormat::kTraceJson, &trace_text, &error)) << error;
  EXPECT_NE(trace_text.find("\"clock\":\"steady_ns\""), std::string::npos);
  EXPECT_NE(trace_text.find("\"spans\":["), std::string::npos);

  // The scrapes themselves are counted (and answered on the loop thread,
  // so they are already visible by the time the reply arrived).
  EXPECT_GE(ts.server.stats().stats_scrapes, 3u);
  std::string again;
  ASSERT_TRUE(client.scrape(StatsFormat::kPrometheus, &again, &error)) << error;
  EXPECT_NE(again.find("net_stats_scrapes_total"), std::string::npos);
}

TEST(NetServer, TracedRequestYieldsNestedSpansAcrossAllLayers) {
  auto& tracer = obs::Tracer::instance();
  tracer.clear();

  TestServer ts;
  Client client = ts.connect();
  std::string error;
  WireReply reply;
  ASSERT_TRUE(client.call(encode_request(test_image(), 80), &reply, &error)) << error;
  ASSERT_EQ(reply.status, WireStatus::kOk);

  // The root record lands on the loop thread just after the response bytes
  // hit the socket, so it can trail the client's receive by a moment.
  std::uint64_t trace = 0;
  for (int i = 0; i < 400 && trace == 0; ++i) {
    for (const auto& rec : tracer.dump())
      if (rec.stage == obs::Stage::kRequest && rec.parent_id == 0) trace = rec.trace_id;
    if (trace == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_NE(trace, 0u) << "no completed request trace was recorded";

  std::map<obs::Stage, int> stages;
  std::uint64_t root_span = 0, root_start = 0, root_end = 0;
  std::vector<obs::SpanRecord> spans;
  for (const auto& rec : tracer.dump()) {
    if (rec.trace_id != trace) continue;
    spans.push_back(rec);
    ++stages[rec.stage];
    if (rec.stage == obs::Stage::kRequest) {
      root_span = rec.span_id;
      root_start = rec.start_ns;
      root_end = rec.end_ns;
    }
  }

  // One wire request must produce the full nested picture: net read,
  // parse, queue wait, batch, at least two codec stages, net write, and
  // the request root — at least seven spans in all.
  EXPECT_GE(spans.size(), 7u);
  EXPECT_EQ(stages[obs::Stage::kRequest], 1);
  EXPECT_GE(stages[obs::Stage::kNetRead], 1);
  EXPECT_GE(stages[obs::Stage::kNetParse], 1);
  EXPECT_GE(stages[obs::Stage::kQueueWait], 1);
  EXPECT_GE(stages[obs::Stage::kBatch], 1);
  EXPECT_GE(stages[obs::Stage::kNetWrite], 1);
  const int codec_stages = stages[obs::Stage::kEncodeTile] +
                           stages[obs::Stage::kEncodeDct] +
                           stages[obs::Stage::kEncodeQuant] +
                           stages[obs::Stage::kEncodeEntropy];
  EXPECT_GE(codec_stages, 2);

  // Nesting: every span belongs to the root's tree, and the direct
  // children of the root sit inside its time window.
  ASSERT_NE(root_span, 0u);
  std::map<std::uint64_t, const obs::SpanRecord*> by_id;
  for (const auto& rec : spans) by_id[rec.span_id] = &rec;
  for (const auto& rec : spans) {
    if (rec.span_id == root_span) continue;
    // Walk parents up to the root (cycle-safe via the span count bound).
    std::uint64_t cur = rec.parent_id;
    std::size_t hops = 0;
    while (cur != root_span && hops++ < spans.size()) {
      auto it = by_id.find(cur);
      ASSERT_NE(it, by_id.end()) << "span " << rec.span_id << " parents to unknown id "
                                 << cur << " (stage " << obs::stage_name(rec.stage) << ")";
      cur = it->second->parent_id;
    }
    EXPECT_EQ(cur, root_span);
    if (rec.parent_id == root_span && rec.stage != obs::Stage::kNetRead) {
      EXPECT_GE(rec.start_ns, root_start) << obs::stage_name(rec.stage);
      EXPECT_LE(rec.end_ns, root_end) << obs::stage_name(rec.stage);
    }
  }
}

TEST(NetApi, ServiceListenServesTheProtocol) {
  api::Service service(api::ServiceOptions().workers(2));
  const api::Status listening = service.listen(api::ListenOptions());
  ASSERT_TRUE(listening.ok()) << listening.message();
  ASSERT_GT(service.listen_port(), 0);

  // Double-listen is refused while the first listener is up.
  EXPECT_FALSE(service.listen(api::ListenOptions()).ok());

  const image::Image img = test_image();
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1",
                             static_cast<std::uint16_t>(service.listen_port()), &error))
      << error;
  WireReply reply;
  ASSERT_TRUE(client.call(encode_request(img, 85), &reply, &error)) << error;
  ASSERT_EQ(reply.status, WireStatus::kOk);

  // Byte identity against the synchronous public API.
  api::Session session;
  const auto sync = session.codec().encode(
      api::ImageView{img.data().data(), img.width(), img.height(), img.channels()},
      api::EncodeOptions().quality(85).chroma_420(false));
  ASSERT_TRUE(sync.ok());
  EXPECT_EQ(reply.bytes, sync.value());

  const int port = service.listen_port();
  service.stop_listening();
  EXPECT_EQ(service.listen_port(), -1);
  Client late;
  EXPECT_FALSE(late.connect("127.0.0.1", static_cast<std::uint16_t>(port), &error));

  // A fresh listen after stop_listening works (new ephemeral port).
  ASSERT_TRUE(service.listen(api::ListenOptions()).ok());
  EXPECT_GT(service.listen_port(), 0);
  service.shutdown();  // implies stop_listening
  EXPECT_EQ(service.listen_port(), -1);
}

TEST(NetApi, NetSeriesOutliveStopListening) {
  // The server's counters are instruments of the service's registry: they
  // survive stop_listening() and keep counting across listeners.
  api::Service service(api::ServiceOptions().workers(1));
  std::string error;
  for (int round = 1; round <= 2; ++round) {
    SCOPED_TRACE("listener " + std::to_string(round));
    ASSERT_TRUE(service.listen(api::ListenOptions()).ok());
    {
      Client client;
      ASSERT_TRUE(client.connect("127.0.0.1",
                                 static_cast<std::uint16_t>(service.listen_port()), &error))
          << error;
      ASSERT_TRUE(client.ping(&error)) << error;
    }
    service.stop_listening();
    const std::string text = service.metrics_text();
    const std::string n = std::to_string(round);
    EXPECT_NE(text.find("\nnet_pings_total " + n + "\n"), std::string::npos) << text;
    EXPECT_NE(text.find("\nnet_connections_accepted_total " + n + "\n"), std::string::npos);
    EXPECT_NE(text.find("\nnet_connections_active 0\n"), std::string::npos);
  }
}

}  // namespace
}  // namespace dnj::net
