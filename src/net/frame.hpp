// Wire framing of the DNJ network protocol (docs/PROTOCOL.md is the
// authoritative byte-level spec; this header implements it).
//
// Every message on a connection is one frame: a fixed 28-byte little-endian
// header followed by a variable payload whose CRC-32 the header carries.
//
//   offset size field
//   0      4    magic          0x314A4E44 ("DNJ1" on the wire)
//   4      1    version        kProtocolVersion (currently 2)
//   5      1    type           1 = request, 2 = response
//   6      1    op             operation code (Op); responses echo it
//   7      1    status         request: 0; response: WireStatus
//   8      4    request_id     client-chosen, echoed verbatim in the response
//   12     8    config_digest  FNV-1a 64 of the payload's options section
//                              (0 for ops without one); responses echo it
//   20     4    payload_size   bytes of payload following the header
//   24     4    payload_crc32  CRC-32 (ISO-HDLC) of the payload bytes
//
// The header is fixed-size and self-describing, so a reader can always
// resynchronize a healthy stream: read 28 bytes, validate, read
// payload_size more. There is deliberately no in-band resync marker — a
// frame that fails magic/version/bounds/CRC validation poisons the stream
// (FrameParser turns sticky-broken) and the peer closes the connection
// after a typed error frame, mirroring how length-prefixed binary
// protocols fail fast rather than guess.
//
// FrameParser is pure in-memory state (feed bytes, extract frames): the
// framing layer is testable without a socket (tests/test_net_framing.cpp),
// and the server/client reuse the exact same code path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dnj::net {

inline constexpr std::uint32_t kMagic = 0x314A4E44u;  ///< "DNJ1" little-endian
/// Current protocol version. Version 2 added the kStats admin op;
/// version 3 adds the design-job ops (kJobSubmit..kJobResult). Both
/// changes are additive, so the parser accepts any version in
/// [kMinProtocolVersion, kProtocolVersion] and the server echoes the
/// request's version in its responses — v1/v2 clients keep working
/// unchanged against a v3 server.
inline constexpr std::uint8_t kProtocolVersion = 3;
inline constexpr std::uint8_t kMinProtocolVersion = 1;
inline constexpr std::size_t kHeaderSize = 28;

/// Hard ceiling on a payload; a header announcing more is malformed. Large
/// enough for a 4096x4096 RGB image (~48 MiB) with room to spare, small
/// enough that a garbage length can't make a peer allocate absurdly.
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{64} << 20;

enum class FrameType : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
};

/// Operation codes. Responses echo the request's op so the payload shape
/// is decodable from the header alone.
enum class Op : std::uint8_t {
  kPing = 0,         ///< liveness probe, empty payload both ways
  kEncode = 1,       ///< options + image -> JFIF bytes
  kDecode = 2,       ///< JFIF bytes -> image
  kTranscode = 3,    ///< options + JFIF bytes -> re-encoded JFIF bytes
  kDeepnEncode = 4,  ///< quality + image -> bytes under the server's DeepN pair
  kInfer = 5,        ///< JFIF bytes -> class probabilities
  kStats = 6,        ///< admin scrape (v2): 1-byte format -> UTF-8 text
  kJobSubmit = 7,    ///< design-job submit (v3): spec + dataset -> job id
  kJobStatus = 8,    ///< design-job poll (v3): job id -> progress/state
  kJobCancel = 9,    ///< design-job cancel (v3): job id -> empty payload
  kJobResult = 10,   ///< design-job result (v3): job id -> table + ladder
};

/// True for the v3 design-job ops — answered on the server's loop thread
/// (JobManager lookups are O(1)), carry no observability block, and
/// require a version-3 frame.
inline constexpr bool op_is_job(Op op) {
  return op == Op::kJobSubmit || op == Op::kJobStatus || op == Op::kJobCancel ||
         op == Op::kJobResult;
}

/// The protocol version that introduced `op`: kStats came with v2, the
/// job ops with v3. Inside an older version the op does not exist, so the
/// server refuses such a frame as kMalformed.
inline constexpr std::uint8_t op_min_version(Op op) {
  return op == Op::kStats ? 2 : op_is_job(op) ? 3 : 1;
}

/// Wire status byte of a response frame. 0..5 mirror dnj::api::StatusCode
/// value-for-value (pinned by static_asserts in api/service.cpp); 6 and 7 are
/// protocol-level failures that have no in-process equivalent.
enum class WireStatus : std::uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kDecodeError = 2,
  kRejected = 3,  ///< admission control refused the request (overload)
  kShutdown = 4,  ///< service shutting down / server draining
  kInternal = 5,
  kMalformed = 6,    ///< frame failed structural validation (lengths, CRC,
                     ///  digest mismatch, unknown op); connection closes
  kVersionSkew = 7,  ///< frame version != server version; connection closes
};

const char* wire_status_name(WireStatus status);

/// One frame in its decoded in-memory form. `payload` excludes the header.
struct Frame {
  std::uint8_t version = kProtocolVersion;
  FrameType type = FrameType::kRequest;
  Op op = Op::kPing;
  std::uint8_t status = 0;  ///< WireStatus on responses
  std::uint32_t request_id = 0;
  std::uint64_t config_digest = 0;
  std::vector<std::uint8_t> payload;
};

/// CRC-32 (ISO-HDLC: polynomial 0xEDB88320 reflected, init 0xFFFFFFFF,
/// final xor 0xFFFFFFFF) — the ubiquitous zlib/Ethernet CRC, so foreign
/// clients can use any stock implementation. crc32("123456789") ==
/// 0xCBF43926 (the standard check value, pinned in tests). Runs the
/// simd::KernelTable crc32 slot: a PCLMULQDQ fold where the CPU has it,
/// slice-by-8 otherwise, the same value either way.
std::uint32_t crc32(const void* data, std::size_t n);

/// Serializes header + payload into one contiguous buffer ready to write
/// to a socket. Computes payload_size and payload_crc32 from `f.payload`.
std::vector<std::uint8_t> serialize_frame(const Frame& f);

// Little-endian scalar packing, shared by the framing and marshalling
// layers (and usable by tests to craft malformed frames byte by byte).
void append_u8(std::vector<std::uint8_t>& out, std::uint8_t v);
void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v);
void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
std::uint16_t read_u16(const std::uint8_t* p);
std::uint32_t read_u32(const std::uint8_t* p);
std::uint64_t read_u64(const std::uint8_t* p);

enum class ParseResult {
  kNeedMore,    ///< no complete frame buffered yet
  kFrame,       ///< one frame extracted into *out
  kBadMagic,    ///< stream does not start with kMagic — not our protocol
  kBadVersion,  ///< version byte outside [kMinProtocolVersion, kProtocolVersion]
  kBadHeader,   ///< type out of range or payload_size > max_payload
  kBadCrc,      ///< payload CRC mismatch
};

/// Incremental frame extractor. Feed whatever bytes arrived (any
/// fragmentation — the parser buffers partial headers and partial
/// payloads), then call next() until it stops returning kFrame.
///
/// Any non-kNeedMore failure is sticky: the stream position is no longer
/// trustworthy, so every subsequent next() repeats the same error and the
/// owner is expected to drop the connection.
class FrameParser {
 public:
  explicit FrameParser(std::size_t max_payload = kMaxPayloadBytes)
      : max_payload_(max_payload) {}

  void feed(const void* data, std::size_t n);

  /// Tries to extract the next complete frame. On kFrame, *out is filled
  /// and the frame's bytes are consumed from the buffer.
  ParseResult next(Frame* out);

  bool broken() const { return error_ != ParseResult::kNeedMore; }

  /// Bytes currently buffered and not yet consumed (tests / flow control).
  std::size_t buffered() const { return buf_.size() - pos_; }

  /// Bytes the buffer holds, consumed prefix included — the parser's
  /// memory footprint (tests pin its bound).
  std::size_t held() const { return buf_.size(); }

 private:
  std::size_t max_payload_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  ParseResult error_ = ParseResult::kNeedMore;  ///< sticky failure state
};

}  // namespace dnj::net
