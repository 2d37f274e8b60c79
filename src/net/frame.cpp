#include "net/frame.hpp"

#include "simd/dispatch.hpp"

namespace dnj::net {

const char* wire_status_name(WireStatus status) {
  switch (status) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kInvalidArgument: return "invalid_argument";
    case WireStatus::kDecodeError: return "decode_error";
    case WireStatus::kRejected: return "rejected";
    case WireStatus::kShutdown: return "shutdown";
    case WireStatus::kInternal: return "internal";
    case WireStatus::kMalformed: return "malformed";
    case WireStatus::kVersionSkew: return "version_skew";
  }
  return "unknown";
}

void append_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint16_t read_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}

std::uint32_t read_u32(const std::uint8_t* p) {
  return p[0] | (std::uint32_t{p[1]} << 8) | (std::uint32_t{p[2]} << 16) |
         (std::uint32_t{p[3]} << 24);
}

std::uint64_t read_u64(const std::uint8_t* p) {
  return read_u32(p) | (std::uint64_t{read_u32(p + 4)} << 32);
}

std::uint32_t crc32(const void* data, std::size_t n) {
  return simd::kernels().crc32(0, static_cast<const std::uint8_t*>(data), n);
}

std::vector<std::uint8_t> serialize_frame(const Frame& f) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + f.payload.size());
  append_u32(out, kMagic);
  append_u8(out, f.version);
  append_u8(out, static_cast<std::uint8_t>(f.type));
  append_u8(out, static_cast<std::uint8_t>(f.op));
  append_u8(out, f.status);
  append_u32(out, f.request_id);
  append_u64(out, f.config_digest);
  append_u32(out, static_cast<std::uint32_t>(f.payload.size()));
  append_u32(out, crc32(f.payload.data(), f.payload.size()));
  out.insert(out.end(), f.payload.begin(), f.payload.end());
  return out;
}

void FrameParser::feed(const void* data, std::size_t n) {
  if (n == 0 || broken()) return;
  // Move the unconsumed tail to the front before growing, so a drained
  // parser holds at most one partial frame plus one read, however reads
  // straddle frame boundaries.
  if (pos_ > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  const unsigned char* p = static_cast<const unsigned char*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

ParseResult FrameParser::next(Frame* out) {
  if (broken()) return error_;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kHeaderSize) return ParseResult::kNeedMore;
  const std::uint8_t* h = buf_.data() + pos_;

  if (read_u32(h) != kMagic) return error_ = ParseResult::kBadMagic;
  const std::uint8_t version = h[4];
  const std::uint8_t type = h[5];
  const std::size_t payload_size = read_u32(h + 20);
  // Version is checked before the rest of the header so a future-version
  // frame with a layout we can't judge yields kBadVersion, not kBadHeader.
  // Every version since kMinProtocolVersion shares this header layout
  // (v2 only added an op code), so the whole supported range parses here.
  if (version < kMinProtocolVersion || version > kProtocolVersion)
    return error_ = ParseResult::kBadVersion;
  if (type != static_cast<std::uint8_t>(FrameType::kRequest) &&
      type != static_cast<std::uint8_t>(FrameType::kResponse))
    return error_ = ParseResult::kBadHeader;
  if (payload_size > max_payload_) return error_ = ParseResult::kBadHeader;

  if (avail < kHeaderSize + payload_size) return ParseResult::kNeedMore;
  const std::uint8_t* body = h + kHeaderSize;
  if (crc32(body, payload_size) != read_u32(h + 24)) return error_ = ParseResult::kBadCrc;

  out->version = version;
  out->type = static_cast<FrameType>(type);
  out->op = static_cast<Op>(h[6]);
  out->status = h[7];
  out->request_id = read_u32(h + 8);
  out->config_digest = read_u64(h + 12);
  out->payload.assign(body, body + payload_size);
  pos_ += kHeaderSize + payload_size;
  return ParseResult::kFrame;
}

}  // namespace dnj::net
