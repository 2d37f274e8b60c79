#include "serve/digest.hpp"

#include <algorithm>
#include <random>
#include <vector>

#include "jpeg/encoder.hpp"

namespace dnj::serve {

namespace {

std::uint64_t mix_i32(std::int32_t v, std::uint64_t seed) {
  return fnv1a(&v, sizeof(v), seed);
}

/// The config's canonical serialization (the same bytes EncodeOptions::
/// digest() hashes in the public API), so a field added to EncoderConfig
/// is added to append_config_bytes once and every derived digest follows.
/// The buffer is thread-local because this runs per request: zero
/// allocations once warm.
const std::vector<std::uint8_t>& config_bytes(const jpeg::EncoderConfig& config) {
  static thread_local std::vector<std::uint8_t> scratch;
  scratch.clear();
  jpeg::append_config_bytes(config, scratch);
  return scratch;
}

inline std::uint64_t rotl(std::uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

inline std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

inline void sip_round(std::uint64_t& v0, std::uint64_t& v1, std::uint64_t& v2,
                      std::uint64_t& v3) {
  v0 += v1; v1 = rotl(v1, 13); v1 ^= v0; v0 = rotl(v0, 32);
  v2 += v3; v3 = rotl(v3, 16); v3 ^= v2;
  v0 += v3; v3 = rotl(v3, 21); v3 ^= v0;
  v2 += v1; v1 = rotl(v1, 17); v1 ^= v2; v2 = rotl(v2, 32);
}

/// One message word through the two compression rounds (the "2" of 2-4).
inline void sip_compress(std::uint64_t& v0, std::uint64_t& v1, std::uint64_t& v2,
                         std::uint64_t& v3, std::uint64_t m) {
  v3 ^= m;
  sip_round(v0, v1, v2, v3);
  sip_round(v0, v1, v2, v3);
  v0 ^= m;
}

/// The four finalization rounds (the "4" of 2-4); returns the output word.
inline std::uint64_t sip_finalize(std::uint64_t& v0, std::uint64_t& v1,
                                  std::uint64_t& v2, std::uint64_t& v3) {
  for (int i = 0; i < 4; ++i) sip_round(v0, v1, v2, v3);
  return v0 ^ v1 ^ v2 ^ v3;
}

/// A length-prefixed byte field.
void absorb_field(SipHash24& h, const std::vector<std::uint8_t>& bytes) {
  h.update_u64(bytes.size());
  h.update(bytes.data(), bytes.size());
}

}  // namespace

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t digest_image(const image::Image& img, std::uint64_t seed) {
  std::uint64_t h = mix_i32(img.width(), seed);
  h = mix_i32(img.height(), h);
  h = mix_i32(img.channels(), h);
  return img.empty() ? h : fnv1a(img.data().data(), img.data().size(), h);
}

std::uint64_t digest_table(const jpeg::QuantTable& table, std::uint64_t seed) {
  return fnv1a(table.natural().data(),
               table.natural().size() * sizeof(table.natural()[0]), seed);
}

std::uint64_t digest_config(const jpeg::EncoderConfig& config, std::uint64_t seed) {
  const std::vector<std::uint8_t>& bytes = config_bytes(config);
  return fnv1a(bytes.data(), bytes.size(), seed);
}

SipKey random_sip_key() {
  std::random_device rd;
  const auto word = [&rd] { return (std::uint64_t{rd()} << 32) ^ rd(); };
  SipKey key;
  key.k0 = word();
  key.k1 = word();
  return key;
}

SipHash24::SipHash24(const SipKey& key, bool wide)
    : v_{0x736f6d6570736575ULL ^ key.k0, 0x646f72616e646f6dULL ^ key.k1,
         0x6c7967656e657261ULL ^ key.k0, 0x7465646279746573ULL ^ key.k1},
      wide_(wide) {
  if (wide_) v_[1] ^= 0xee;
}

void SipHash24::update(const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  length_ += n;
  // The state stays in locals for the loop: stores through `this` may
  // alias the input bytes, which would pin it in memory.
  std::uint64_t v0 = v_[0], v1 = v_[1], v2 = v_[2], v3 = v_[3];
  for (; tail_len_ > 0 && n > 0; ++p, --n) {
    tail_ |= std::uint64_t{*p} << (8 * tail_len_);
    if (++tail_len_ == 8) {
      sip_compress(v0, v1, v2, v3, tail_);
      tail_ = 0;
      tail_len_ = 0;
    }
  }
  for (; n >= 8; p += 8, n -= 8) sip_compress(v0, v1, v2, v3, load_le64(p));
  for (; n > 0; ++p, --n) tail_ |= std::uint64_t{*p} << (8 * tail_len_++);
  v_[0] = v0;
  v_[1] = v1;
  v_[2] = v2;
  v_[3] = v3;
}

void SipHash24::update_u64(std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  update(b, sizeof b);
}

std::uint64_t SipHash24::finish64() const {
  std::uint64_t v0 = v_[0], v1 = v_[1], v2 = v_[2], v3 = v_[3];
  sip_compress(v0, v1, v2, v3, (length_ << 56) | tail_);
  v2 ^= 0xff;
  return sip_finalize(v0, v1, v2, v3);
}

Digest128 SipHash24::finish128() const {
  std::uint64_t v0 = v_[0], v1 = v_[1], v2 = v_[2], v3 = v_[3];
  sip_compress(v0, v1, v2, v3, (length_ << 56) | tail_);
  v2 ^= 0xee;
  Digest128 out;
  out.lo = sip_finalize(v0, v1, v2, v3);
  v1 ^= 0xdd;
  out.hi = sip_finalize(v0, v1, v2, v3);
  return out;
}

std::uint64_t request_config_digest(const Request& req) {
  switch (req.kind) {
    case RequestKind::kEncode:
    case RequestKind::kTranscode:
      return digest_config(req.config);
    case RequestKind::kDeepnEncode: {
      // Without a registry in hand, the per-request config is the tenant
      // name plus the quality scaling. Clamp exactly like the handler
      // does, so requests that compute the same thing share a key. (The
      // service itself substitutes deepn_config_digest over the resolved
      // table contents — see the header.)
      const std::uint64_t seed =
          req.tenant.empty() ? kFnvOffset
                             : fnv1a(req.tenant.data(), req.tenant.size());
      return mix_i32(std::clamp(req.quality, 1, 100), seed);
    }
    case RequestKind::kDecode:
    case RequestKind::kInfer:
      break;
  }
  return mix_i32(static_cast<std::int32_t>(req.kind), kFnvOffset);
}

Digest128 request_input_digest(const Request& req, const SipKey& key) {
  // A fixed field order per kind, and a length before every variable-size
  // field, so two distinct requests never hash the same message.
  SipHash24 h(key, /*wide=*/true);
  const auto absorb_image = [&h](const image::Image& img) {
    h.update_u64(static_cast<std::uint64_t>(img.width()));
    h.update_u64(static_cast<std::uint64_t>(img.height()));
    h.update_u64(static_cast<std::uint64_t>(img.channels()));
    absorb_field(h, img.data());
  };
  h.update_u64(static_cast<std::uint64_t>(req.kind));
  switch (req.kind) {
    case RequestKind::kEncode:
      absorb_field(h, config_bytes(req.config));
      absorb_image(req.image);
      break;
    case RequestKind::kDeepnEncode:
      h.update_u64(static_cast<std::uint64_t>(std::clamp(req.quality, 1, 100)));
      h.update_u64(req.tenant.size());
      h.update(req.tenant.data(), req.tenant.size());
      absorb_image(req.image);
      break;
    case RequestKind::kTranscode:
      absorb_field(h, config_bytes(req.config));
      absorb_field(h, req.bytes);
      break;
    case RequestKind::kDecode:
    case RequestKind::kInfer:
      absorb_field(h, req.bytes);
      break;
  }
  return h.finish128();
}

std::uint64_t deepn_config_digest(std::uint64_t tables_digest, int quality) {
  return mix_i32(std::clamp(quality, 1, 100),
                 fnv1a(&tables_digest, sizeof(tables_digest)));
}

bool cacheable(RequestKind kind) {
  return kind == RequestKind::kEncode || kind == RequestKind::kTranscode ||
         kind == RequestKind::kDeepnEncode;
}

}  // namespace dnj::serve
