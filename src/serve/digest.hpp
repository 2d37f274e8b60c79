// Content digests for the serving layer's result cache.
//
// A result-cache key has two halves with different jobs.
//
//  * The config half (request_config_digest, deepn_config_digest) is FNV-1a
//    64 over the canonical config serialization, tables included verbatim.
//    It is computed at submission, O(1) in the payload. FNV-1a is unkeyed,
//    and anyone can craft two configs with one digest, so it never decides
//    a hit on its own: the input half below also covers the request's own
//    parameters.
//  * The input half (request_input_digest) is a 128-bit keyed SipHash-2-4
//    (Aumasson & Bernstein, INDOCRYPT 2012) over an unambiguous,
//    length-prefixed encoding of the kind, the request's own parameters
//    (config bytes or DeepN quality), the tenant name of a tenant
//    kDeepnEncode, the geometry and the payload. Each TranscodeService
//    draws its key from std::random_device, so a client cannot aim a
//    collision at another entry without the key, and a chance collision
//    has odds of 2^-128 per pair. Two tenants never share an entry, even
//    with identical tables. A tenant's resolved tables enter through the
//    config half only; the operator registers them, clients do not send
//    them.
//
// The key never reaches a payload. A hit returns the bytes of the same
// computation, so outputs are identical whatever key a service drew.
#pragma once

#include <cstddef>
#include <cstdint>

#include "serve/request.hpp"

namespace dnj::serve {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a over a byte span, chained through `seed`.
std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t seed = kFnvOffset);

/// Digest of an image: dimensions, channel count and pixel payload.
std::uint64_t digest_image(const image::Image& img, std::uint64_t seed = kFnvOffset);

/// Digest of every field of an encoder config (tables included verbatim).
std::uint64_t digest_config(const jpeg::EncoderConfig& config,
                            std::uint64_t seed = kFnvOffset);

/// Digest of a quantization table's 64 natural-order steps.
std::uint64_t digest_table(const jpeg::QuantTable& table, std::uint64_t seed = kFnvOffset);

/// A 128-bit digest as two 64-bit halves.
struct Digest128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  bool operator==(const Digest128& o) const { return lo == o.lo && hi == o.hi; }
};

/// A SipHash key: k0 and k1 are the little-endian words of its 16 bytes.
struct SipKey {
  std::uint64_t k0 = 0;
  std::uint64_t k1 = 0;
};

/// A key drawn from std::random_device.
SipKey random_sip_key();

/// Streaming SipHash-2-4. `wide` selects the 128-bit output variant
/// (finish128); otherwise finish64 gives the original 64-bit output.
class SipHash24 {
 public:
  SipHash24(const SipKey& key, bool wide);

  void update(const void* data, std::size_t n);
  /// Absorbs `v` as 8 little-endian bytes.
  void update_u64(std::uint64_t v);

  std::uint64_t finish64() const;  ///< requires wide == false
  Digest128 finish128() const;     ///< requires wide == true; lo = bytes 0..7

 private:
  std::uint64_t v_[4];
  std::uint64_t tail_ = 0;     ///< pending bytes of a partial word
  unsigned tail_len_ = 0;      ///< 0..7
  std::uint64_t length_ = 0;   ///< bytes absorbed
  bool wide_;
};

/// Result-cache key: the keyed input digest and the config digest.
struct CacheKey {
  Digest128 input;
  std::uint64_t config = 0;

  bool operator==(const CacheKey& o) const { return input == o.input && config == o.config; }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    // The members are already well-mixed digests; one multiply-fold keeps
    // the halves from cancelling.
    return static_cast<std::size_t>((k.input.lo ^ k.input.hi) * kFnvPrime ^ k.config);
  }
};

/// The config half of a cache key — all the submission path needs
/// (admission never looks at the input half). O(1) in the payload size,
/// so rejecting under overload stays O(1).
/// For kDeepnEncode this mixes the tenant *name*; the serving layer, which
/// can resolve the name against its registry, keys on the resolved table
/// contents instead (deepn_config_digest) so identical configurations
/// share one digest across tenants and registry generations.
std::uint64_t request_config_digest(const Request& req);

/// Config digest of a DeepN-quality encode: the digest of the base table
/// pair (service-wide or a tenant's TenantEntry::base_digest) folded with
/// the clamped quality. It is a kDeepnEncode request's cache key's config
/// half — pure content, no names, no registry versions, so equal
/// computations share one digest.
std::uint64_t deepn_config_digest(std::uint64_t tables_digest, int quality);

/// The input half of a cache key: the keyed 128-bit SipHash-2-4 described
/// at the top of this header. O(payload); workers compute it lazily, only
/// when a result-cache lookup will actually happen.
Digest128 request_input_digest(const Request& req, const SipKey& key);

/// True for kinds whose result payload is a byte vector worth caching
/// (encode, transcode, deepn-encode).
bool cacheable(RequestKind kind);

}  // namespace dnj::serve
