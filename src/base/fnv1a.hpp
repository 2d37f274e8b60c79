// FNV-1a 64 (Fowler, Noll, Vo), with the standard offset basis and prime.
//
// The library's one non-cryptographic byte hash: the wire protocol's
// config digest (docs/PROTOCOL.md), the public options digest
// (api::EncodeOptions::digest, dnj_options_digest) and the tracer's
// sampling decision all call this function, so a foreign client can
// reproduce any of them from the published parameters alone. None of
// them needs collision resistance: each compares values the caller
// already trusts, or spreads ids evenly.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dnj {

inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

/// FNV-1a 64 over `n` bytes, chained through `seed` (the offset basis for
/// a fresh hash, or a previous result to extend it).
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t seed = kFnv1aOffset) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

}  // namespace dnj
