// Per-block entropy coding (T.81 F.1.2/F.2.2): DC DPCM with magnitude
// categories, AC run-length coding with ZRL and EOB, in zig-zag order over
// natural-order (row-major) coefficient blocks.
// A statistics-gathering pass mirrors the emit pass so the encoder can build
// optimal Huffman tables in two passes.
#pragma once

#include <array>
#include <cstdint>

#include "jpeg/bitio.hpp"
#include "jpeg/huffman.hpp"
#include "jpeg/quant.hpp"

namespace dnj::jpeg {

/// Magnitude category of a coefficient value: the number of bits needed to
/// represent |v| (0 for v == 0). DC categories go to 11, AC to 10 for 8-bit
/// baseline, but values are computed generically. Inline (one call per
/// nonzero coefficient in the entropy coder).
inline int bit_category(int v) {
  const unsigned a = static_cast<unsigned>(v < 0 ? -v : v);
  if (a == 0) return 0;
#if defined(__GNUC__) || defined(__clang__)
  return 32 - __builtin_clz(a);
#else
  int bits = 0;
  for (unsigned t = a; t != 0; t >>= 1) ++bits;
  return bits;
#endif
}

/// Symbol frequency accumulators for one (DC, AC) table pair.
struct SymbolCounts {
  std::array<std::uint32_t, 256> dc{};
  std::array<std::uint32_t, 256> ac{};
};

/// Encodes one quantized block. `dc_pred` is the running DC predictor for
/// the component and is updated in place. This form walks all 63 AC lanes
/// in scan order: the per-block reference that the pointer forms below are
/// held to.
void encode_block(BitWriter& bw, const QuantizedBlock& block, int& dc_pred,
                  const HuffmanEncoder& dc_table, const HuffmanEncoder& ac_table);

/// Tallies the Huffman symbols the block would emit (pass 1 of optimized
/// encoding). Updates `dc_pred` identically to encode_block.
void count_block_symbols(const QuantizedBlock& block, int& dc_pred, SymbolCounts& counts);

/// Encodes one block of 64 natural-order coefficients (the layout
/// `quantize_batch` emits). The coder maps the block's nonzero-lane mask to
/// scan order and visits only the nonzero coefficients, reading each
/// through kZigzag. Emits exactly the bits of the QuantizedBlock form.
void encode_block(BitWriter& bw, const std::int16_t* block, int& dc_pred,
                  const HuffmanEncoder& dc_table, const HuffmanEncoder& ac_table);

/// Encodes `count` consecutive natural-order blocks (64 int16 apiece,
/// contiguous) with one register-resident bit cursor and one SIMD dispatch
/// lookup for the whole run, instead of per block. Bitstream-identical to
/// `count` encode_block calls. This is the single-component scan fast
/// path; interleaved scans go block by block.
void encode_blocks(BitWriter& bw, const std::int16_t* blocks, std::size_t count,
                   int& dc_pred, const HuffmanEncoder& dc_table,
                   const HuffmanEncoder& ac_table);

/// Statistics pass over a natural-order block, mirroring encode_block.
void count_block_symbols(const std::int16_t* block, int& dc_pred, SymbolCounts& counts);

/// Decodes one block into natural-order quantized coefficients. Returns
/// false on a corrupt or truncated stream.
bool decode_block(BitReader& br, QuantizedBlock& block, int& dc_pred,
                  const HuffmanDecoder& dc_table, const HuffmanDecoder& ac_table);

/// Same, writing the 64 natural-order coefficients to `block` directly
/// (e.g. into a pipeline::QuantPlane arena slot).
bool decode_block(BitReader& br, std::int16_t* block, int& dc_pred,
                  const HuffmanDecoder& dc_table, const HuffmanDecoder& ac_table);

}  // namespace dnj::jpeg
