// Entropy coding of quantized blocks (T.81 F.1.2/F.2.2): DC DPCM with
// magnitude categories, AC run-length coding with ZRL and EOB, in zig-zag
// order over natural-order (row-major) coefficient blocks. The encoder
// codes one stripe (MCU row) at a time through encode_stripe; the
// QuantizedBlock forms are the per-block reference it is held to.
// A statistics-gathering pass mirrors the emit pass so the encoder can build
// optimal Huffman tables in two passes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "jpeg/bitio.hpp"
#include "jpeg/huffman.hpp"
#include "jpeg/quant.hpp"
#include "jpeg/zigzag.hpp"

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
/// in scan order: the per-block reference that the stripe coder below is
/// held to.
void encode_block(BitWriter& bw, const QuantizedBlock& block, int& dc_pred,
                  const HuffmanEncoder& dc_table, const HuffmanEncoder& ac_table);

/// Tallies the Huffman symbols the block would emit (pass 1 of optimized
/// encoding). Updates `dc_pred` identically to encode_block.
void count_block_symbols(const QuantizedBlock& block, int& dc_pred, SymbolCounts& counts);

/// Components per scan (T.81 B.2.3: Ns <= 4).
inline constexpr int kMaxScanComponents = 4;

/// One data unit of a scan's MCU, as the stripe coder walks a stripe: the
/// scan component it belongs to (which picks its DC predictor and tables),
/// the stripe block it reads in the stripe's first MCU, and how many blocks
/// further on it reads in each following MCU.
struct McuUnit {
  int component = 0;
  std::size_t first = 0;
  std::size_t step = 0;
};

/// The data units of one MCU in scan order (T.81 A.2.3), at most 10
/// (B.2.3), held in place so building one allocates nothing.
struct McuPattern {
  std::array<McuUnit, 10> units{};
  int count = 0;
  /// Appends a unit; throws std::length_error past 10.
  void add(int component, std::size_t first, std::size_t step);
};

/// A scan's Huffman tables, per scan component.
struct ScanTables {
  std::array<const HuffmanEncoder*, kMaxScanComponents> dc{};
  std::array<const HuffmanEncoder*, kMaxScanComponents> ac{};
};

/// What a scan carries from one stripe to the next: the DC predictors and
/// the count of MCUs coded so far, which places the restart markers.
struct ScanState {
  std::array<int, kMaxScanComponents> dc_pred{};
  int mcu_index = 0;
};

/// Entropy-codes the `mcus` MCUs of one stripe in scan order. `blocks` are
/// the stripe's natural-order quantized blocks (64 int16 apiece, laid out
/// as `pattern` says) and `masks` their nonzero masks as
/// simd::KernelTable::nonzero_masks_i16 computes them. The coder maps each
/// mask to scan order and visits only the nonzero coefficients, through one
/// register-resident BitWriter::BlockCursor for the stripe, committed early
/// only to write a restart marker (RSTn before every `restart_interval`-th
/// MCU of the scan; 0 = none). Emits exactly the bits of the QuantizedBlock
/// encode_block walk, with the same markers and predictor resets.
void encode_stripe(BitWriter& bw, const std::int16_t* blocks, const std::uint64_t* masks,
                   int mcus, const McuPattern& pattern, const ScanTables& tables,
                   int restart_interval, ScanState& state);

/// Statistics pass over one stripe, mirroring encode_stripe: tallies each
/// unit's symbols into `*counts[component]` and updates `state` as
/// encode_stripe would.
void count_stripe_symbols(const std::int16_t* blocks, const std::uint64_t* masks, int mcus,
                          const McuPattern& pattern,
                          const std::array<SymbolCounts*, kMaxScanComponents>& counts,
                          int restart_interval, ScanState& state);

/// Decodes one block into natural-order quantized coefficients. Returns
/// false on a corrupt or truncated stream. Takes decode_block_fast when both
/// tables carry a fast table, and the reference walk otherwise.
bool decode_block(BitReader& br, QuantizedBlock& block, int& dc_pred,
                  const HuffmanDecoder& dc_table, const HuffmanDecoder& ac_table);

/// Same, writing the 64 natural-order coefficients to `block` directly
/// (e.g. into a pipeline::QuantPlane arena slot).
bool decode_block(BitReader& br, std::int16_t* block, int& dc_pred,
                  const HuffmanDecoder& dc_table, const HuffmanDecoder& ac_table);

/// The reference walk (DNJ_ENTROPY_LUT_BITS=0): every code bit by bit
/// through HuffmanDecoder::decode, every magnitude through get_bits.
bool decode_block_reference(BitReader& br, std::int16_t* block, int& dc_pred,
                            const HuffmanDecoder& dc_table, const HuffmanDecoder& ac_table);

/// The fast path: one fast-table lookup per symbol, which for most symbols
/// also yields the magnitude, MAXCODE walked in registers for longer codes,
/// and the reference walk for a code read with fewer than 16 bits in reach
/// (near a marker or the end of data). Magnitudes that are not in the table
/// entry go through get_bits, which checks they are in reach. Consumes the
/// same bits, writes the same coefficients and fails on the same streams as
/// the reference walk. Requires both tables built with lut_bits() > 0.
/// Inline, with the reader state copied into locals, so an MCU loop pays no
/// call per block and the bit buffer stays in registers.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline))
#endif
inline bool decode_block_fast(BitReader& br, std::int16_t* block, int& dc_pred,
                              const HuffmanDecoder& dc_table, const HuffmanDecoder& ac_table) {
  using D = HuffmanDecoder;
  // A copy of a zero block rather than a memset: GCC expands a 128-byte
  // memset into `rep stosq`, whose start-up costs more per block than the
  // eight vector stores it emits for this copy.
  static constexpr std::int16_t kZeroBlock[64] = {};
  std::memcpy(block, kZeroBlock, sizeof kZeroBlock);
  BitReader r = br;

  int cat = -1;
  int diff = 0;
  bool diff_read = false;  // the table entry carried the magnitude
  if (r.buffered_bits() < 16 && r.fill() < 16) {
    br = r;
    cat = dc_table.decode(br);
    r = br;
  } else {
    const std::uint32_t e = dc_table.lookup(r.window());
    if (e & D::kValue) {
      r.skip(D::entry_bits(e));
      cat = D::entry_symbol(e);
      diff = D::entry_value(e);
      diff_read = true;
    } else if (D::entry_bits(e) != 0) {
      r.skip(D::entry_bits(e));
      cat = D::entry_symbol(e);
    } else {
      int len = 0;
      cat = dc_table.decode_long(r.window(), len);
      if (cat >= 0) r.skip(len);
    }
  }
  if (cat < 0 || cat > 15) return false;
  if (cat > 0 && !diff_read) {
    const std::int32_t raw = r.get_bits(cat);
    if (raw < 0) return false;
    diff = extend_magnitude(static_cast<std::uint32_t>(raw), cat);
  }
  // Kept within int16 range: the stored coefficient is the same modulo
  // 2^16, and a long hostile scan cannot overflow the predictor.
  dc_pred = static_cast<std::int16_t>(dc_pred + diff);
  block[0] = static_cast<std::int16_t>(dc_pred);

  for (int k = 1; k < 64;) {
    int sym = -1;
    if (r.buffered_bits() < 16 && r.fill() < 16) {
      br = r;
      sym = ac_table.decode(br);
      r = br;
      if (sym < 0) return false;
    } else {
      const std::uint32_t e = ac_table.lookup(r.window());
      if (e & D::kValue) {  // the common case: code and magnitude in one entry
        r.skip(D::entry_bits(e));
        if (e & D::kNoSize) {
          const int s = D::entry_symbol(e);
          if (s == 0x00) break;         // EOB
          if (s != 0xF0) return false;  // only ZRL has size 0
          k += 16;
          continue;
        }
        k += D::entry_run(e);
        if (k > 63) return false;
        block[kZigzag[static_cast<std::size_t>(k)]] = D::entry_value(e);
        ++k;
        continue;
      }
      if (D::entry_bits(e) != 0) {
        r.skip(D::entry_bits(e));
        sym = D::entry_symbol(e);
      } else {
        int len = 0;
        sym = ac_table.decode_long(r.window(), len);
        if (sym < 0) return false;
        r.skip(len);
      }
    }
    const int size = sym & 15;
    if (size == 0) {
      if (sym == 0x00) break;
      if (sym != 0xF0) return false;
      k += 16;
      continue;
    }
    k += sym >> 4;
    if (k > 63) return false;
    const std::int32_t raw = r.get_bits(size);
    if (raw < 0) return false;
    block[kZigzag[static_cast<std::size_t>(k)]] =
        static_cast<std::int16_t>(extend_magnitude(static_cast<std::uint32_t>(raw), size));
    ++k;
  }
  br = r;
  return true;
}

}  // namespace dnj::jpeg
