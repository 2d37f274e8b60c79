// Canonical Huffman coding for baseline JPEG: the Annex K default tables,
// encode/decode table derivation (T.81 Annexes C and F), and the optimal
// table construction from symbol statistics (T.81 K.2) used when the encoder
// is configured with `optimize_huffman` — the paper's CR numbers depend on
// real entropy coding, so this is implemented in full rather than stubbed.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "jpeg/bitio.hpp"

namespace dnj::jpeg {

/// The (BITS, HUFFVAL) specification pair of T.81: counts[l] = number of
/// codes of length l (1-based, l in [1,16]) and the symbol values in order
/// of increasing code length.
struct HuffmanSpec {
  std::array<std::uint8_t, 17> counts{};  // counts[0] unused
  std::vector<std::uint8_t> symbols;

  /// Total number of symbols.
  int symbol_count() const;
  /// Validates the Kraft inequality and symbol bounds; throws on violation.
  void validate() const;
  /// The Kraft half of validate(), for BITS parsed apart from a spec:
  /// throws std::invalid_argument when counts[1..16] overfill the code space.
  static void validate_counts(const std::array<std::uint8_t, 17>& counts);

  // Annex K.3 default tables.
  static HuffmanSpec default_dc_luma();
  static HuffmanSpec default_ac_luma();
  static HuffmanSpec default_dc_chroma();
  static HuffmanSpec default_ac_chroma();

  /// Builds an optimal spec from symbol frequencies (index = symbol value,
  /// 256 entries), limiting code length to 16 bits exactly as libjpeg's
  /// jpeg_gen_optimal_table does. Symbols with zero frequency get no code.
  static HuffmanSpec build_optimal(const std::array<std::uint32_t, 256>& freq);
};

/// Width W in bits of the fast table HuffmanDecoder builds (0 disables the
/// table entirely — pure bit-by-bit reference decoding). Resolved once from
/// the DNJ_ENTROPY_LUT_BITS environment variable (clamped to [0, 12],
/// default 10); set_entropy_lut_bits overrides it for tests and benches. The
/// width only affects decode *speed*: decoded output is bit-identical at
/// every width. Takes effect for decoders constructed after the call; not
/// safe to call concurrently with decoding.
int entropy_lut_bits();
void set_entropy_lut_bits(int bits);

/// Encoder-side lookup: code and length per symbol value.
class HuffmanEncoder {
 public:
  explicit HuffmanEncoder(const HuffmanSpec& spec);

  /// Writes the code for `symbol`; throws std::invalid_argument if the
  /// symbol has no code in this table. Inline: one call per entropy-coded
  /// symbol.
  void encode(BitWriter& bw, std::uint8_t symbol) const {
    const std::uint32_t e = packed_[symbol];  // (code << 8) | length
    if ((e & 0xFFu) == 0)
      throw std::invalid_argument("HuffmanEncoder: symbol has no code");
    bw.put_bits(e >> 8, static_cast<int>(e & 0xFFu));
  }

  /// Writes the code for `symbol` immediately followed by `extra_count`
  /// magnitude bits in one put_bits call (16 + 11 bits worst case) —
  /// the same bitstream as encode() then put_bits(), with half the calls.
  void encode_with_extra(BitWriter& bw, std::uint8_t symbol, std::uint32_t extra,
                         int extra_count) const {
    const std::uint32_t e = packed_[symbol];  // one load covers code + length
    if ((e & 0xFFu) == 0)
      throw std::invalid_argument("HuffmanEncoder: symbol has no code");
    bw.put_bits(((e >> 8) << extra_count) | extra,
                static_cast<int>(e & 0xFFu) + extra_count);
  }

  /// Writes `zrls` consecutive ZRL (0xF0) codes, zrls in [1, 3] — every
  /// run length 16..63 needs at most three — as one precomputed packed
  /// field (<= 48 bits) through the 64-bit accumulator. Identical bits to
  /// `zrls` encode(bw, 0xF0) calls. Throws std::invalid_argument if the
  /// table has no ZRL code.
  void encode_zrl_run(BitWriter& bw, int zrls) const {
    if (zrls < 1 || zrls > 3 || zrl_len_[zrls] == 0)
      throw std::invalid_argument("HuffmanEncoder: bad ZRL run");
    bw.put_bits64(zrl_bits_[zrls], zrl_len_[zrls]);
  }

  // BlockCursor variants of the three emitters above: same bitstream, but
  // through the register-resident per-block window. These are the zigzag
  // coder's innermost calls.
  void encode(BitWriter::BlockCursor& c, std::uint8_t symbol) const {
    const std::uint32_t e = packed_[symbol];
    if ((e & 0xFFu) == 0)
      throw std::invalid_argument("HuffmanEncoder: symbol has no code");
    c.put(e >> 8, static_cast<int>(e & 0xFFu));
  }
  void encode_with_extra(BitWriter::BlockCursor& c, std::uint8_t symbol,
                         std::uint32_t extra, int extra_count) const {
    const std::uint32_t e = packed_[symbol];
    if ((e & 0xFFu) == 0)
      throw std::invalid_argument("HuffmanEncoder: symbol has no code");
    c.put(((e >> 8) << extra_count) | extra, static_cast<int>(e & 0xFFu) + extra_count);
  }
  void encode_zrl_run(BitWriter::BlockCursor& c, int zrls) const {
    if (zrls < 1 || zrls > 3 || zrl_len_[zrls] == 0)
      throw std::invalid_argument("HuffmanEncoder: bad ZRL run");
    c.put(zrl_bits_[zrls], zrl_len_[zrls]);  // <= 48 bits, one write
  }

  int code_length(std::uint8_t symbol) const {
    return static_cast<int>(packed_[symbol] & 0xFFu);
  }
  bool has_code(std::uint8_t symbol) const { return (packed_[symbol] & 0xFFu) != 0; }

 private:
  // (code << 8) | length per symbol value: the hot path reads one 32-bit
  // entry instead of separate code and size arrays (length 0 = no code).
  std::array<std::uint32_t, 256> packed_{};
  // Precomputed packed ZRL runs: zrl_bits_[k] holds k repetitions of the
  // 0xF0 code, zrl_len_[k] their total length (0 when the table has no ZRL).
  std::array<std::uint64_t, 4> zrl_bits_{};
  std::array<std::uint8_t, 4> zrl_len_{};
};

/// T.81 F.2.2.1 EXTEND: the coefficient a `size`-bit magnitude field `v`
/// encodes, size in [1, 15]; a field whose top bit is 0 is negative. Without
/// a branch on the sign, as libjpeg-turbo's HUFF_EXTEND, in unsigned
/// arithmetic: coefficient signs are noise-like, so a branch mispredicts.
inline int extend_magnitude(std::uint32_t v, int size) {
  const std::uint32_t neg = (v - (1u << (size - 1))) >> 31;  // 1 when the top bit is 0
  return static_cast<int>(v) - static_cast<int>((neg << size) - neg);
}

/// Decoder-side tables: MINCODE/MAXCODE/VALPTR (T.81 F.2.2.3) for the
/// bit-by-bit reference walk and, at a nonzero width W = entropy_lut_bits(),
/// a 2^W-entry fast table indexed by the next W bits of the scan.
///
/// A fast-table entry is one uint32:
///  * bits 0-4: how many bits the entry resolves — the code length, or code
///    plus magnitude when kValue is set; 0 when no code of <= W bits
///    prefixes the window (a longer code, or no code at all);
///  * kValue: the symbol's magnitude bits fit in the window too, and bits
///    16-31 hold the sign-extended coefficient (or DC difference) as int16,
///    so one lookup yields run, size and value;
///  * kNoSize: the symbol's size nibble is 0 — DC difference 0, EOB, ZRL,
///    or an AC symbol no valid stream contains. Always set with kValue;
///  * bits 8-15: the symbol; bits 12-15 are its run.
/// Symbols are read as AC run/size bytes; a DC symbol is valid only when
/// its run nibble is 0, and then its size is the DC category.
class HuffmanDecoder {
 public:
  explicit HuffmanDecoder(const HuffmanSpec& spec);
  /// The same table from BITS and HUFFVAL as parsed: `symbols` holds the
  /// sum of counts[1..16] values, at most 256. Throws std::invalid_argument
  /// on a Kraft violation or more than 256 symbols.
  HuffmanDecoder(const std::array<std::uint8_t, 17>& counts, const std::uint8_t* symbols);

  /// Reads one symbol bit by bit; returns -1 on truncated/invalid stream.
  /// This is the reference path (and the only path when lut_bits() == 0).
  int decode(BitReader& br) const;

  static constexpr std::uint32_t kLenMask = 0x1F;
  static constexpr std::uint32_t kValue = 0x20;
  static constexpr std::uint32_t kNoSize = 0x40;
  /// The fields of a fast-table entry (see the class comment).
  static int entry_bits(std::uint32_t e) { return static_cast<int>(e & kLenMask); }
  static int entry_symbol(std::uint32_t e) { return static_cast<int>((e >> 8) & 0xFFu); }
  static int entry_run(std::uint32_t e) { return static_cast<int>((e >> 12) & 15u); }
  static std::int16_t entry_value(std::uint32_t e) { return static_cast<std::int16_t>(e >> 16); }

  /// The fast-table entry for a BitReader::window(). Requires lut_bits() > 0.
  std::uint32_t lookup(std::uint64_t window) const {
    return fast_[static_cast<std::size_t>(window >> (64 - lut_bits_))];
  }

  /// Resolves a code longer than lut_bits() (its window's entry resolves 0
  /// bits) from a window holding at least 16 real bits, walking MAXCODE on
  /// the window in registers. Returns the
  /// symbol and sets `len` to the code length, or returns -1 when no code
  /// of up to 16 bits matches (the reference walk fails there too).
  int decode_long(std::uint64_t window, int& len) const {
    const auto bits16 = static_cast<std::uint32_t>(window >> 48);
    for (int l = lut_bits_ + 1; l <= 16; ++l) {
      const auto code = static_cast<std::int32_t>(bits16 >> (16 - l));
      if (code <= max_code_[static_cast<std::size_t>(l)]) {
        len = l;
        return symbols_[static_cast<std::size_t>(val_ptr_[static_cast<std::size_t>(l)] + code -
                                                 min_code_[static_cast<std::size_t>(l)])];
      }
    }
    return -1;
  }

  /// Fast-table width this decoder was built with (0: reference walk only).
  int lut_bits() const { return lut_bits_; }

 private:
  std::array<std::int32_t, 17> min_code_{};
  std::array<std::int32_t, 17> max_code_{};  // -1 where no codes of that length
  std::array<std::int32_t, 17> val_ptr_{};
  std::vector<std::uint8_t> symbols_;
  std::vector<std::uint32_t> fast_;
  int lut_bits_ = 0;
};

}  // namespace dnj::jpeg
