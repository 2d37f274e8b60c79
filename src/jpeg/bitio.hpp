// Entropy-coded segment bit I/O. JPEG writes bits MSB-first and byte-stuffs
// every 0xFF data byte with a following 0x00 so that decoders can find
// markers by scanning for un-stuffed 0xFF bytes.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace dnj::jpeg {

class BitWriter {
 public:
  explicit BitWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  /// Writes the low `count` bits of `bits`, MSB first. count in [0, 32] —
  /// wide enough for a fused Huffman-code + magnitude field (16 + 11 bits
  /// worst case). Inline: this is the entropy coder's innermost operation.
  /// Bits collect in a 64-bit accumulator and drain four *unstuffed* bytes
  /// at a time into the staging buffer; byte stuffing happens in bulk at
  /// spill time via the dispatched simd stuff_bytes kernel, so the hot path
  /// has no per-byte 0xFF checks at all. Buffered bytes reach the vector on
  /// flush()/put_marker() — every entropy-coded segment ends with a marker,
  /// so complete streams are never left stale.
  void put_bits(std::uint32_t bits, int count) {
    if (count < 0 || count > 32) throw std::invalid_argument("BitWriter: bad bit count");
    // count == 0 falls through harmlessly: mask is 0, shift is 0, no drain.
    acc_ = (acc_ << count) |
           (bits & static_cast<std::uint32_t>((1ull << count) - 1ull));
    bit_count_ += count;  // stays < 64: drained below 32 after every call
    if (bit_count_ >= 32) {
      const std::uint32_t word =
          static_cast<std::uint32_t>(acc_ >> (bit_count_ - 32));
      bit_count_ -= 32;
      if (buf_len_ + 4 > kBufSize) spill();
      store_be32(&buf_[buf_len_], word);
      buf_len_ += 4;
    }
  }

  /// Writes the low `count` bits of `bits`, MSB first, count in [0, 64] —
  /// wide enough for a precomputed multi-symbol field (e.g. a fused run of
  /// three 16-bit ZRL codes). Same bitstream as splitting the field across
  /// two put_bits calls, in one call.
  void put_bits64(std::uint64_t bits, int count) {
    if (count <= 32) {
      put_bits(static_cast<std::uint32_t>(bits), count);
      return;
    }
    if (count > 64) throw std::invalid_argument("BitWriter: bad bit count");
    // Each put_bits leaves < 32 residual bits, so the 32-bit tail always
    // fits the accumulator.
    put_bits(static_cast<std::uint32_t>(bits >> 32), count - 32);
    put_bits(static_cast<std::uint32_t>(bits), 32);
  }

  /// Register-resident emission window for one entropy-coded block. The
  /// cursor checks staging capacity ONCE for the whole block (worst case:
  /// 64 coefficients x 26 bits < kBlockReserve bytes), then keeps the
  /// accumulator, bit count and write pointer in locals so the per-symbol
  /// path has no buffer checks, no validation branches and no member
  /// round-trips. commit() writes the state back; the owning BitWriter must
  /// not be touched between construction and commit(), and each cursor must
  /// be committed before the next one is created.
  class BlockCursor {
   public:
    explicit BlockCursor(BitWriter& w) : w_(w), filled_(w.bit_count_) {
      if (w.buf_len_ + kBlockReserve > kBufSize) w.spill();
      p_ = w.buf_.data() + w.buf_len_;
      // Pin the pending bits to the TOP of the accumulator and immediately
      // retire any whole bytes, so every put() below starts with <= 7
      // pending bits (57 bits of headroom — enough for a packed ZRL triple).
      acc_ = filled_ != 0 ? w.acc_ << (64 - filled_) : 0;
      store_be64(p_, acc_);
      const int adv = filled_ >> 3;
      p_ += adv;
      acc_ <<= adv * 8;
      filled_ &= 7;
    }

    /// Low `count` bits of `bits`, MSB first, count in [1, 48]. Branchless:
    /// an overlapping big-endian 8-byte store retires completed bytes after
    /// every call — entropy-coded bit counts are noise-like, so a
    /// drain-if-full branch here mispredicts constantly. Precondition:
    /// `bits` has no set bits above `count` (Huffman codes and masked
    /// magnitudes satisfy that by construction).
    void put(std::uint64_t bits, int count) {
      acc_ |= bits << (64 - count - filled_);
      filled_ += count;
      store_be64(p_, acc_);
      const int adv = filled_ >> 3;
      p_ += adv;
      acc_ <<= adv * 8;  // adv <= 6: filled_ stays <= 55
      filled_ &= 7;
    }

    /// Re-checks staging capacity between blocks when one cursor spans a
    /// whole run of blocks; spills completed bytes when the next block
    /// might not fit. One predictable pointer compare in the common case.
    void reserve_block() {
      if (static_cast<std::size_t>(p_ - w_.buf_.data()) + kBlockReserve > kBufSize) {
        commit();
        w_.spill();
        p_ = w_.buf_.data();  // buf_len_ is 0 after spill; pending bits stay in acc_
      }
    }

    /// Writes accumulator/pointer state back to the BitWriter.
    void commit() {
      w_.acc_ = filled_ != 0 ? acc_ >> (64 - filled_) : 0;
      w_.bit_count_ = filled_;
      w_.buf_len_ = static_cast<std::size_t>(p_ - w_.buf_.data());
    }

   private:
    BitWriter& w_;
    std::uint8_t* p_;
    std::uint64_t acc_;  // pending bits left-aligned at bit 63
    int filled_;         // pending bit count, <= 7 between put() calls
  };

  /// Pads the current byte with 1-bits (the JPEG fill convention) and
  /// drains accumulator and staging buffer into the output vector. Call
  /// before writing any marker or inspecting the output.
  void flush();

  /// Flushes, then writes a two-byte marker (0xFF, code) unstuffed.
  void put_marker(std::uint8_t code);

 private:
  static constexpr std::size_t kBufSize = 4096;
  // BlockCursor headroom: one block emits at most 27 DC + 63 * 26 AC bits
  // (~209 bytes); 256 covers that plus the cursor's 8-byte store overhang.
  static constexpr std::size_t kBlockReserve = 256;

  // One 4-byte store instead of four byte stores — the drain runs once per
  // 32 emitted bits, squarely on the entropy coder's hot path.
  static void store_be32(std::uint8_t* p, std::uint32_t word) {
#if defined(__GNUC__) || defined(__clang__)
    word = __builtin_bswap32(word);
    __builtin_memcpy(p, &word, 4);
#else
    p[0] = static_cast<std::uint8_t>(word >> 24);
    p[1] = static_cast<std::uint8_t>(word >> 16);
    p[2] = static_cast<std::uint8_t>(word >> 8);
    p[3] = static_cast<std::uint8_t>(word);
#endif
  }

  static void store_be64(std::uint8_t* p, std::uint64_t word) {
#if defined(__GNUC__) || defined(__clang__)
    word = __builtin_bswap64(word);
    __builtin_memcpy(p, &word, 8);
#else
    for (int i = 0; i < 8; ++i)
      p[i] = static_cast<std::uint8_t>(word >> (56 - 8 * i));
#endif
  }

  void spill();  // stuff-copies buf_[0..buf_len_) onto out_ in one pass

  std::vector<std::uint8_t>& out_;
  std::array<std::uint8_t, kBufSize> buf_;  // unstuffed staged bytes
  std::size_t buf_len_ = 0;
  std::uint64_t acc_ = 0;
  int bit_count_ = 0;
};

class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  /// Reads `count` bits MSB-first, count in [0, 32]. Returns -1 if the scan
  /// data is exhausted or a marker is hit (callers treat that as a
  /// corrupt-stream error except for expected RST/EOI handling). Inline: the
  /// decoder reads magnitude bits through it.
  std::int32_t get_bits(int count) {
    if (count == 0) return 0;
    if (bit_count_ < count && fill() < count) return -1;
    return static_cast<std::int32_t>(take(count));
  }

  /// Reads a single bit; -1 on marker/end.
  std::int32_t get_bit() { return get_bits(1); }

  /// Tops up the buffer and returns the number of buffered bits: at least 57
  /// unless a marker or the end of data is within reach, and then every data
  /// bit before it. Call with fewer than 32 bits buffered. When none of the
  /// next eight bytes is 0xFF they can hold neither a stuffed byte nor a
  /// marker, so one big-endian 8-byte load supplies as many whole bytes as
  /// fit (up to seven). Otherwise the bytes are walked one at a time, which
  /// unstuffs, skips fill bytes and stops at a marker or the end of data.
  /// Never reads at or past `size`.
  int fill() {
    if (pos_ + 8 <= size_) {
      const std::uint64_t w = load_be64(data_ + pos_);
      // A byte of w is 0xFF exactly when that byte of ~w is zero.
      if (((~w - 0x0101010101010101ull) & w & 0x8080808080808080ull) == 0) {
        acc_ |= w >> bit_count_;
        pos_ += static_cast<std::size_t>((63 - bit_count_) >> 3);
        bit_count_ |= 56;  // == bit_count_ + 8 * (bytes taken) for bit_count_ < 64
        return bit_count_;
      }
    }
    *this = walk_bytes(*this);
    return bit_count_;
  }

  /// The buffered bits, left-aligned: bit 63 is the next bit of the scan.
  /// Bits past buffered_bits() are zero or the scan's next data bits, so a
  /// lookup on them is only meaningful up to buffered_bits().
  std::uint64_t window() const { return acc_; }

  /// Drops `count` buffered bits, count in [0, buffered_bits()].
  void skip(int count) {
    acc_ <<= count;
    bit_count_ -= count;
  }

  /// The next `count` bits, count in [1, buffered_bits()] and at most 32.
  std::uint32_t take(int count) {
    const auto v = static_cast<std::uint32_t>(acc_ >> (64 - count));
    skip(count);
    return v;
  }

  /// True when positioned at a marker (0xFF followed by a non-stuffing,
  /// non-fill byte). Like the other marker helpers this inspects the byte
  /// position, so it is only meaningful when buffered bits have been fully
  /// consumed (start of scan, after a failed read, after take_marker) —
  /// read-ahead buffering may otherwise hold undelivered data bits.
  bool at_marker() const;

  /// If positioned at a marker, returns its code without consuming; 0
  /// otherwise.
  std::uint8_t peek_marker() const;

  /// Consumes a marker (two bytes) and resets bit state. Returns the code.
  std::uint8_t take_marker();

  /// Byte offset of the next unread byte. With read-ahead this can run up
  /// to seven buffered (unconsumed) bytes past the logical bit position.
  std::size_t position() const { return pos_; }

  /// Bits buffered but not yet consumed.
  int buffered_bits() const { return bit_count_; }

 private:
  static std::uint64_t load_be64(const std::uint8_t* p) {
#if defined(__GNUC__) || defined(__clang__)
    std::uint64_t w;
    __builtin_memcpy(&w, p, 8);
    return __builtin_bswap64(w);
#else
    std::uint64_t w = 0;
    for (int i = 0; i < 8; ++i) w = (w << 8) | p[i];
    return w;
#endif
  }

  int next_data_byte();
  // The byte walk behind fill(). It takes and returns the reader by value,
  // so a decoder holding a BitReader copy in registers keeps it there.
  static BitReader walk_bytes(BitReader r);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;  // buffered bits, left-aligned (see window())
  int bit_count_ = 0;
};

}  // namespace dnj::jpeg
