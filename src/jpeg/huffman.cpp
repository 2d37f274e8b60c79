#include "jpeg/huffman.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace dnj::jpeg {

namespace {

HuffmanSpec make_spec(std::initializer_list<std::uint8_t> counts,
                      std::initializer_list<std::uint8_t> symbols) {
  HuffmanSpec spec;
  int l = 1;
  for (std::uint8_t c : counts) spec.counts[static_cast<std::size_t>(l++)] = c;
  spec.symbols.assign(symbols);
  spec.validate();
  return spec;
}

// Generates the canonical code/size lists (T.81 C.2, figures C.1-C.3).
struct CanonicalCodes {
  std::vector<std::uint8_t> sizes;   // per symbol, in spec order
  std::vector<std::uint16_t> codes;  // per symbol, in spec order
};

CanonicalCodes derive_codes(const std::array<std::uint8_t, 17>& counts) {
  CanonicalCodes cc;
  for (int l = 1; l <= 16; ++l)
    for (int i = 0; i < counts[static_cast<std::size_t>(l)]; ++i)
      cc.sizes.push_back(static_cast<std::uint8_t>(l));
  cc.codes.resize(cc.sizes.size());
  std::uint16_t code = 0;
  std::size_t k = 0;
  int si = cc.sizes.empty() ? 0 : cc.sizes[0];
  while (k < cc.sizes.size()) {
    while (k < cc.sizes.size() && cc.sizes[k] == si) {
      cc.codes[k] = code;
      ++code;
      ++k;
    }
    code <<= 1;
    ++si;
  }
  return cc;
}

const HuffmanSpec& validated(const HuffmanSpec& spec) {
  spec.validate();
  return spec;
}

constexpr int kMaxLutBits = 12;  // 4096 entries / table; wider gains nothing

int clamp_lut_bits(int bits) { return std::clamp(bits, 0, kMaxLutBits); }

std::atomic<int>& lut_bits_state() {
  static std::atomic<int> state = [] {
    int bits = 10;
    if (const char* env = std::getenv("DNJ_ENTROPY_LUT_BITS")) {
      char* end = nullptr;
      const long parsed = std::strtol(env, &end, 10);
      // Malformed values keep the default; "0" is a valid way to request
      // the pure bit-by-bit reference decoder.
      if (end != env && *end == '\0') bits = static_cast<int>(parsed);
    }
    return clamp_lut_bits(bits);
  }();
  return state;
}

}  // namespace

int entropy_lut_bits() { return lut_bits_state().load(std::memory_order_relaxed); }

void set_entropy_lut_bits(int bits) {
  lut_bits_state().store(clamp_lut_bits(bits), std::memory_order_relaxed);
}

int HuffmanSpec::symbol_count() const {
  int n = 0;
  for (int l = 1; l <= 16; ++l) n += counts[static_cast<std::size_t>(l)];
  return n;
}

void HuffmanSpec::validate() const {
  if (static_cast<int>(symbols.size()) != symbol_count())
    throw std::invalid_argument("HuffmanSpec: symbol list does not match counts");
  validate_counts(counts);
}

void HuffmanSpec::validate_counts(const std::array<std::uint8_t, 17>& counts) {
  // Kraft inequality: sum over lengths of counts[l] * 2^-l must be <= 1.
  long long kraft = 0;  // scaled by 2^16
  for (int l = 1; l <= 16; ++l)
    kraft += static_cast<long long>(counts[static_cast<std::size_t>(l)]) << (16 - l);
  if (kraft > (1LL << 16))
    throw std::invalid_argument("HuffmanSpec: counts violate Kraft inequality");
}

HuffmanSpec HuffmanSpec::default_dc_luma() {
  return make_spec({0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0},
                   {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
}

HuffmanSpec HuffmanSpec::default_dc_chroma() {
  return make_spec({0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0},
                   {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
}

HuffmanSpec HuffmanSpec::default_ac_luma() {
  return make_spec(
      {0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7d},
      {0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
       0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xa1, 0x08,
       0x23, 0x42, 0xb1, 0xc1, 0x15, 0x52, 0xd1, 0xf0, 0x24, 0x33, 0x62, 0x72,
       0x82, 0x09, 0x0a, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x25, 0x26, 0x27, 0x28,
       0x29, 0x2a, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x43, 0x44, 0x45,
       0x46, 0x47, 0x48, 0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
       0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6a, 0x73, 0x74, 0x75,
       0x76, 0x77, 0x78, 0x79, 0x7a, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
       0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9a, 0xa2, 0xa3,
       0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6,
       0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9,
       0xca, 0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe1, 0xe2,
       0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea, 0xf1, 0xf2, 0xf3, 0xf4,
       0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa});
}

HuffmanSpec HuffmanSpec::default_ac_chroma() {
  return make_spec(
      {0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77},
      {0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41,
       0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
       0xa1, 0xb1, 0xc1, 0x09, 0x23, 0x33, 0x52, 0xf0, 0x15, 0x62, 0x72, 0xd1,
       0x0a, 0x16, 0x24, 0x34, 0xe1, 0x25, 0xf1, 0x17, 0x18, 0x19, 0x1a, 0x26,
       0x27, 0x28, 0x29, 0x2a, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x43, 0x44,
       0x45, 0x46, 0x47, 0x48, 0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
       0x59, 0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6a, 0x73, 0x74,
       0x75, 0x76, 0x77, 0x78, 0x79, 0x7a, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
       0x88, 0x89, 0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9a,
       0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4,
       0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
       0xc8, 0xc9, 0xca, 0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda,
       0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea, 0xf2, 0xf3, 0xf4,
       0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa});
}

HuffmanSpec HuffmanSpec::build_optimal(const std::array<std::uint32_t, 256>& symbol_freq) {
  // T.81 K.2 / libjpeg jpeg_gen_optimal_table. Index 256 is the reserved
  // pseudo-symbol that guarantees no real symbol gets the all-ones code.
  std::array<long long, 257> freq{};
  for (int i = 0; i < 256; ++i) freq[static_cast<std::size_t>(i)] = symbol_freq[static_cast<std::size_t>(i)];
  freq[256] = 1;

  std::array<int, 257> codesize{};
  std::array<int, 257> others{};
  others.fill(-1);

  for (;;) {
    // c1 = least-frequency symbol (ties: larger value), c2 = next least.
    int c1 = -1;
    long long v = std::numeric_limits<long long>::max();
    for (int i = 0; i <= 256; ++i)
      if (freq[static_cast<std::size_t>(i)] != 0 && freq[static_cast<std::size_t>(i)] <= v) {
        v = freq[static_cast<std::size_t>(i)];
        c1 = i;
      }
    int c2 = -1;
    v = std::numeric_limits<long long>::max();
    for (int i = 0; i <= 256; ++i)
      if (freq[static_cast<std::size_t>(i)] != 0 && freq[static_cast<std::size_t>(i)] <= v && i != c1) {
        v = freq[static_cast<std::size_t>(i)];
        c2 = i;
      }
    if (c2 < 0) break;  // only one tree left

    freq[static_cast<std::size_t>(c1)] += freq[static_cast<std::size_t>(c2)];
    freq[static_cast<std::size_t>(c2)] = 0;

    ++codesize[static_cast<std::size_t>(c1)];
    while (others[static_cast<std::size_t>(c1)] >= 0) {
      c1 = others[static_cast<std::size_t>(c1)];
      ++codesize[static_cast<std::size_t>(c1)];
    }
    others[static_cast<std::size_t>(c1)] = c2;
    ++codesize[static_cast<std::size_t>(c2)];
    while (others[static_cast<std::size_t>(c2)] >= 0) {
      c2 = others[static_cast<std::size_t>(c2)];
      ++codesize[static_cast<std::size_t>(c2)];
    }
  }

  std::array<int, 33> bits{};
  for (int i = 0; i <= 256; ++i)
    if (codesize[static_cast<std::size_t>(i)] != 0) {
      if (codesize[static_cast<std::size_t>(i)] > 32)
        throw std::runtime_error("build_optimal: code length overflow");
      ++bits[static_cast<std::size_t>(codesize[static_cast<std::size_t>(i)])];
    }

  // Limit code lengths to 16 bits (libjpeg's adjustment loop).
  for (int i = 32; i > 16; --i) {
    while (bits[static_cast<std::size_t>(i)] > 0) {
      int j = i - 2;
      while (bits[static_cast<std::size_t>(j)] == 0) --j;
      bits[static_cast<std::size_t>(i)] -= 2;
      ++bits[static_cast<std::size_t>(i - 1)];
      bits[static_cast<std::size_t>(j + 1)] += 2;
      --bits[static_cast<std::size_t>(j)];
    }
  }
  // Remove the reserved pseudo-symbol's code from the longest length.
  int i = 16;
  while (bits[static_cast<std::size_t>(i)] == 0) --i;
  --bits[static_cast<std::size_t>(i)];

  HuffmanSpec spec;
  for (int l = 1; l <= 16; ++l)
    spec.counts[static_cast<std::size_t>(l)] = static_cast<std::uint8_t>(bits[static_cast<std::size_t>(l)]);
  // Symbols sorted by code size then value; the reserved 256 is excluded.
  for (int size = 1; size <= 32; ++size)
    for (int sym = 0; sym < 256; ++sym)
      if (codesize[static_cast<std::size_t>(sym)] == size)
        spec.symbols.push_back(static_cast<std::uint8_t>(sym));
  spec.validate();
  return spec;
}

HuffmanEncoder::HuffmanEncoder(const HuffmanSpec& spec) {
  spec.validate();
  const CanonicalCodes cc = derive_codes(spec.counts);
  for (std::size_t k = 0; k < spec.symbols.size(); ++k) {
    const std::uint8_t sym = spec.symbols[k];
    if (packed_[sym] != 0) throw std::invalid_argument("HuffmanEncoder: duplicate symbol");
    packed_[sym] = (static_cast<std::uint32_t>(cc.codes[k]) << 8) | cc.sizes[k];
  }
  // Pre-pack repeated ZRL codes so the coder emits a 16..47-zero run in one
  // accumulator write instead of up to three table lookups.
  if ((packed_[0xF0] & 0xFFu) != 0) {
    const std::uint64_t code = packed_[0xF0] >> 8;
    const int len = static_cast<int>(packed_[0xF0] & 0xFFu);
    std::uint64_t bits = 0;
    for (int k = 1; k <= 3; ++k) {
      bits = (bits << len) | code;
      zrl_bits_[static_cast<std::size_t>(k)] = bits;
      zrl_len_[static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(k * len);
    }
  }
}

HuffmanDecoder::HuffmanDecoder(const HuffmanSpec& spec)
    : HuffmanDecoder(validated(spec).counts, spec.symbols.data()) {}

HuffmanDecoder::HuffmanDecoder(const std::array<std::uint8_t, 17>& counts,
                               const std::uint8_t* symbols) {
  HuffmanSpec::validate_counts(counts);
  const CanonicalCodes cc = derive_codes(counts);
  if (cc.sizes.size() > 256) throw std::invalid_argument("HuffmanDecoder: more than 256 symbols");
  symbols_.assign(symbols, symbols + cc.sizes.size());
  std::size_t k = 0;
  for (int l = 1; l <= 16; ++l) {
    if (counts[static_cast<std::size_t>(l)] == 0) {
      min_code_[static_cast<std::size_t>(l)] = 0;
      max_code_[static_cast<std::size_t>(l)] = -1;
      val_ptr_[static_cast<std::size_t>(l)] = 0;
      continue;
    }
    val_ptr_[static_cast<std::size_t>(l)] = static_cast<std::int32_t>(k);
    min_code_[static_cast<std::size_t>(l)] = cc.codes[k];
    k += counts[static_cast<std::size_t>(l)];
    max_code_[static_cast<std::size_t>(l)] = cc.codes[k - 1];
  }

  // Fast table: every W-bit window whose prefix is a code of length l <= W
  // gets {symbol, l}; the 2^(W-l) extensions of each code share it. When
  // the symbol's magnitude bits also fit (l + size <= W), each extension
  // carries its own decoded value. Windows left at 0 (longer codes, invalid
  // prefixes) take decode_long.
  lut_bits_ = entropy_lut_bits();
  if (lut_bits_ == 0) return;
  const int w = lut_bits_;
  fast_.assign(std::size_t{1} << w, 0u);
  for (std::size_t idx = 0; idx < cc.sizes.size(); ++idx) {
    const int l = cc.sizes[idx];
    if (l > w) break;  // sizes ascend
    const std::uint32_t sym = symbols_[idx];
    const int size = static_cast<int>(sym & 15u);
    const std::uint32_t base = static_cast<std::uint32_t>(cc.codes[idx]) << (w - l);
    const std::uint32_t span = 1u << (w - l);
    for (std::uint32_t ext = 0; ext < span; ++ext) {
      std::uint32_t e = (sym << 8) | static_cast<std::uint32_t>(l);
      if (l + size <= w) {
        const int value =
            size == 0 ? 0 : extend_magnitude(ext >> (w - l - size), size);
        e = (static_cast<std::uint32_t>(value) << 16) | (sym << 8) | kValue |
            (size == 0 ? kNoSize : 0u) | static_cast<std::uint32_t>(l + size);
      }
      fast_[base + ext] = e;
    }
  }
}

int HuffmanDecoder::decode(BitReader& br) const {
  std::int32_t code = br.get_bit();
  if (code < 0) return -1;
  int l = 1;
  while (l <= 16) {
    if (max_code_[static_cast<std::size_t>(l)] >= 0 && code <= max_code_[static_cast<std::size_t>(l)]) {
      const std::int32_t idx =
          val_ptr_[static_cast<std::size_t>(l)] + (code - min_code_[static_cast<std::size_t>(l)]);
      return symbols_[static_cast<std::size_t>(idx)];
    }
    const std::int32_t bit = br.get_bit();
    if (bit < 0) return -1;
    code = (code << 1) | bit;
    ++l;
  }
  return -1;  // invalid code
}

}  // namespace dnj::jpeg
