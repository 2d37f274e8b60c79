#include "jpeg/block_coder.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "jpeg/markers.hpp"
#include "jpeg/zigzag.hpp"

namespace dnj::jpeg {

namespace {

// Index of the lowest set bit; m != 0.
int lowest_set_bit(std::uint64_t m) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_ctzll(m);
#else
  int k = 0;
  while ((m & 1ull) == 0) {
    m >>= 1;
    ++k;
  }
  return k;
#endif
}

// Low `size` bits that encode `v` (negative values use v - 1 semantics).
// Branchless: (v - 1) mod 2^size equals (v + 2^size - 1) mod 2^size, so the
// sign adjustment folds into one add of 0 or -1 — coefficient signs are
// noise-like, and a data-dependent branch here mispredicts half the time.
std::uint32_t magnitude_bits(int v, int size) {
  const int sign = -static_cast<int>(v < 0);  // 0 or -1
  return static_cast<std::uint32_t>(v + sign) & ((1u << size) - 1u);
}

}  // namespace

void encode_block(BitWriter& bw, const QuantizedBlock& block, int& dc_pred,
                  const HuffmanEncoder& dc_table, const HuffmanEncoder& ac_table) {
  const int dc = block[0];
  const int diff = dc - dc_pred;
  dc_pred = dc;
  const int dc_cat = bit_category(diff);
  dc_table.encode(bw, static_cast<std::uint8_t>(dc_cat));
  if (dc_cat > 0) bw.put_bits(magnitude_bits(diff, dc_cat), dc_cat);

  int run = 0;
  for (int k = 1; k < 64; ++k) {
    const int v = block[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(k)])];
    if (v == 0) {
      ++run;
      continue;
    }
    while (run >= 16) {
      ac_table.encode(bw, 0xF0);  // ZRL: 16 zeros
      run -= 16;
    }
    const int cat = bit_category(v);
    ac_table.encode(bw, static_cast<std::uint8_t>((run << 4) | cat));
    bw.put_bits(magnitude_bits(v, cat), cat);
    run = 0;
  }
  if (run > 0) ac_table.encode(bw, 0x00);  // EOB
}

void count_block_symbols(const QuantizedBlock& block, int& dc_pred, SymbolCounts& counts) {
  const int dc = block[0];
  const int diff = dc - dc_pred;
  dc_pred = dc;
  ++counts.dc[static_cast<std::size_t>(bit_category(diff))];

  int run = 0;
  for (int k = 1; k < 64; ++k) {
    const int v = block[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(k)])];
    if (v == 0) {
      ++run;
      continue;
    }
    while (run >= 16) {
      ++counts.ac[0xF0];
      run -= 16;
    }
    ++counts.ac[static_cast<std::size_t>((run << 4) | bit_category(v))];
    run = 0;
  }
  if (run > 0) ++counts.ac[0x00];
}

namespace {

// Scan-order nonzero masks, one table per byte of a natural-order mask:
// kScanMask[j][b] has bit kInvZigzag[8j + i] set for every set bit i of b.
// OR-ing the eight lookups turns a nonzero_masks_i16 natural-order mask
// into the zig-zag-order one. Integer table moves only, so the result is
// the same at every SIMD level.
struct ScanMaskTable {
  std::uint64_t t[8][256];
};

constexpr ScanMaskTable make_scan_mask_table() {
  ScanMaskTable tab{};
  for (int j = 0; j < 8; ++j)
    for (int b = 0; b < 256; ++b)
      for (int i = 0; i < 8; ++i)
        if ((b >> i) & 1)
          tab.t[j][b] |= 1ull << kInvZigzag[static_cast<std::size_t>(8 * j + i)];
  return tab;
}

constexpr ScanMaskTable kScanMask = make_scan_mask_table();

inline std::uint64_t scan_order_mask(std::uint64_t natural) {
  std::uint64_t m = 0;
  for (int j = 0; j < 8; ++j) m |= kScanMask.t[j][(natural >> (8 * j)) & 0xFF];
  return m;
}

// The coefficient at scan position k of a natural-order block.
inline int scan_coeff(const std::int16_t* block, int k) {
  return block[kZigzag[static_cast<std::size_t>(k)]];
}

// The per-block emit body of the stripe coder: visits the set bits of
// `nonzero` (the block's nonzero-lane mask in scan order), deriving each
// run length from bit positions instead of walking 63 branchy lanes. ZRL
// batches (run >= 16) go out as one packed multi-symbol write, and
// everything funnels through the caller's BlockCursor so the bit state
// stays in registers. Emitted bits are identical to the forward run-length
// walk of encode_block.
inline void emit_block(BitWriter::BlockCursor& cur, const std::int16_t* block,
                       std::uint64_t nonzero, int& dc_pred, const HuffmanEncoder& dc_table,
                       const HuffmanEncoder& ac_table) {
  const int dc = block[0];
  const int diff = dc - dc_pred;
  dc_pred = dc;
  const int dc_cat = bit_category(diff);
  dc_table.encode_with_extra(cur, static_cast<std::uint8_t>(dc_cat),
                             magnitude_bits(diff, dc_cat), dc_cat);

  std::uint64_t ac = nonzero & ~1ull;
  int prev = 0;
  while (ac != 0) {
    const int k = lowest_set_bit(ac);
    ac &= ac - 1;
    int run = k - prev - 1;
    prev = k;
    if (run >= 16) {
      ac_table.encode_zrl_run(cur, run >> 4);  // ZRL x (run / 16)
      run &= 15;
    }
    const int v = scan_coeff(block, k);
    const int cat = bit_category(v);
    ac_table.encode_with_extra(cur, static_cast<std::uint8_t>((run << 4) | cat),
                               magnitude_bits(v, cat), cat);
  }
  if (prev != 63) ac_table.encode(cur, 0x00);  // EOB
}

// Statistics twin of emit_block: the same mask walk, so pass-1 counts match
// the emitted symbols exactly.
inline void count_block(const std::int16_t* block, std::uint64_t nonzero, int& dc_pred,
                        SymbolCounts& counts) {
  const int dc = block[0];
  const int diff = dc - dc_pred;
  dc_pred = dc;
  ++counts.dc[static_cast<std::size_t>(bit_category(diff))];

  std::uint64_t ac = nonzero & ~1ull;
  int prev = 0;
  while (ac != 0) {
    const int k = lowest_set_bit(ac);
    ac &= ac - 1;
    int run = k - prev - 1;
    prev = k;
    if (run >= 16) {
      counts.ac[0xF0] += static_cast<std::uint32_t>(run >> 4);
      run &= 15;
    }
    ++counts.ac[static_cast<std::size_t>((run << 4) | bit_category(scan_coeff(block, k)))];
  }
  if (prev != 63) ++counts.ac[0x00];
}

// Splits a stripe's MCUs [0, mcus) into runs that no restart marker
// interrupts and calls fn(rst, begin, end) for each, where rst is the
// number (0-7) of the RSTn marker due before MCU `begin`, or -1 for none.
// Advances `mcu_index` past the stripe.
template <typename RunFn>
void for_each_restart_run(int mcus, int restart_interval, int& mcu_index, RunFn&& fn) {
  for (int m = 0; m < mcus;) {
    int rst = -1;
    int end = mcus;
    if (restart_interval > 0) {
      const int pos = mcu_index % restart_interval;
      if (pos == 0 && mcu_index > 0) rst = (mcu_index / restart_interval - 1) % 8;
      end = std::min(mcus, m + restart_interval - pos);
    }
    fn(rst, m, end);
    mcu_index += end - m;
    m = end;
  }
}

}  // namespace

void McuPattern::add(int component, std::size_t first, std::size_t step) {
  if (count >= static_cast<int>(units.size()))
    throw std::length_error("McuPattern: more than 10 data units per MCU");
  units[static_cast<std::size_t>(count++)] = {component, first, step};
}

void encode_stripe(BitWriter& bw, const std::int16_t* blocks, const std::uint64_t* masks,
                   int mcus, const McuPattern& pattern, const ScanTables& tables,
                   int restart_interval, ScanState& state) {
  for_each_restart_run(mcus, restart_interval, state.mcu_index,
                       [&](int rst, int begin, int end) {
    if (rst >= 0) {
      bw.put_marker(static_cast<std::uint8_t>(kRST0 + rst));
      state.dc_pred.fill(0);
    }
    BitWriter::BlockCursor cur(bw);
    for (int m = begin; m < end; ++m) {
      for (int u = 0; u < pattern.count; ++u) {
        const McuUnit& unit = pattern.units[static_cast<std::size_t>(u)];
        const std::size_t b = unit.first + static_cast<std::size_t>(m) * unit.step;
        const auto c = static_cast<std::size_t>(unit.component);
        cur.reserve_block();
        emit_block(cur, blocks + b * 64, scan_order_mask(masks[b]), state.dc_pred[c],
                   *tables.dc[c], *tables.ac[c]);
      }
    }
    cur.commit();
  });
}

void count_stripe_symbols(const std::int16_t* blocks, const std::uint64_t* masks, int mcus,
                          const McuPattern& pattern,
                          const std::array<SymbolCounts*, kMaxScanComponents>& counts,
                          int restart_interval, ScanState& state) {
  for_each_restart_run(mcus, restart_interval, state.mcu_index,
                       [&](int rst, int begin, int end) {
    if (rst >= 0) state.dc_pred.fill(0);
    for (int m = begin; m < end; ++m) {
      for (int u = 0; u < pattern.count; ++u) {
        const McuUnit& unit = pattern.units[static_cast<std::size_t>(u)];
        const std::size_t b = unit.first + static_cast<std::size_t>(m) * unit.step;
        const auto c = static_cast<std::size_t>(unit.component);
        count_block(blocks + b * 64, scan_order_mask(masks[b]), state.dc_pred[c], *counts[c]);
      }
    }
  });
}

bool decode_block(BitReader& br, QuantizedBlock& block, int& dc_pred,
                  const HuffmanDecoder& dc_table, const HuffmanDecoder& ac_table) {
  return decode_block(br, block.data(), dc_pred, dc_table, ac_table);
}

bool decode_block(BitReader& br, std::int16_t* block, int& dc_pred,
                  const HuffmanDecoder& dc_table, const HuffmanDecoder& ac_table) {
  if (dc_table.lut_bits() > 0 && ac_table.lut_bits() > 0)
    return decode_block_fast(br, block, dc_pred, dc_table, ac_table);
  return decode_block_reference(br, block, dc_pred, dc_table, ac_table);
}

bool decode_block_reference(BitReader& br, std::int16_t* block, int& dc_pred,
                            const HuffmanDecoder& dc_table, const HuffmanDecoder& ac_table) {
  std::fill(block, block + 64, static_cast<std::int16_t>(0));
  const int dc_cat = dc_table.decode(br);
  if (dc_cat < 0 || dc_cat > 15) return false;
  int diff = 0;
  if (dc_cat > 0) {
    const std::int32_t raw = br.get_bits(dc_cat);
    if (raw < 0) return false;
    diff = extend_magnitude(static_cast<std::uint32_t>(raw), dc_cat);
  }
  dc_pred = static_cast<std::int16_t>(dc_pred + diff);  // see decode_block_fast
  block[0] = static_cast<std::int16_t>(dc_pred);

  int k = 1;
  while (k < 64) {
    const int sym = ac_table.decode(br);
    if (sym < 0) return false;
    if (sym == 0x00) break;  // EOB
    const int run = sym >> 4;
    const int cat = sym & 0x0F;
    if (cat == 0) {
      if (sym != 0xF0) return false;  // only ZRL has size 0
      k += 16;
      continue;
    }
    k += run;
    if (k >= 64) return false;
    const std::int32_t raw = br.get_bits(cat);
    if (raw < 0) return false;
    block[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(k)])] =
        static_cast<std::int16_t>(extend_magnitude(static_cast<std::uint32_t>(raw), cat));
    ++k;
  }
  return true;
}

}  // namespace dnj::jpeg
