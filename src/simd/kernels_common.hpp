// Internal helpers shared by the per-level kernel TUs.
//
// Two kinds of sharing live here:
//
//  * scalar edge/tail helpers (block tiling at plane edges, the slice-by-8
//    CRC-32) that every level runs unchanged, so the slow paths are one
//    definition instead of three;
//  * kernel bodies templated over a tiny vector wrapper `V` (load/store/
//    set1 + arithmetic operators, lane count V::kWidth). Each SIMD TU
//    instantiates them with its own wrapper; because the template mirrors
//    the scalar operation sequence statement by statement, every lane
//    executes exactly the scalar arithmetic — the mechanical half of the
//    determinism contract. The TUs compile with -ffp-contract=off so the
//    written mul/add sequence is also the executed one.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "image/color.hpp"

namespace dnj::simd::detail {

inline constexpr int kBlockDim = 8;
inline constexpr int kBlockSize = 64;

// Note on linkage: the non-template helpers below are `static` on purpose.
// They are compiled into every kernel TU — including the -mavx2 one — and
// plain `inline` would emit them as weak symbols the linker may resolve to
// the AVX-encoded copy even for scalar/SSE2 callers, breaking the
// "baseline-portable binary" contract in unoptimized builds. Internal
// linkage keeps each TU's copy private to the ISA it was compiled for.

// --------------------------------------------------------------- edge tiles

/// Fills one 8x8 block that overlaps the right/bottom plane edge, replicating
/// the last row/column (tile_blocks_into edge semantics).
static inline void tile_edge_block_f32(const float* src, int w, int h, int bx, int by,
                                float* blk, float bias) {
  for (int y = 0; y < kBlockDim; ++y) {
    const int sy = std::min(by * kBlockDim + y, h - 1);
    const float* row = src + static_cast<std::size_t>(sy) * w;
    for (int x = 0; x < kBlockDim; ++x)
      blk[y * kBlockDim + x] = row[std::min(bx * kBlockDim + x, w - 1)] + bias;
  }
}

/// Edge-block variant for interleaved u8 sources (`src` points at the first
/// sample of the channel; samples are `ch` apart).
static inline void tile_edge_block_u8(const std::uint8_t* src, int w, int h, int ch, int bx,
                               int by, float* blk, float bias) {
  const std::size_t row_stride = static_cast<std::size_t>(w) * ch;
  for (int y = 0; y < kBlockDim; ++y) {
    const int sy = std::min(by * kBlockDim + y, h - 1);
    const std::uint8_t* row = src + static_cast<std::size_t>(sy) * row_stride;
    for (int x = 0; x < kBlockDim; ++x) {
      const int sx = std::min(bx * kBlockDim + x, w - 1);
      blk[y * kBlockDim + x] =
          static_cast<float>(row[static_cast<std::size_t>(sx) * ch]) + bias;
    }
  }
}

/// Fully in-plane u8 block for channel strides the SIMD paths don't cover
/// (interleaved RGB): the plain convert-and-bias loop.
static inline void tile_full_block_u8(const std::uint8_t* row, std::size_t row_stride, int ch,
                               float* blk, float bias) {
  for (int y = 0; y < kBlockDim; ++y, row += row_stride, blk += kBlockDim)
    for (int x = 0; x < kBlockDim; ++x)
      blk[x] = static_cast<float>(row[static_cast<std::size_t>(x) * ch]) + bias;
}

/// Block column `bx` of rgb_to_ycbcr_blocks, one pixel at a time through
/// image::rgb_to_ycbcr: the replicated pixel's transform plus `bias`. The
/// scalar level's kernel body, and the vector levels' path for the blocks
/// that overlap the right edge.
static inline void rgb_to_ycbcr_block(const std::uint8_t* rgb, int w, int h, int bx,
                                      float* y, float* cb, float* cr, float bias) {
  for (int r = 0; r < kBlockDim; ++r) {
    const std::uint8_t* row = rgb + static_cast<std::size_t>(std::min(r, h - 1)) * w * 3;
    for (int x = 0; x < kBlockDim; ++x) {
      const std::uint8_t* px =
          row + static_cast<std::size_t>(std::min(bx * kBlockDim + x, w - 1)) * 3;
      const auto ycc = image::rgb_to_ycbcr(px[0], px[1], px[2]);
      const int k = r * kBlockDim + x;
      y[k] = ycc[0] + bias;
      cb[k] = ycc[1] + bias;
      cr[k] = ycc[2] + bias;
    }
  }
}

// ------------------------------------------------------------------- CRC-32

/// Slice-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320:
/// t[0] is the bytewise table, and t[k][i] is t[k - 1][i] advanced through
/// one more zero byte.
struct Crc32Tables {
  std::uint32_t t[8][256];
};

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tab{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
    tab.t[0][i] = c;
  }
  for (int k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      tab.t[k][i] = (tab.t[k - 1][i] >> 8) ^ tab.t[0][tab.t[k - 1][i] & 0xFFu];
  return tab;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

static inline std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) | (std::uint32_t{p[2]} << 16) |
         (std::uint32_t{p[3]} << 24);
}

/// CRC-32 in zlib's crc32(crc, buf, len) form by slice-by-8 (Kounavis &
/// Berry, ISCC 2005): eight table lookups retire eight bytes. The scalar
/// level's kernel, and the PCLMULQDQ fold's short-input and tail path.
static inline std::uint32_t crc32_slice8(std::uint32_t crc, const std::uint8_t* p,
                                         std::size_t n) {
  const auto& t = kCrc32Tables.t;
  std::uint32_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return ~c;
}

// ------------------------------------------------------- templated kernels

/// The four AAN rotation constants pre-broadcast, so a batch kernel can
/// hoist them out of its block loop.
template <class V>
struct AanConsts {
  V c0707 = V::set1(0.707106781f);
  V c0382 = V::set1(0.382683433f);
  V c0541 = V::set1(0.541196100f);
  V c1306 = V::set1(1.306562965f);
};

/// One 8-point AAN forward butterfly over 8 vectors — the exact statement
/// sequence of the scalar aan_1d, each lane one independent 1-D transform.
template <class V>
inline void aan_butterfly(V p[8], const AanConsts<V>& k = AanConsts<V>()) {
  const V tmp0 = p[0] + p[7];
  const V tmp7 = p[0] - p[7];
  const V tmp1 = p[1] + p[6];
  const V tmp6 = p[1] - p[6];
  const V tmp2 = p[2] + p[5];
  const V tmp5 = p[2] - p[5];
  const V tmp3 = p[3] + p[4];
  const V tmp4 = p[3] - p[4];

  // Even part.
  const V tmp10 = tmp0 + tmp3;
  const V tmp13 = tmp0 - tmp3;
  const V tmp11 = tmp1 + tmp2;
  const V tmp12 = tmp1 - tmp2;

  p[0] = tmp10 + tmp11;
  p[4] = tmp10 - tmp11;

  const V z1 = (tmp12 + tmp13) * k.c0707;
  p[2] = tmp13 + z1;
  p[6] = tmp13 - z1;

  // Odd part.
  const V t10 = tmp4 + tmp5;
  const V t11 = tmp5 + tmp6;
  const V t12 = tmp6 + tmp7;

  const V z5 = (t10 - t12) * k.c0382;
  const V z2 = k.c0541 * t10 + z5;
  const V z4 = k.c1306 * t12 + z5;
  const V z3 = t11 * k.c0707;

  const V z11 = tmp7 + z3;
  const V z13 = tmp7 - z3;

  p[5] = z13 + z2;
  p[3] = z13 - z2;
  p[1] = z11 + z4;
  p[7] = z11 - z4;
}

/// Row-column inverse DCT of one block, vectorized over output columns
/// (pass 1, lanes = v) then over output sample columns (pass 2, lanes = y).
/// `m` is the row-major orthonormal basis (jpeg::dct_basis_table()). Each
/// lane accumulates 0 + t0 + t1 + ... in the scalar idct_8x8 order.
template <class V>
inline void idct_block_vec(float* blk, const float* m) {
  float tmp[kBlockSize];
  for (int c0 = 0; c0 < kBlockDim; c0 += V::kWidth) {
    for (int x = 0; x < kBlockDim; ++x) {
      V acc = V::set1(0.0f);
      for (int u = 0; u < kBlockDim; ++u)
        acc = acc + V::set1(m[u * kBlockDim + x]) * V::load(blk + u * kBlockDim + c0);
      acc.store(tmp + x * kBlockDim + c0);
    }
  }
  for (int y0 = 0; y0 < kBlockDim; y0 += V::kWidth) {
    for (int x = 0; x < kBlockDim; ++x) {
      V acc = V::set1(0.0f);
      for (int v = 0; v < kBlockDim; ++v)
        acc = acc + V::set1(tmp[x * kBlockDim + v]) * V::load(m + v * kBlockDim + y0);
      acc.store(blk + x * kBlockDim + y0);
    }
  }
}

/// Rounds to the integer grid with the FPU's round-to-nearest-even — the
/// vector twin of jpeg::round_half_even (valid for |x| < 2^22).
template <class V>
inline V round_half_even_vec(V x) {
  const V bias = V::set1(12582912.0f);  // 1.5 * 2^23
  return (x + bias) - bias;
}

/// JFIF BT.601 forward transform, lanes = pixels; the exact expression
/// order of image::rgb_to_ycbcr.
template <class V>
inline void ycbcr_from_rgb_vec(V r, V g, V b, V* y, V* cb, V* cr) {
  *y = V::set1(0.299f) * r + V::set1(0.587f) * g + V::set1(0.114f) * b;
  *cb = V::set1(-0.168736f) * r - V::set1(0.331264f) * g + V::set1(0.5f) * b +
        V::set1(128.0f);
  *cr = V::set1(0.5f) * r - V::set1(0.418688f) * g - V::set1(0.081312f) * b +
        V::set1(128.0f);
}

/// Inverse transform, lanes = pixels; exact expression order of
/// image::ycbcr_to_rgb.
template <class V>
inline void rgb_from_ycbcr_vec(V y, V cb, V cr, V* r, V* g, V* b) {
  *r = y + V::set1(1.402f) * (cr - V::set1(128.0f));
  *g = y - V::set1(0.344136f) * (cb - V::set1(128.0f)) -
       V::set1(0.714136f) * (cr - V::set1(128.0f));
  *b = y + V::set1(1.772f) * (cb - V::set1(128.0f));
}

/// One output sample of the horizontal 2x upsample. image::upsample_2x2's
/// floor/clamp arithmetic yields exactly these taps — weights 1/0 at x = 0,
/// 0.25/0.75 at even x, 0.75/0.25 at odd x, the right tap clamped to the
/// last input — so this is its pair of products and one add. Every level
/// runs it for the edge columns and the tail.
static inline float upsample_h2_sample(const float* in, int in_w, int x) {
  const int k = x >> 1;
  if (x == 0) return in[0] * 1.0f + in[std::min(1, in_w - 1)] * 0.0f;
  if (x & 1) return in[k] * 0.75f + in[std::min(k + 1, in_w - 1)] * 0.25f;
  return in[k - 1] * 0.25f + in[k] * 0.75f;
}

/// Horizontal 2x upsample of one row, lanes = input samples k: one vector
/// yields outputs 2k (in[k-1] * 0.25 + in[k] * 0.75) and 2k + 1 (in[k] *
/// 0.75 + in[k+1] * 0.25), the products and add of upsample_h2_sample, and
/// V::store_interleaved writes them as 2W consecutive outputs. The vector
/// body stops while in[k + W] still exists, so no lane needs the clamped
/// right tap.
template <class V>
inline void upsample_h2_row_vec(const float* in, int in_w, int out_w, float* out) {
  constexpr int W = V::kWidth;
  const V q1 = V::set1(0.25f);
  const V q3 = V::set1(0.75f);
  const int head = std::min(out_w, 2);
  for (int x = 0; x < head; ++x) out[x] = upsample_h2_sample(in, in_w, x);
  int k = 1;
  for (; k + W < in_w; k += W) {
    const V cur = V::load(in + k);
    V::store_interleaved(out + 2 * k, V::load(in + k - 1) * q1 + cur * q3,
                         cur * q3 + V::load(in + k + 1) * q1);
  }
  for (int x = std::max(head, 2 * k); x < out_w; ++x)
    out[x] = upsample_h2_sample(in, in_w, x);
}

/// out[i] = top[i] * (1 - wy) + bot[i] * wy, lanes = samples.
template <class V>
inline void lerp_rows_vec(const float* top, const float* bot, float wy, int n, float* out) {
  const float wt = 1.0f - wy;
  const V vt = V::set1(wt);
  const V vb = V::set1(wy);
  int i = 0;
  for (; i + V::kWidth <= n; i += V::kWidth)
    (V::load(top + i) * vt + V::load(bot + i) * vb).store(out + i);
  for (; i < n; ++i) out[i] = top[i] * wt + bot[i] * wy;
}

/// Register-blocked C[m x n] += A[m x k] * B[k x n] (row-major). The C tile
/// (4 rows x 2 vectors) lives in registers across the whole k loop; each
/// C element still accumulates a[i][kk] * b[kk][j] in ascending-kk order
/// with the scalar zero-skip, so the result is bit-identical to the naive
/// ikj loop. Column/row tails fall back to narrower tiles and finally the
/// plain scalar loop.
template <class V>
inline void gemm_acc_vec(const float* a, const float* b, float* c, int m, int k,
                         int n) {
  constexpr int W = V::kWidth;
  constexpr int MR = 4;
  const int NR = 2 * W;
  int j0 = 0;
  for (; j0 + NR <= n; j0 += NR) {
    int i0 = 0;
    for (; i0 + MR <= m; i0 += MR) {
      V acc[MR][2];
      for (int r = 0; r < MR; ++r) {
        float* crow = c + static_cast<std::size_t>(i0 + r) * n + j0;
        acc[r][0] = V::load(crow);
        acc[r][1] = V::load(crow + W);
      }
      for (int kk = 0; kk < k; ++kk) {
        const float* brow = b + static_cast<std::size_t>(kk) * n + j0;
        const V b0 = V::load(brow);
        const V b1 = V::load(brow + W);
        for (int r = 0; r < MR; ++r) {
          const float av = a[static_cast<std::size_t>(i0 + r) * k + kk];
          if (av == 0.0f) continue;
          const V va = V::set1(av);
          acc[r][0] = acc[r][0] + va * b0;
          acc[r][1] = acc[r][1] + va * b1;
        }
      }
      for (int r = 0; r < MR; ++r) {
        float* crow = c + static_cast<std::size_t>(i0 + r) * n + j0;
        acc[r][0].store(crow);
        acc[r][1].store(crow + W);
      }
    }
    for (; i0 < m; ++i0) {
      float* crow = c + static_cast<std::size_t>(i0) * n + j0;
      V a0 = V::load(crow);
      V a1 = V::load(crow + W);
      for (int kk = 0; kk < k; ++kk) {
        const float av = a[static_cast<std::size_t>(i0) * k + kk];
        if (av == 0.0f) continue;
        const float* brow = b + static_cast<std::size_t>(kk) * n + j0;
        const V va = V::set1(av);
        a0 = a0 + va * V::load(brow);
        a1 = a1 + va * V::load(brow + W);
      }
      a0.store(crow);
      a1.store(crow + W);
    }
  }
  if (j0 < n) {
    for (int i = 0; i < m; ++i) {
      const float* arow = a + static_cast<std::size_t>(i) * k;
      float* crow = c + static_cast<std::size_t>(i) * n;
      for (int kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        if (av == 0.0f) continue;
        const float* brow = b + static_cast<std::size_t>(kk) * n;
        for (int j = j0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

/// Register-blocked C[m x n] += A^T * B with A stored [k x m] (k-major).
/// Same accumulation-order guarantees as gemm_acc_vec.
template <class V>
inline void gemm_at_acc_vec(const float* a, const float* b, float* c, int m, int k,
                            int n) {
  constexpr int W = V::kWidth;
  constexpr int MR = 4;
  const int NR = 2 * W;
  int j0 = 0;
  for (; j0 + NR <= n; j0 += NR) {
    int i0 = 0;
    for (; i0 + MR <= m; i0 += MR) {
      V acc[MR][2];
      for (int r = 0; r < MR; ++r) {
        float* crow = c + static_cast<std::size_t>(i0 + r) * n + j0;
        acc[r][0] = V::load(crow);
        acc[r][1] = V::load(crow + W);
      }
      for (int kk = 0; kk < k; ++kk) {
        const float* brow = b + static_cast<std::size_t>(kk) * n + j0;
        const V b0 = V::load(brow);
        const V b1 = V::load(brow + W);
        const float* arow = a + static_cast<std::size_t>(kk) * m + i0;
        for (int r = 0; r < MR; ++r) {
          const float av = arow[r];
          if (av == 0.0f) continue;
          const V va = V::set1(av);
          acc[r][0] = acc[r][0] + va * b0;
          acc[r][1] = acc[r][1] + va * b1;
        }
      }
      for (int r = 0; r < MR; ++r) {
        float* crow = c + static_cast<std::size_t>(i0 + r) * n + j0;
        acc[r][0].store(crow);
        acc[r][1].store(crow + W);
      }
    }
    for (; i0 < m; ++i0) {
      float* crow = c + static_cast<std::size_t>(i0) * n + j0;
      V a0 = V::load(crow);
      V a1 = V::load(crow + W);
      for (int kk = 0; kk < k; ++kk) {
        const float av = a[static_cast<std::size_t>(kk) * m + i0];
        if (av == 0.0f) continue;
        const float* brow = b + static_cast<std::size_t>(kk) * n + j0;
        const V va = V::set1(av);
        a0 = a0 + va * V::load(brow);
        a1 = a1 + va * V::load(brow + W);
      }
      a0.store(crow);
      a1.store(crow + W);
    }
  }
  if (j0 < n) {
    for (int kk = 0; kk < k; ++kk) {
      const float* arow = a + static_cast<std::size_t>(kk) * m;
      const float* brow = b + static_cast<std::size_t>(kk) * n;
      for (int i = 0; i < m; ++i) {
        const float av = arow[i];
        if (av == 0.0f) continue;
        float* crow = c + static_cast<std::size_t>(i) * n;
        for (int j = j0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

}  // namespace dnj::simd::detail
