// SSE2 kernel table (4-wide float, 2-wide double). SSE2 is the x86-64
// baseline ISA, so this TU needs no special compiler flags; it is the
// guaranteed-available SIMD floor on every x86-64 machine.
//
// Determinism: every kernel follows the lane discipline documented in
// dispatch.hpp — lanes are independent outputs executing the scalar
// operation sequence, reductions keep the scalar order, and no FMA is
// emitted (baseline codegen has none; the TU also builds with
// -ffp-contract=off).
#include "simd/kernels.hpp"

#if defined(__SSE2__)

#include <emmintrin.h>
#if defined(__GNUC__) || defined(__clang__)
#define DNJ_SIMD_PCLMUL 1
#include <wmmintrin.h>
#endif

#include <cstring>

#include "image/color.hpp"
#include "image/image.hpp"
#include "jpeg/dct.hpp"
#include "jpeg/quant.hpp"
#include "simd/kernels_common.hpp"

namespace dnj::simd {

namespace {

using detail::kBlockDim;
using detail::kBlockSize;

struct V4 {
  __m128 v;
  static constexpr int kWidth = 4;
  static V4 load(const float* p) { return {_mm_loadu_ps(p)}; }
  static V4 set1(float x) { return {_mm_set1_ps(x)}; }
  void store(float* p) const { _mm_storeu_ps(p, v); }
  /// Stores a0 b0 a1 b1 ... a3 b3.
  static void store_interleaved(float* p, V4 a, V4 b) {
    _mm_storeu_ps(p, _mm_unpacklo_ps(a.v, b.v));
    _mm_storeu_ps(p + 4, _mm_unpackhi_ps(a.v, b.v));
  }
  friend V4 operator+(V4 a, V4 b) { return {_mm_add_ps(a.v, b.v)}; }
  friend V4 operator-(V4 a, V4 b) { return {_mm_sub_ps(a.v, b.v)}; }
  friend V4 operator*(V4 a, V4 b) { return {_mm_mul_ps(a.v, b.v)}; }
};

// ------------------------------------------------------------------- DCT

// 8x8 transpose of a block held as r[row][half] (halves = columns 0-3 and
// 4-7): transpose the four 4x4 quadrants and swap the off-diagonal pair.
inline void transpose8x8(__m128 r[8][2]) {
  __m128 a0 = r[0][0], a1 = r[1][0], a2 = r[2][0], a3 = r[3][0];
  __m128 b0 = r[0][1], b1 = r[1][1], b2 = r[2][1], b3 = r[3][1];
  __m128 c0 = r[4][0], c1 = r[5][0], c2 = r[6][0], c3 = r[7][0];
  __m128 d0 = r[4][1], d1 = r[5][1], d2 = r[6][1], d3 = r[7][1];
  _MM_TRANSPOSE4_PS(a0, a1, a2, a3);
  _MM_TRANSPOSE4_PS(b0, b1, b2, b3);
  _MM_TRANSPOSE4_PS(c0, c1, c2, c3);
  _MM_TRANSPOSE4_PS(d0, d1, d2, d3);
  r[0][0] = a0, r[1][0] = a1, r[2][0] = a2, r[3][0] = a3;
  r[0][1] = c0, r[1][1] = c1, r[2][1] = c2, r[3][1] = c3;
  r[4][0] = b0, r[5][0] = b1, r[6][0] = b2, r[7][0] = b3;
  r[4][1] = d0, r[5][1] = d1, r[6][1] = d2, r[7][1] = d3;
}

inline void butterfly_halves(__m128 r[8][2]) {
  for (int h = 0; h < 2; ++h) {
    V4 p[8];
    for (int i = 0; i < 8; ++i) p[i].v = r[i][h];
    detail::aan_butterfly(p);
    for (int i = 0; i < 8; ++i) r[i][h] = p[i].v;
  }
}

// Same pass order as the scalar fdct_8x8: row pass (via transpose, lanes =
// rows), column pass (lanes = columns), multiplicative descale.
void fdct_batch_sse2(float* blocks, std::size_t count) {
  const float* descale = jpeg::aan_descale_table();
  for (std::size_t b = 0; b < count; ++b) {
    float* blk = blocks + b * kBlockSize;
    __m128 r[8][2];
    for (int i = 0; i < 8; ++i) {
      r[i][0] = _mm_loadu_ps(blk + i * 8);
      r[i][1] = _mm_loadu_ps(blk + i * 8 + 4);
    }
    transpose8x8(r);
    butterfly_halves(r);  // row pass
    transpose8x8(r);
    butterfly_halves(r);  // column pass
    for (int i = 0; i < 8; ++i) {
      r[i][0] = _mm_mul_ps(r[i][0], _mm_loadu_ps(descale + i * 8));
      r[i][1] = _mm_mul_ps(r[i][1], _mm_loadu_ps(descale + i * 8 + 4));
      _mm_storeu_ps(blk + i * 8, r[i][0]);
      _mm_storeu_ps(blk + i * 8 + 4, r[i][1]);
    }
  }
}

void idct_batch_sse2(float* blocks, std::size_t count) {
  const float* m = jpeg::dct_basis_table();
  for (std::size_t b = 0; b < count; ++b)
    detail::idct_block_vec<V4>(blocks + b * kBlockSize, m);
}

// ---------------------------------------------------------- quant/dequant

void quantize_batch_sse2(const float* coeffs, std::size_t count, const float* recip,
                         std::int16_t* out) {
  const __m128 lo = _mm_set1_ps(-32768.0f);
  const __m128 hi = _mm_set1_ps(32767.0f);
  const __m128 bias = _mm_set1_ps(12582912.0f);  // 1.5 * 2^23
  for (std::size_t b = 0; b < count; ++b) {
    const float* c = coeffs + b * kBlockSize;
    std::int16_t* q = out + b * kBlockSize;
    for (int k = 0; k < kBlockSize; k += 8) {
      __m128 v0 = _mm_mul_ps(_mm_loadu_ps(c + k), _mm_loadu_ps(recip + k));
      __m128 v1 = _mm_mul_ps(_mm_loadu_ps(c + k + 4), _mm_loadu_ps(recip + k + 4));
      v0 = _mm_sub_ps(_mm_add_ps(v0, bias), bias);  // round half to even
      v1 = _mm_sub_ps(_mm_add_ps(v1, bias), bias);
      v0 = _mm_min_ps(_mm_max_ps(v0, lo), hi);
      v1 = _mm_min_ps(_mm_max_ps(v1, lo), hi);
      const __m128i i0 = _mm_cvtps_epi32(v0);  // exact: values are integral
      const __m128i i1 = _mm_cvtps_epi32(v1);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(q + k), _mm_packs_epi32(i0, i1));
    }
  }
}

void dequantize_batch_sse2(const std::int16_t* quantized, std::size_t count,
                           const float* steps, float* coeffs) {
  for (std::size_t b = 0; b < count; ++b) {
    const std::int16_t* q = quantized + b * kBlockSize;
    float* c = coeffs + b * kBlockSize;
    for (int k = 0; k < kBlockSize; k += 8) {
      const __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + k));
      // Sign-extend the 8 int16 lanes into two int32 quads.
      const __m128i lo32 = _mm_srai_epi32(_mm_unpacklo_epi16(raw, raw), 16);
      const __m128i hi32 = _mm_srai_epi32(_mm_unpackhi_epi16(raw, raw), 16);
      _mm_storeu_ps(c + k,
                    _mm_mul_ps(_mm_cvtepi32_ps(lo32), _mm_loadu_ps(steps + k)));
      _mm_storeu_ps(c + k + 4,
                    _mm_mul_ps(_mm_cvtepi32_ps(hi32), _mm_loadu_ps(steps + k + 4)));
    }
  }
}

// ------------------------------------------------------------------ tiling

void tile_f32_sse2(const float* src, int w, int h, int grid_bx, int grid_by,
                   float* dst, float bias) {
  const __m128 vb = _mm_set1_ps(bias);
  const int full_bx = w / kBlockDim;
  const int full_by = h / kBlockDim;
  for (int by = 0; by < grid_by; ++by) {
    for (int bx = 0; bx < grid_bx; ++bx) {
      float* blk = dst + (static_cast<std::size_t>(by) * grid_bx + bx) * kBlockSize;
      if (bx < full_bx && by < full_by) {
        const float* row = src + static_cast<std::size_t>(by) * kBlockDim * w +
                           static_cast<std::size_t>(bx) * kBlockDim;
        for (int y = 0; y < kBlockDim; ++y, row += w, blk += kBlockDim) {
          _mm_storeu_ps(blk, _mm_add_ps(_mm_loadu_ps(row), vb));
          _mm_storeu_ps(blk + 4, _mm_add_ps(_mm_loadu_ps(row + 4), vb));
        }
      } else {
        detail::tile_edge_block_f32(src, w, h, bx, by, blk, bias);
      }
    }
  }
}

void tile_u8_sse2(const std::uint8_t* src, int w, int h, int channels, int grid_bx,
                  int grid_by, float* dst, float bias) {
  const std::size_t row_stride = static_cast<std::size_t>(w) * channels;
  const __m128 vb = _mm_set1_ps(bias);
  const __m128i zero = _mm_setzero_si128();
  const int full_bx = w / kBlockDim;
  const int full_by = h / kBlockDim;
  for (int by = 0; by < grid_by; ++by) {
    for (int bx = 0; bx < grid_bx; ++bx) {
      float* blk = dst + (static_cast<std::size_t>(by) * grid_bx + bx) * kBlockSize;
      if (bx < full_bx && by < full_by) {
        const std::uint8_t* row = src +
                                  static_cast<std::size_t>(by) * kBlockDim * row_stride +
                                  static_cast<std::size_t>(bx) * kBlockDim * channels;
        if (channels == 1) {
          for (int y = 0; y < kBlockDim; ++y, row += row_stride, blk += kBlockDim) {
            const __m128i bytes =
                _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row));
            const __m128i w16 = _mm_unpacklo_epi8(bytes, zero);
            const __m128i lo32 = _mm_unpacklo_epi16(w16, zero);
            const __m128i hi32 = _mm_unpackhi_epi16(w16, zero);
            _mm_storeu_ps(blk, _mm_add_ps(_mm_cvtepi32_ps(lo32), vb));
            _mm_storeu_ps(blk + 4, _mm_add_ps(_mm_cvtepi32_ps(hi32), vb));
          }
        } else {
          detail::tile_full_block_u8(row, row_stride, channels, blk, bias);
        }
      } else {
        detail::tile_edge_block_u8(src, w, h, channels, bx, by, blk, bias);
      }
    }
  }
}

void untile_f32_sse2(const float* src, int grid_bx, int grid_by, float* plane, int w,
                     int h, float bias) {
  (void)grid_by;  // grid height is implied by h; kept for signature symmetry
  const __m128 vb = _mm_set1_ps(bias);
  for (int by = 0; by * kBlockDim < h; ++by) {
    const int ny = std::min(kBlockDim, h - by * kBlockDim);
    for (int bx = 0; bx * kBlockDim < w; ++bx) {
      const int nx = std::min(kBlockDim, w - bx * kBlockDim);
      const float* blk = src + (static_cast<std::size_t>(by) * grid_bx + bx) * kBlockSize;
      for (int y = 0; y < ny; ++y) {
        float* row = plane + static_cast<std::size_t>(by * kBlockDim + y) * w +
                     static_cast<std::size_t>(bx) * kBlockDim;
        if (nx == kBlockDim) {
          _mm_storeu_ps(row, _mm_add_ps(_mm_loadu_ps(blk + y * kBlockDim), vb));
          _mm_storeu_ps(row + 4, _mm_add_ps(_mm_loadu_ps(blk + y * kBlockDim + 4), vb));
        } else {
          for (int x = 0; x < nx; ++x) row[x] = blk[y * kBlockDim + x] + bias;
        }
      }
    }
  }
}

// ------------------------------------------------------------------- color

// Three-way byte deinterleave of 16 RGB pixels (48 bytes, in a, f and b)
// into their 16 R, G and B bytes, in registers. SSE2 has no pshufb, so this
// follows libjpeg-turbo's jccolext-sse2: three rounds of shift-and-unpack
// each halve the channel stride, leaving every channel's even and odd
// pixels in separate halves, and one unpack per channel restores pixel
// order. In the comments XY is channel X (0 = R, 1 = G, 2 = B) of pixel Y.
inline void deinterleave_rgb16(__m128i a, __m128i f, __m128i b, __m128i* r, __m128i* g,
                               __m128i* bl) {
  // In:      a = (00 10 20 01 11 21 02 12 22 03 13 23 04 14 24 05)
  //           f = (15 25 06 16 26 07 17 27 08 18 28 09 19 29 0A 1A)
  //           b = (2A 0B 1B 2B 0C 1C 2C 0D 1D 2D 0E 1E 2E 0F 1F 2F)
  __m128i t = _mm_srli_si128(a, 8);
  a = _mm_unpackhi_epi8(_mm_slli_si128(a, 8), f);
  t = _mm_unpacklo_epi8(t, b);
  f = _mm_unpackhi_epi8(_mm_slli_si128(f, 8), b);
  // Round 1: a = (00 08 10 18 20 28 01 09 11 19 21 29 02 0A 12 1A)
  //          t = (22 2A 03 0B 13 1B 23 2B 04 0C 14 1C 24 2C 05 0D)
  //          f = (15 1D 25 2D 06 0E 16 1E 26 2E 07 0F 17 1F 27 2F)
  __m128i d = _mm_srli_si128(a, 8);
  a = _mm_unpackhi_epi8(_mm_slli_si128(a, 8), t);
  d = _mm_unpacklo_epi8(d, f);
  t = _mm_unpackhi_epi8(_mm_slli_si128(t, 8), f);
  // Round 2: a = (00 04 08 0C 10 14 18 1C 20 24 28 2C 01 05 09 0D)
  //          d = (11 15 19 1D 21 25 29 2D 02 06 0A 0E 12 16 1A 1E)
  //          t = (22 26 2A 2E 03 07 0B 0F 13 17 1B 1F 23 27 2B 2F)
  __m128i e = _mm_srli_si128(a, 8);
  a = _mm_unpackhi_epi8(_mm_slli_si128(a, 8), d);
  e = _mm_unpacklo_epi8(e, t);
  d = _mm_unpackhi_epi8(_mm_slli_si128(d, 8), t);
  // Round 3: a = (00 02 04 06 08 0A 0C 0E 10 12 14 16 18 1A 1C 1E)
  //          e = (20 22 24 26 28 2A 2C 2E 01 03 05 07 09 0B 0D 0F)
  //          d = (11 13 15 17 19 1B 1D 1F 21 23 25 27 29 2B 2D 2F)
  *r = _mm_unpacklo_epi8(a, _mm_srli_si128(e, 8));
  *g = _mm_unpacklo_epi8(_mm_srli_si128(a, 8), d);
  *bl = _mm_unpacklo_epi8(e, _mm_srli_si128(d, 8));
}

// Zero-extends 16 bytes to four float vectors (u8 -> float is exact).
inline void widen_u8x16(__m128i v, V4 out[4]) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i lo = _mm_unpacklo_epi8(v, zero);
  const __m128i hi = _mm_unpackhi_epi8(v, zero);
  out[0].v = _mm_cvtepi32_ps(_mm_unpacklo_epi16(lo, zero));
  out[1].v = _mm_cvtepi32_ps(_mm_unpackhi_epi16(lo, zero));
  out[2].v = _mm_cvtepi32_ps(_mm_unpacklo_epi16(hi, zero));
  out[3].v = _mm_cvtepi32_ps(_mm_unpackhi_epi16(hi, zero));
}

// Y/Cb/Cr of N = 16 or 8 consecutive RGB pixels, as N / 4 vectors each
// (lanes = pixels). Reads exactly 3 * N bytes: for 8 pixels, a 16-byte and
// an 8-byte load, with the third register zero.
template <int N>
inline void ycbcr_from_rgb_sse2(const std::uint8_t* rgb, V4 y[], V4 cb[], V4 cr[]) {
  static_assert(N == 16 || N == 8, "16 or 8 pixels");
  const auto* p = reinterpret_cast<const __m128i*>(rgb);
  __m128i r8, g8, b8;
  deinterleave_rgb16(_mm_loadu_si128(p),
                     N == 16 ? _mm_loadu_si128(p + 1)
                             : _mm_loadl_epi64(reinterpret_cast<const __m128i*>(rgb + 16)),
                     N == 16 ? _mm_loadu_si128(p + 2) : _mm_setzero_si128(), &r8, &g8, &b8);
  V4 r[4], g[4], b[4];
  widen_u8x16(r8, r);
  widen_u8x16(g8, g);
  widen_u8x16(b8, b);
  for (int q = 0; q < N / 4; ++q)
    detail::ycbcr_from_rgb_vec(r[q], g[q], b[q], &y[q], &cb[q], &cr[q]);
}

void rgb_to_ycbcr_sse2(const std::uint8_t* rgb, std::size_t n, float* y, float* cb,
                       float* cr) {
  V4 vy[4], vcb[4], vcr[4];
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    ycbcr_from_rgb_sse2<16>(rgb + i * 3, vy, vcb, vcr);
    for (int q = 0; q < 4; ++q) {
      vy[q].store(y + i + 4 * q);
      vcb[q].store(cb + i + 4 * q);
      vcr[q].store(cr + i + 4 * q);
    }
  }
  if (i + 8 <= n) {
    ycbcr_from_rgb_sse2<8>(rgb + i * 3, vy, vcb, vcr);
    for (int q = 0; q < 2; ++q) {
      vy[q].store(y + i + 4 * q);
      vcb[q].store(cb + i + 4 * q);
      vcr[q].store(cr + i + 4 * q);
    }
    i += 8;
  }
  for (; i < n; ++i) {
    const auto ycc = image::rgb_to_ycbcr(rgb[i * 3], rgb[i * 3 + 1], rgb[i * 3 + 2]);
    y[i] = ycc[0];
    cb[i] = ycc[1];
    cr[i] = ycc[2];
  }
}

// Block columns bx .. bx + N / 8 - 1 of rgb_to_ycbcr_blocks: each of the
// eight rows converts N pixels, whose four-lane groups land in the rows of
// consecutive blocks.
template <int N>
inline void rgb_block_columns_sse2(const std::uint8_t* const rows[kBlockDim], int bx,
                                   float* y, float* cb, float* cr, V4 bias) {
  for (int r = 0; r < kBlockDim; ++r) {
    V4 vy[4], vcb[4], vcr[4];
    ycbcr_from_rgb_sse2<N>(rows[r] + static_cast<std::size_t>(bx) * kBlockDim * 3, vy, vcb,
                           vcr);
    for (int q = 0; q < N / 4; ++q) {
      const std::size_t o = static_cast<std::size_t>(bx + q / 2) * kBlockSize +
                            static_cast<std::size_t>(r * kBlockDim + (q & 1) * 4);
      (vy[q] + bias).store(y + o);
      (vcb[q] + bias).store(cb + o);
      (vcr[q] + bias).store(cr + o);
    }
  }
}

void rgb_to_ycbcr_blocks_sse2(const std::uint8_t* rgb, int w, int h, int grid_bx, float* y,
                              float* cb, float* cr, float bias) {
  const std::uint8_t* rows[kBlockDim];
  for (int r = 0; r < kBlockDim; ++r)
    rows[r] = rgb + static_cast<std::size_t>(std::min(r, h - 1)) * w * 3;
  const V4 vb = V4::set1(bias);
  const int full_bx = std::min(w / kBlockDim, grid_bx);
  int bx = 0;
  for (; bx + 2 <= full_bx; bx += 2) rgb_block_columns_sse2<16>(rows, bx, y, cb, cr, vb);
  if (bx < full_bx) rgb_block_columns_sse2<8>(rows, bx++, y, cb, cr, vb);
  for (; bx < grid_bx; ++bx) {
    const std::size_t o = static_cast<std::size_t>(bx) * kBlockSize;
    detail::rgb_to_ycbcr_block(rgb, w, h, bx, y + o, cb + o, cr + o, bias);
  }
}

// Rounds like image::clamp_u8 (nearbyint, clamp to [0, 255]) and returns
// the int32 lanes.
inline __m128i clamp_u8_vec(__m128 v) {
  const __m128 bias = _mm_set1_ps(12582912.0f);
  v = _mm_sub_ps(_mm_add_ps(v, bias), bias);
  v = _mm_min_ps(_mm_max_ps(v, _mm_setzero_ps()), _mm_set1_ps(255.0f));
  return _mm_cvtps_epi32(v);
}

// Interleaves four pixels' R/G/B lanes (int32, already in [0, 255]) into
// 12 bytes without leaving registers: one 0x00BBGGRR word per pixel, each
// 64-bit lane (two words) squeezed to 6 bytes, then the two lanes joined.
inline void store_rgb4(std::uint8_t* rgb, __m128i r, __m128i g, __m128i b) {
  const __m128i px =
      _mm_or_si128(r, _mm_or_si128(_mm_slli_epi32(g, 8), _mm_slli_epi32(b, 16)));
  // Per 64-bit lane: p0 | p1 << 32  ->  p0 | p1 << 24.
  const __m128i six =
      _mm_or_si128(_mm_and_si128(px, _mm_set1_epi64x(0xFFFFFFFFLL)),
                   _mm_and_si128(_mm_srli_epi64(px, 8), _mm_set1_epi64x(0xFFFFFF000000LL)));
  const __m128i hi = _mm_srli_si128(six, 8);  // pixels 2-3 in the low lane
  _mm_storel_epi64(reinterpret_cast<__m128i*>(rgb), _mm_or_si128(six, _mm_slli_epi64(hi, 48)));
  const std::int32_t tail = _mm_cvtsi128_si32(_mm_srli_epi64(hi, 16));
  std::memcpy(rgb + 8, &tail, sizeof(tail));
}

void ycbcr_to_rgb_row_sse2(const float* y, const float* cb, const float* cr, int n,
                           std::uint8_t* rgb) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    V4 vr, vg, vb;
    detail::rgb_from_ycbcr_vec(V4::load(y + i), V4::load(cb + i), V4::load(cr + i),
                               &vr, &vg, &vb);
    store_rgb4(rgb + i * 3, clamp_u8_vec(vr.v), clamp_u8_vec(vg.v), clamp_u8_vec(vb.v));
  }
  for (; i < n; ++i) {
    const auto px = image::ycbcr_to_rgb(y[i], cb[i], cr[i]);
    rgb[i * 3] = image::clamp_u8(px[0]);
    rgb[i * 3 + 1] = image::clamp_u8(px[1]);
    rgb[i * 3 + 2] = image::clamp_u8(px[2]);
  }
}

void upsample_h2_row_sse2(const float* in, int in_w, int out_w, float* out) {
  detail::upsample_h2_row_vec<V4>(in, in_w, out_w, out);
}

void lerp_rows_sse2(const float* top, const float* bot, float wy, int n, float* out) {
  detail::lerp_rows_vec<V4>(top, bot, wy, n, out);
}

void f32_to_u8_row_sse2(const float* src, int n, std::uint8_t* dst) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i lo = clamp_u8_vec(_mm_loadu_ps(src + i));
    const __m128i hi = clamp_u8_vec(_mm_loadu_ps(src + i + 4));
    const __m128i packed = _mm_packus_epi16(_mm_packs_epi32(lo, hi), _mm_setzero_si128());
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i), packed);
  }
  for (; i < n; ++i) dst[i] = image::clamp_u8(src[i]);
}

// ----------------------------------------------------------------- metrics

std::uint64_t sum_sq_diff_u8_sse2(const std::uint8_t* a, const std::uint8_t* b,
                                  std::size_t n) {
  const __m128i zero = _mm_setzero_si128();
  __m128i acc = zero;  // two uint64 lanes
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    const __m128i d0 = _mm_sub_epi16(_mm_unpacklo_epi8(va, zero),
                                     _mm_unpacklo_epi8(vb, zero));
    const __m128i d1 = _mm_sub_epi16(_mm_unpackhi_epi8(va, zero),
                                     _mm_unpackhi_epi8(vb, zero));
    // madd sums adjacent squared diffs into non-negative int32 lanes;
    // zero-extend those into the uint64 accumulator. Integer arithmetic is
    // exact, so any accumulation order matches scalar.
    const __m128i s0 = _mm_madd_epi16(d0, d0);
    const __m128i s1 = _mm_madd_epi16(d1, d1);
    acc = _mm_add_epi64(acc, _mm_unpacklo_epi32(s0, zero));
    acc = _mm_add_epi64(acc, _mm_unpackhi_epi32(s0, zero));
    acc = _mm_add_epi64(acc, _mm_unpacklo_epi32(s1, zero));
    acc = _mm_add_epi64(acc, _mm_unpackhi_epi32(s1, zero));
  }
  alignas(16) std::uint64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
  std::uint64_t sum = lanes[0] + lanes[1];
  for (; i < n; ++i) {
    const int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
    sum += static_cast<std::uint64_t>(d * d);
  }
  return sum;
}

// ---------------------------------------------------------------- SA model

void quant_error_block_sse2(const float* block, const double* steps, double* sq) {
  // Round-to-nearest-even via the 2^52 bias trick — matches std::nearbyint
  // for |x| < 2^51, far beyond any DCT coefficient / step ratio.
  const __m128d bias = _mm_set1_pd(6755399441055744.0);  // 1.5 * 2^52
  for (int k = 0; k < kBlockSize; k += 2) {
    // 8-byte load through the may_alias __m128i intrinsic — _mm_load_sd
    // would dereference the floats as a double and trip TBAA.
    const __m128d c = _mm_cvtps_pd(_mm_castsi128_ps(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(block + k))));
    const __m128d q = _mm_loadu_pd(steps + k);
    const __m128d t = _mm_div_pd(c, q);
    const __m128d r = _mm_sub_pd(_mm_add_pd(t, bias), bias);
    const __m128d rec = _mm_mul_pd(r, q);
    const __m128d d = _mm_sub_pd(c, rec);
    _mm_storeu_pd(sq + k, _mm_mul_pd(d, d));
  }
}

// -------------------------------------------------------------------- GEMM

void gemm_acc_sse2(const float* a, const float* b, float* c, int m, int k, int n) {
  detail::gemm_acc_vec<V4>(a, b, c, m, k, n);
}

void gemm_at_acc_sse2(const float* a, const float* b, float* c, int m, int k, int n) {
  detail::gemm_at_acc_vec<V4>(a, b, c, m, k, n);
}

// ------------------------------------------------------------- entropy I/O

void nonzero_masks_i16_sse2(const std::int16_t* blocks, std::size_t count,
                            std::uint64_t* masks) {
  const __m128i zero = _mm_setzero_si128();
  for (std::size_t b = 0; b < count; ++b, blocks += kBlockSize) {
    std::uint64_t mask = 0;
    for (int i = 0; i < 4; ++i) {
      const __m128i lo =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + i * 16));
      const __m128i hi =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + i * 16 + 8));
      // Zero lanes compare to 0xFFFF; packing the two compares yields one
      // 0xFF/0x00 byte per int16 lane, movemask extracts those to bits and
      // the complement is the nonzero mask. Pure integer compare: identical
      // to the scalar predicate for every input.
      const __m128i z =
          _mm_packs_epi16(_mm_cmpeq_epi16(lo, zero), _mm_cmpeq_epi16(hi, zero));
      const unsigned zeros = static_cast<unsigned>(_mm_movemask_epi8(z));
      mask |= static_cast<std::uint64_t>(~zeros & 0xFFFFu) << (i * 16);
    }
    masks[b] = mask;
  }
}

std::size_t stuff_bytes_sse2(const std::uint8_t* src, std::size_t n,
                             std::uint8_t* dst) {
  const __m128i ff = _mm_set1_epi8(static_cast<char>(0xFF));
  std::size_t i = 0, o = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    // Optimistic bulk copy: `dst` has 2n capacity and o <= 2i, so the
    // 16-byte store stays in bounds even when the chunk is redone with
    // stuffing below.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + o), v);
    if (_mm_movemask_epi8(_mm_cmpeq_epi8(v, ff)) == 0) {
      o += 16;
      continue;
    }
    for (std::size_t j = 0; j < 16; ++j) {
      const std::uint8_t b = src[i + j];
      dst[o++] = b;
      if (b == 0xFF) dst[o++] = 0x00;
    }
  }
  for (; i < n; ++i) {
    const std::uint8_t b = src[i];
    dst[o++] = b;
    if (b == 0xFF) dst[o++] = 0x00;
  }
  return o;
}

#if defined(DNJ_SIMD_PCLMUL)

// One fold step of the CRC below: acc.lo * k.lo ^ acc.hi * k.hi ^ next
// moves `acc` forward by the distance k encodes and adds the next block.
__attribute__((target("pclmul"))) inline __m128i clmul_fold(__m128i acc, __m128i k,
                                                          __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

// CRC-32 by carry-less multiplication: Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009. Four
// 128-bit accumulators fold 64 bytes per step, collapse into one, fold the
// remaining 16-byte blocks, and a Barrett reduction takes 128 bits to the
// 32-bit CRC. The constants are the paper's bit-reflected k1..k5, the
// polynomial P' and mu. Only these two functions carry the pclmul target,
// so the TU stays baseline; the result leaves through an SSE2 byte shift,
// not SSE4.1's pextrd. Short inputs and the sub-16-byte tail take
// slice-by-8.
__attribute__((target("pclmul"))) std::uint32_t crc32_pclmul(std::uint32_t crc,
                                                           const std::uint8_t* p,
                                                           std::size_t n) {
  if (n < 64) return detail::crc32_slice8(crc, p, n);
  const auto load = [](const std::uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_set_epi32(0, -1, 0, -1);

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(~crc)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = clmul_fold(x1, k1k2, load(p));
    x2 = clmul_fold(x2, k1k2, load(p + 16));
    x3 = clmul_fold(x3, k1k2, load(p + 32));
    x4 = clmul_fold(x4, k1k2, load(p + 48));
  }
  x1 = clmul_fold(x1, k3k4, x2);
  x1 = clmul_fold(x1, k3k4, x3);
  x1 = clmul_fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = clmul_fold(x1, k3k4, load(p));

  // 128 -> 64 bits, then 64 -> 32 bits, then the Barrett reduction.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  x1 = _mm_xor_si128(x1, t);
  const auto folded =
      static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
  return detail::crc32_slice8(~folded, p, n);
}

#endif  // DNJ_SIMD_PCLMUL

}  // namespace

decltype(KernelTable::crc32) crc32_pclmul_kernel() {
#if defined(DNJ_SIMD_PCLMUL)
  return &crc32_pclmul;
#else
  return nullptr;
#endif
}

const KernelTable* sse2_kernels() {
  static const KernelTable table = {
      &fdct_batch_sse2,
      &idct_batch_sse2,
      &quantize_batch_sse2,
      &dequantize_batch_sse2,
      &tile_f32_sse2,
      &tile_u8_sse2,
      &untile_f32_sse2,
      &rgb_to_ycbcr_sse2,
      &rgb_to_ycbcr_blocks_sse2,
      &ycbcr_to_rgb_row_sse2,
      &upsample_h2_row_sse2,
      &lerp_rows_sse2,
      &f32_to_u8_row_sse2,
      &sum_sq_diff_u8_sse2,
      &quant_error_block_sse2,
      &gemm_acc_sse2,
      &gemm_at_acc_sse2,
      &nonzero_masks_i16_sse2,
      &stuff_bytes_sse2,
      nullptr,  // crc32: the dispatcher installs the PCLMULQDQ fold
  };
  return &table;
}

}  // namespace dnj::simd

#else  // !__SSE2__

namespace dnj::simd {
const KernelTable* sse2_kernels() { return nullptr; }
decltype(KernelTable::crc32) crc32_pclmul_kernel() { return nullptr; }
}  // namespace dnj::simd

#endif
