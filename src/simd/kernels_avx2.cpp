// AVX2 kernel table (8-wide float, 4-wide double). This is the only TU
// compiled with -mavx2 (CMake option DNJ_AVX2; DNJ_NATIVE swaps in
// -march=native); everything it defines is reached strictly through the
// runtime-dispatched function-pointer table after a cpuid check, so the
// rest of the binary stays baseline-portable.
//
// Determinism: same lane discipline as the SSE2 TU — and although
// -mavx2-era hardware has FMA, this TU never uses FMA intrinsics and
// builds with -ffp-contract=off, so the mul/add sequences stay exactly
// the scalar ones.
#include "simd/kernels.hpp"

#if defined(DNJ_SIMD_AVX2_TU) && defined(__AVX2__)

#include <immintrin.h>

#include <cstdint>

#include "image/color.hpp"
#include "image/image.hpp"
#include "jpeg/dct.hpp"
#include "jpeg/quant.hpp"
#include "simd/kernels_common.hpp"

namespace dnj::simd {

namespace {

using detail::kBlockDim;
using detail::kBlockSize;

struct V8 {
  __m256 v;
  static constexpr int kWidth = 8;
  static V8 load(const float* p) { return {_mm256_loadu_ps(p)}; }
  static V8 set1(float x) { return {_mm256_set1_ps(x)}; }
  void store(float* p) const { _mm256_storeu_ps(p, v); }
  /// Stores a0 b0 a1 b1 ... a7 b7.
  static void store_interleaved(float* p, V8 a, V8 b) {
    const __m256 lo = _mm256_unpacklo_ps(a.v, b.v);  // a0 b0 a1 b1 | a4 b4 a5 b5
    const __m256 hi = _mm256_unpackhi_ps(a.v, b.v);  // a2 b2 a3 b3 | a6 b6 a7 b7
    _mm256_storeu_ps(p, _mm256_permute2f128_ps(lo, hi, 0x20));
    _mm256_storeu_ps(p + 8, _mm256_permute2f128_ps(lo, hi, 0x31));
  }
  friend V8 operator+(V8 a, V8 b) { return {_mm256_add_ps(a.v, b.v)}; }
  friend V8 operator-(V8 a, V8 b) { return {_mm256_sub_ps(a.v, b.v)}; }
  friend V8 operator*(V8 a, V8 b) { return {_mm256_mul_ps(a.v, b.v)}; }
};

// ------------------------------------------------------------------- DCT

// Lane-parallel 4x4 transpose: _MM_TRANSPOSE4_PS applied to both 128-bit
// halves of four ymm registers at once (all ops are lane-local).
inline void transpose4x4_lanes(__m256& a, __m256& b, __m256& c, __m256& d) {
  const __m256 t0 = _mm256_unpacklo_ps(a, b);
  const __m256 t1 = _mm256_unpackhi_ps(a, b);
  const __m256 t2 = _mm256_unpacklo_ps(c, d);
  const __m256 t3 = _mm256_unpackhi_ps(c, d);
  a = _mm256_shuffle_ps(t0, t2, 0x44);
  b = _mm256_shuffle_ps(t0, t2, 0xEE);
  c = _mm256_shuffle_ps(t1, t3, 0x44);
  d = _mm256_shuffle_ps(t1, t3, 0xEE);
}

inline void butterfly_regs(__m256 r[8], const detail::AanConsts<V8>& consts) {
  V8 p[8];
  for (int i = 0; i < 8; ++i) p[i].v = r[i];
  detail::aan_butterfly(p, consts);
  for (int i = 0; i < 8; ++i) r[i] = p[i].v;
}

// One whole block in registers. Pass order matches the scalar fdct_8x8 —
// row pass (lanes = rows), column pass (lanes = columns), multiplicative
// descale — with the transposes arranged to spare the shuffle port, which
// is what bounds this kernel:
//
//  * transpose #1 runs its distance-4 (cross-lane) stage inside the loads:
//    m[i]/n[i] pair row i with row i+4 across the 128-bit lanes via
//    memory-form vinsertf128, which the load pipes handle; the remaining
//    stages are two lane-local 4x4 transposes.
//  * transpose #2 runs its lane-local stages first and needs only one
//    cross-lane permute stage at the end.
void fdct_batch_avx2(float* blocks, std::size_t count) {
  const float* descale = jpeg::aan_descale_table();
  const detail::AanConsts<V8> consts;  // butterfly constants hoisted off the loop
  for (std::size_t b = 0; b < count; ++b) {
    float* blk = blocks + b * kBlockSize;
    // m[i] = [row i cols 0-3 | row i+4 cols 0-3]; n[i] = the cols 4-7 half.
    __m256 m[4], n[4];
    for (int i = 0; i < 4; ++i) {
      m[i] = _mm256_insertf128_ps(_mm256_castps128_ps256(_mm_loadu_ps(blk + i * 8)),
                                  _mm_loadu_ps(blk + (i + 4) * 8), 1);
      n[i] = _mm256_insertf128_ps(
          _mm256_castps128_ps256(_mm_loadu_ps(blk + i * 8 + 4)),
          _mm_loadu_ps(blk + (i + 4) * 8 + 4), 1);
    }
    // Finish transpose #1: t[j] = column j of the block, lanes = rows 0..7.
    transpose4x4_lanes(m[0], m[1], m[2], m[3]);
    transpose4x4_lanes(n[0], n[1], n[2], n[3]);
    __m256 t[8] = {m[0], m[1], m[2], m[3], n[0], n[1], n[2], n[3]};
    butterfly_regs(t, consts);  // row pass
    // Transpose #2: after the lane-local stages, t[i] holds elements 0-3 of
    // rows (i, i+4) and t[i+4] holds their elements 4-7; one cross-lane
    // permute pair reassembles full rows.
    transpose4x4_lanes(t[0], t[1], t[2], t[3]);
    transpose4x4_lanes(t[4], t[5], t[6], t[7]);
    __m256 r[8];
    for (int i = 0; i < 4; ++i) {
      r[i] = _mm256_permute2f128_ps(t[i], t[i + 4], 0x20);
      r[i + 4] = _mm256_permute2f128_ps(t[i], t[i + 4], 0x31);
    }
    butterfly_regs(r, consts);  // column pass
    // Descale rows are re-loaded per block on purpose: hoisting them pins
    // eight ymm registers across the loop and the resulting spill traffic
    // costs more than the (L1-resident) reloads.
    for (int i = 0; i < 8; ++i)
      _mm256_storeu_ps(blk + i * 8,
                       _mm256_mul_ps(r[i], _mm256_loadu_ps(descale + i * 8)));
  }
}

void idct_batch_avx2(float* blocks, std::size_t count) {
  const float* m = jpeg::dct_basis_table();
  for (std::size_t b = 0; b < count; ++b)
    detail::idct_block_vec<V8>(blocks + b * kBlockSize, m);
}

// ---------------------------------------------------------- quant/dequant

void quantize_batch_avx2(const float* coeffs, std::size_t count, const float* recip,
                         std::int16_t* out) {
  const __m256 lo = _mm256_set1_ps(-32768.0f);
  const __m256 hi = _mm256_set1_ps(32767.0f);
  const __m256 bias = _mm256_set1_ps(12582912.0f);  // 1.5 * 2^23
  for (std::size_t b = 0; b < count; ++b) {
    const float* c = coeffs + b * kBlockSize;
    std::int16_t* q = out + b * kBlockSize;
    for (int k = 0; k < kBlockSize; k += 16) {
      __m256 v0 = _mm256_mul_ps(_mm256_loadu_ps(c + k), _mm256_loadu_ps(recip + k));
      __m256 v1 =
          _mm256_mul_ps(_mm256_loadu_ps(c + k + 8), _mm256_loadu_ps(recip + k + 8));
      v0 = _mm256_sub_ps(_mm256_add_ps(v0, bias), bias);  // round half to even
      v1 = _mm256_sub_ps(_mm256_add_ps(v1, bias), bias);
      v0 = _mm256_min_ps(_mm256_max_ps(v0, lo), hi);
      v1 = _mm256_min_ps(_mm256_max_ps(v1, lo), hi);
      const __m256i i0 = _mm256_cvtps_epi32(v0);  // exact: values are integral
      const __m256i i1 = _mm256_cvtps_epi32(v1);
      // packs interleaves the 128-bit lanes; permute restores linear order.
      const __m256i packed = _mm256_permute4x64_epi64(_mm256_packs_epi32(i0, i1),
                                                      _MM_SHUFFLE(3, 1, 2, 0));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + k), packed);
    }
  }
}

void dequantize_batch_avx2(const std::int16_t* quantized, std::size_t count,
                           const float* steps, float* coeffs) {
  for (std::size_t b = 0; b < count; ++b) {
    const std::int16_t* q = quantized + b * kBlockSize;
    float* c = coeffs + b * kBlockSize;
    for (int k = 0; k < kBlockSize; k += 8) {
      const __m256i w32 = _mm256_cvtepi16_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + k)));
      _mm256_storeu_ps(
          c + k, _mm256_mul_ps(_mm256_cvtepi32_ps(w32), _mm256_loadu_ps(steps + k)));
    }
  }
}

// ------------------------------------------------------------------ tiling

void tile_f32_avx2(const float* src, int w, int h, int grid_bx, int grid_by,
                   float* dst, float bias) {
  const __m256 vb = _mm256_set1_ps(bias);
  const int full_bx = w / kBlockDim;
  const int full_by = h / kBlockDim;
  for (int by = 0; by < grid_by; ++by) {
    for (int bx = 0; bx < grid_bx; ++bx) {
      float* blk = dst + (static_cast<std::size_t>(by) * grid_bx + bx) * kBlockSize;
      if (bx < full_bx && by < full_by) {
        const float* row = src + static_cast<std::size_t>(by) * kBlockDim * w +
                           static_cast<std::size_t>(bx) * kBlockDim;
        for (int y = 0; y < kBlockDim; ++y, row += w, blk += kBlockDim)
          _mm256_storeu_ps(blk, _mm256_add_ps(_mm256_loadu_ps(row), vb));
      } else {
        detail::tile_edge_block_f32(src, w, h, bx, by, blk, bias);
      }
    }
  }
}

void tile_u8_avx2(const std::uint8_t* src, int w, int h, int channels, int grid_bx,
                  int grid_by, float* dst, float bias) {
  const std::size_t row_stride = static_cast<std::size_t>(w) * channels;
  const __m256 vb = _mm256_set1_ps(bias);
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
            const __m256i w32 = _mm256_cvtepu8_epi32(
                _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row)));
            _mm256_storeu_ps(blk, _mm256_add_ps(_mm256_cvtepi32_ps(w32), vb));
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

void untile_f32_avx2(const float* src, int grid_bx, int grid_by, float* plane, int w,
                     int h, float bias) {
  (void)grid_by;  // grid height is implied by h; kept for signature symmetry
  const __m256 vb = _mm256_set1_ps(bias);
  for (int by = 0; by * kBlockDim < h; ++by) {
    const int ny = std::min(kBlockDim, h - by * kBlockDim);
    for (int bx = 0; bx * kBlockDim < w; ++bx) {
      const int nx = std::min(kBlockDim, w - bx * kBlockDim);
      const float* blk = src + (static_cast<std::size_t>(by) * grid_bx + bx) * kBlockSize;
      for (int y = 0; y < ny; ++y) {
        float* row = plane + static_cast<std::size_t>(by * kBlockDim + y) * w +
                     static_cast<std::size_t>(bx) * kBlockDim;
        if (nx == kBlockDim) {
          _mm256_storeu_ps(row, _mm256_add_ps(_mm256_loadu_ps(blk + y * kBlockDim), vb));
        } else {
          for (int x = 0; x < nx; ++x) row[x] = blk[y * kBlockDim + x] + bias;
        }
      }
    }
  }
}

// ------------------------------------------------------------------- color

// Deinterleaves eight RGB pixels (24 bytes) into R, G and B float lanes in
// registers. A 16-byte and an 8-byte load read exactly the 24 bytes; vpermd
// moves pixels 0-3 (bytes 0-11) into the low 128-bit lane and pixels 4-7
// (bytes 12-23) into the high one, and one vpshufb per channel zero-extends
// that channel's four bytes per lane to int32. u8 -> float is exact.
inline void load_rgb8(const std::uint8_t* rgb, __m256* r, __m256* g, __m256* b) {
  const __m256i bytes = _mm256_inserti128_si256(
      _mm256_castsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(rgb))),
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(rgb + 16)), 1);
  const __m256i px =
      _mm256_permutevar8x32_epi32(bytes, _mm256_setr_epi32(0, 1, 2, 0, 3, 4, 5, 0));
  const auto channel = [px](char o) {
    const __m256i pick = _mm256_setr_epi8(
        o, -1, -1, -1, static_cast<char>(o + 3), -1, -1, -1, static_cast<char>(o + 6), -1,
        -1, -1, static_cast<char>(o + 9), -1, -1, -1,  //
        o, -1, -1, -1, static_cast<char>(o + 3), -1, -1, -1, static_cast<char>(o + 6), -1,
        -1, -1, static_cast<char>(o + 9), -1, -1, -1);
    return _mm256_cvtepi32_ps(_mm256_shuffle_epi8(px, pick));
  };
  *r = channel(0);
  *g = channel(1);
  *b = channel(2);
}

void rgb_to_ycbcr_avx2(const std::uint8_t* rgb, std::size_t n, float* y, float* cb,
                       float* cr) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    V8 r, g, b;
    load_rgb8(rgb + i * 3, &r.v, &g.v, &b.v);
    V8 vy, vcb, vcr;
    detail::ycbcr_from_rgb_vec(r, g, b, &vy, &vcb, &vcr);
    vy.store(y + i);
    vcb.store(cb + i);
    vcr.store(cr + i);
  }
  for (; i < n; ++i) {
    const auto ycc = image::rgb_to_ycbcr(rgb[i * 3], rgb[i * 3 + 1], rgb[i * 3 + 2]);
    y[i] = ycc[0];
    cb[i] = ycc[1];
    cr[i] = ycc[2];
  }
}

// Walks one block column at a time: each of its eight rows is one
// load_rgb8, the transform and the bias add, and three 32-byte stores, so a
// block row goes straight from the pixels to the blocks with no float plane
// in between. Rows past h - 1 re-read the last row. Eight interleaved row
// streams are more than the hardware prefetcher follows on its own, so each
// row's pixels eight blocks ahead are prefetched.
void rgb_to_ycbcr_blocks_avx2(const std::uint8_t* rgb, int w, int h, int grid_bx, float* y,
                              float* cb, float* cr, float bias) {
  constexpr int kBlockBytes = kBlockDim * 3;  // one block row of RGB pixels
  constexpr int kPrefetchBlocks = 8;
  const std::uint8_t* rows[kBlockDim];
  for (int r = 0; r < kBlockDim; ++r)
    rows[r] = rgb + static_cast<std::size_t>(std::min(r, h - 1)) * w * 3;
  const V8 vb = V8::set1(bias);
  const int full_bx = std::min(w / kBlockDim, grid_bx);
  int bx = 0;
  for (; bx < full_bx; ++bx) {
    const std::size_t px = static_cast<std::size_t>(bx) * kBlockBytes;
    const std::size_t o = static_cast<std::size_t>(bx) * kBlockSize;
    for (int r = 0; r < kBlockDim; ++r) {
      // An integer address: it may lie past the image, which a prefetch
      // tolerates and pointer arithmetic does not.
      const std::uintptr_t ahead =
          reinterpret_cast<std::uintptr_t>(rows[r] + px) + kPrefetchBlocks * kBlockBytes;
      _mm_prefetch(reinterpret_cast<const char*>(ahead), _MM_HINT_T0);
      V8 vr, vg, vbl;
      load_rgb8(rows[r] + px, &vr.v, &vg.v, &vbl.v);
      V8 vy, vcb, vcr;
      detail::ycbcr_from_rgb_vec(vr, vg, vbl, &vy, &vcb, &vcr);
      (vy + vb).store(y + o + r * kBlockDim);
      (vcb + vb).store(cb + o + r * kBlockDim);
      (vcr + vb).store(cr + o + r * kBlockDim);
    }
  }
  for (; bx < grid_bx; ++bx) {
    const std::size_t o = static_cast<std::size_t>(bx) * kBlockSize;
    detail::rgb_to_ycbcr_block(rgb, w, h, bx, y + o, cb + o, cr + o, bias);
  }
}

// Rounds like image::clamp_u8 (nearbyint, clamp to [0, 255]) and returns
// the int32 lanes.
inline __m256i clamp_u8_vec(__m256 v) {
  const __m256 bias = _mm256_set1_ps(12582912.0f);
  v = _mm256_sub_ps(_mm256_add_ps(v, bias), bias);
  v = _mm256_min_ps(_mm256_max_ps(v, _mm256_setzero_ps()), _mm256_set1_ps(255.0f));
  return _mm256_cvtps_epi32(v);
}

// Interleaves eight pixels' R/G/B lanes (int32, already in [0, 255]) into
// 24 bytes without leaving registers: one 0x00BBGGRR word per pixel, the
// zero bytes dropped within each 128-bit lane, then the gap between the
// lanes closed so dwords 0-5 hold the 24 bytes.
inline void store_rgb8(std::uint8_t* rgb, __m256i r, __m256i g, __m256i b) {
  const __m256i px = _mm256_or_si256(
      r, _mm256_or_si256(_mm256_slli_epi32(g, 8), _mm256_slli_epi32(b, 16)));
  const __m256i squeeze =
      _mm256_setr_epi8(0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, -1, -1, -1, -1,  //
                       0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, -1, -1, -1, -1);
  const __m256i packed = _mm256_permutevar8x32_epi32(
      _mm256_shuffle_epi8(px, squeeze), _mm256_setr_epi32(0, 1, 2, 4, 5, 6, 3, 7));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(rgb), _mm256_castsi256_si128(packed));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(rgb + 16),
                   _mm256_extracti128_si256(packed, 1));
}

void ycbcr_to_rgb_row_avx2(const float* y, const float* cb, const float* cr, int n,
                           std::uint8_t* rgb) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    V8 vr, vg, vb;
    detail::rgb_from_ycbcr_vec(V8::load(y + i), V8::load(cb + i), V8::load(cr + i),
                               &vr, &vg, &vb);
    store_rgb8(rgb + i * 3, clamp_u8_vec(vr.v), clamp_u8_vec(vg.v), clamp_u8_vec(vb.v));
  }
  for (; i < n; ++i) {
    const auto px = image::ycbcr_to_rgb(y[i], cb[i], cr[i]);
    rgb[i * 3] = image::clamp_u8(px[0]);
    rgb[i * 3 + 1] = image::clamp_u8(px[1]);
    rgb[i * 3 + 2] = image::clamp_u8(px[2]);
  }
}

void upsample_h2_row_avx2(const float* in, int in_w, int out_w, float* out) {
  detail::upsample_h2_row_vec<V8>(in, in_w, out_w, out);
}

void lerp_rows_avx2(const float* top, const float* bot, float wy, int n, float* out) {
  detail::lerp_rows_vec<V8>(top, bot, wy, n, out);
}

void f32_to_u8_row_avx2(const float* src, int n, std::uint8_t* dst) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v = clamp_u8_vec(_mm256_loadu_ps(src + i));
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    const __m128i packed =
        _mm_packus_epi16(_mm_packs_epi32(lo, hi), _mm_setzero_si128());
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i), packed);
  }
  for (; i < n; ++i) dst[i] = image::clamp_u8(src[i]);
}

// ----------------------------------------------------------------- metrics

std::uint64_t sum_sq_diff_u8_avx2(const std::uint8_t* a, const std::uint8_t* b,
                                  std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;  // four uint64 lanes
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i va = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i vb = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    const __m256i d = _mm256_sub_epi16(va, vb);
    const __m256i s = _mm256_madd_epi16(d, d);  // 8 non-negative int32 lanes
    acc = _mm256_add_epi64(acc, _mm256_unpacklo_epi32(s, zero));
    acc = _mm256_add_epi64(acc, _mm256_unpackhi_epi32(s, zero));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::uint64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) {
    const int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
    sum += static_cast<std::uint64_t>(d * d);
  }
  return sum;
}

// ---------------------------------------------------------------- SA model

void quant_error_block_avx2(const float* block, const double* steps, double* sq) {
  for (int k = 0; k < kBlockSize; k += 4) {
    const __m256d c = _mm256_cvtps_pd(_mm_loadu_ps(block + k));
    const __m256d q = _mm256_loadu_pd(steps + k);
    const __m256d t = _mm256_div_pd(c, q);
    // round_pd in the default rounding mode == std::nearbyint.
    const __m256d r =
        _mm256_round_pd(t, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m256d rec = _mm256_mul_pd(r, q);
    const __m256d d = _mm256_sub_pd(c, rec);
    _mm256_storeu_pd(sq + k, _mm256_mul_pd(d, d));
  }
}

// -------------------------------------------------------------------- GEMM

void gemm_acc_avx2(const float* a, const float* b, float* c, int m, int k, int n) {
  detail::gemm_acc_vec<V8>(a, b, c, m, k, n);
}

void gemm_at_acc_avx2(const float* a, const float* b, float* c, int m, int k, int n) {
  detail::gemm_at_acc_vec<V8>(a, b, c, m, k, n);
}

// ------------------------------------------------------------- entropy I/O

void nonzero_masks_i16_avx2(const std::int16_t* blocks, std::size_t count,
                            std::uint64_t* masks) {
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t b = 0; b < count; ++b, blocks += kBlockSize) {
    std::uint64_t mask = 0;
    for (int i = 0; i < 2; ++i) {
      const __m256i lo =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(blocks + i * 32));
      const __m256i hi =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(blocks + i * 32 + 16));
      // Pack the zero-compares to one byte per int16 lane. packs works per
      // 128-bit lane, so permute the qwords back into linear byte order
      // before movemask. Pure integer compare, identical to scalar.
      __m256i z = _mm256_packs_epi16(_mm256_cmpeq_epi16(lo, zero),
                                     _mm256_cmpeq_epi16(hi, zero));
      z = _mm256_permute4x64_epi64(z, _MM_SHUFFLE(3, 1, 2, 0));
      const unsigned zeros = static_cast<unsigned>(_mm256_movemask_epi8(z));
      mask |= static_cast<std::uint64_t>(~zeros) << (i * 32);
    }
    masks[b] = mask;
  }
}

std::size_t stuff_bytes_avx2(const std::uint8_t* src, std::size_t n,
                             std::uint8_t* dst) {
  const __m256i ff = _mm256_set1_epi8(static_cast<char>(0xFF));
  std::size_t i = 0, o = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    // Optimistic bulk copy: `dst` has 2n capacity and o <= 2i, so the
    // 32-byte store stays in bounds even when the chunk is redone with
    // stuffing below.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + o), v);
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, ff)) == 0) {
      o += 32;
      continue;
    }
    for (std::size_t j = 0; j < 32; ++j) {
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

}  // namespace

const KernelTable* avx2_kernels() {
  static const KernelTable table = {
      &fdct_batch_avx2,
      &idct_batch_avx2,
      &quantize_batch_avx2,
      &dequantize_batch_avx2,
      &tile_f32_avx2,
      &tile_u8_avx2,
      &untile_f32_avx2,
      &rgb_to_ycbcr_avx2,
      &rgb_to_ycbcr_blocks_avx2,
      &ycbcr_to_rgb_row_avx2,
      &upsample_h2_row_avx2,
      &lerp_rows_avx2,
      &f32_to_u8_row_avx2,
      &sum_sq_diff_u8_avx2,
      &quant_error_block_avx2,
      &gemm_acc_avx2,
      &gemm_at_acc_avx2,
      &nonzero_masks_i16_avx2,
      &stuff_bytes_avx2,
      nullptr,  // crc32: the dispatcher installs the PCLMULQDQ fold
  };
  return &table;
}

}  // namespace dnj::simd

#else  // AVX2 TU not enabled

namespace dnj::simd {
const KernelTable* avx2_kernels() { return nullptr; }
}  // namespace dnj::simd

#endif
