// Scalar kernel table — the fallback floor and the bit-exactness oracle
// every SIMD level is tested against. The arithmetic is shared with the
// per-block reference paths (jpeg::fdct_aan / jpeg::quantize_coeff /
// image::rgb_to_ycbcr / image::clamp_u8), so "pipeline at level scalar"
// and "per-block reference" remain byte-identical by construction.
#include <cmath>
#include <cstdint>

#include "image/color.hpp"
#include "image/image.hpp"
#include "jpeg/dct.hpp"
#include "jpeg/quant.hpp"
#include "simd/kernels.hpp"
#include "simd/kernels_common.hpp"

namespace dnj::simd {

namespace {

using detail::kBlockDim;
using detail::kBlockSize;

void quantize_batch_scalar(const float* coeffs, std::size_t count, const float* recip,
                           std::int16_t* out) {
  // Per coefficient this is the exact arithmetic of quantize_coeff, so the
  // output matches the per-block quantize() path bit for bit.
  for (std::size_t b = 0; b < count; ++b) {
    const float* c = coeffs + b * kBlockSize;
    std::int16_t* q = out + b * kBlockSize;
    for (int k = 0; k < kBlockSize; ++k) q[k] = jpeg::quantize_coeff(c[k], recip[k]);
  }
}

void dequantize_batch_scalar(const std::int16_t* quantized, std::size_t count,
                             const float* steps, float* coeffs) {
  for (std::size_t b = 0; b < count; ++b) {
    const std::int16_t* q = quantized + b * kBlockSize;
    float* c = coeffs + b * kBlockSize;
    for (int k = 0; k < kBlockSize; ++k) c[k] = static_cast<float>(q[k]) * steps[k];
  }
}

void tile_f32_scalar(const float* src, int w, int h, int grid_bx, int grid_by,
                     float* dst, float bias) {
  // Blocks fully inside the plane take the fast row-copy path; blocks that
  // touch the right/bottom edge replicate the last row/column.
  const int full_bx = w / kBlockDim;  // blocks with all 8 columns in-plane
  const int full_by = h / kBlockDim;
  for (int by = 0; by < grid_by; ++by) {
    for (int bx = 0; bx < grid_bx; ++bx) {
      float* blk = dst + (static_cast<std::size_t>(by) * grid_bx + bx) * kBlockSize;
      if (bx < full_bx && by < full_by) {
        const float* row = src + static_cast<std::size_t>(by) * kBlockDim * w +
                           static_cast<std::size_t>(bx) * kBlockDim;
        for (int y = 0; y < kBlockDim; ++y, row += w, blk += kBlockDim)
          for (int x = 0; x < kBlockDim; ++x) blk[x] = row[x] + bias;
      } else {
        detail::tile_edge_block_f32(src, w, h, bx, by, blk, bias);
      }
    }
  }
}

void tile_u8_scalar(const std::uint8_t* src, int w, int h, int channels, int grid_bx,
                    int grid_by, float* dst, float bias) {
  const std::size_t row_stride = static_cast<std::size_t>(w) * channels;
  const int full_bx = w / kBlockDim;
  const int full_by = h / kBlockDim;
  for (int by = 0; by < grid_by; ++by) {
    for (int bx = 0; bx < grid_bx; ++bx) {
      float* blk = dst + (static_cast<std::size_t>(by) * grid_bx + bx) * kBlockSize;
      if (bx < full_bx && by < full_by) {
        const std::uint8_t* row = src +
                                  static_cast<std::size_t>(by) * kBlockDim * row_stride +
                                  static_cast<std::size_t>(bx) * kBlockDim * channels;
        for (int y = 0; y < kBlockDim; ++y, row += row_stride, blk += kBlockDim)
          for (int x = 0; x < kBlockDim; ++x)
            blk[x] = static_cast<float>(row[static_cast<std::size_t>(x) * channels]) +
                     bias;
      } else {
        detail::tile_edge_block_u8(src, w, h, channels, bx, by, blk, bias);
      }
    }
  }
}

void untile_f32_scalar(const float* src, int grid_bx, int grid_by, float* plane, int w,
                       int h, float bias) {
  (void)grid_by;  // grid height is implied by h; kept for signature symmetry
  for (int by = 0; by * kBlockDim < h; ++by) {
    const int ny = std::min(kBlockDim, h - by * kBlockDim);
    for (int bx = 0; bx * kBlockDim < w; ++bx) {
      const int nx = std::min(kBlockDim, w - bx * kBlockDim);
      const float* blk = src + (static_cast<std::size_t>(by) * grid_bx + bx) * kBlockSize;
      for (int y = 0; y < ny; ++y) {
        float* row = plane + static_cast<std::size_t>(by * kBlockDim + y) * w +
                     static_cast<std::size_t>(bx) * kBlockDim;
        for (int x = 0; x < nx; ++x) row[x] = blk[y * kBlockDim + x] + bias;
      }
    }
  }
}

void rgb_to_ycbcr_scalar(const std::uint8_t* rgb, std::size_t n, float* y, float* cb,
                         float* cr) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto ycc = image::rgb_to_ycbcr(rgb[i * 3], rgb[i * 3 + 1], rgb[i * 3 + 2]);
    y[i] = ycc[0];
    cb[i] = ycc[1];
    cr[i] = ycc[2];
  }
}

void rgb_to_ycbcr_blocks_scalar(const std::uint8_t* rgb, int w, int h, int grid_bx,
                                float* y, float* cb, float* cr, float bias) {
  for (int bx = 0; bx < grid_bx; ++bx) {
    const std::size_t o = static_cast<std::size_t>(bx) * kBlockSize;
    detail::rgb_to_ycbcr_block(rgb, w, h, bx, y + o, cb + o, cr + o, bias);
  }
}

void ycbcr_to_rgb_row_scalar(const float* y, const float* cb, const float* cr, int n,
                             std::uint8_t* rgb) {
  for (int i = 0; i < n; ++i) {
    const auto px = image::ycbcr_to_rgb(y[i], cb[i], cr[i]);
    rgb[i * 3] = image::clamp_u8(px[0]);
    rgb[i * 3 + 1] = image::clamp_u8(px[1]);
    rgb[i * 3 + 2] = image::clamp_u8(px[2]);
  }
}

void upsample_h2_row_scalar(const float* in, int in_w, int out_w, float* out) {
  for (int x = 0; x < out_w; ++x) out[x] = detail::upsample_h2_sample(in, in_w, x);
}

void lerp_rows_scalar(const float* top, const float* bot, float wy, int n, float* out) {
  const float wt = 1.0f - wy;
  for (int i = 0; i < n; ++i) out[i] = top[i] * wt + bot[i] * wy;
}

void f32_to_u8_row_scalar(const float* src, int n, std::uint8_t* dst) {
  for (int i = 0; i < n; ++i) dst[i] = image::clamp_u8(src[i]);
}

std::uint64_t sum_sq_diff_u8_scalar(const std::uint8_t* a, const std::uint8_t* b,
                                    std::size_t n) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
    sum += static_cast<std::uint64_t>(d * d);
  }
  return sum;
}

void quant_error_block_scalar(const float* block, const double* steps, double* sq) {
  for (int k = 0; k < kBlockSize; ++k) {
    const double q = steps[k];
    const double c = block[k];
    const double rec = std::nearbyint(c / q) * q;
    sq[k] = (c - rec) * (c - rec);
  }
}

// C[M x N] += A[M x K] * B[K x N]; row-major, ikj order for locality.
void gemm_acc_scalar(const float* a, const float* b, float* c, int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// C[M x N] += A^T * B with A stored [K x M] (k-major).
void gemm_at_acc_scalar(const float* a, const float* b, float* c, int m, int k,
                        int n) {
  for (int kk = 0; kk < k; ++kk) {
    const float* arow = a + static_cast<std::size_t>(kk) * m;
    const float* brow = b + static_cast<std::size_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void nonzero_masks_i16_scalar(const std::int16_t* blocks, std::size_t count,
                              std::uint64_t* masks) {
  for (std::size_t b = 0; b < count; ++b, blocks += kBlockSize) {
    std::uint64_t mask = 0;
    for (int k = 0; k < kBlockSize; ++k)
      if (blocks[k] != 0) mask |= 1ull << k;
    masks[b] = mask;
  }
}

std::size_t stuff_bytes_scalar(const std::uint8_t* src, std::size_t n,
                               std::uint8_t* dst) {
  std::size_t o = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t b = src[i];
    dst[o++] = b;
    if (b == 0xFF) dst[o++] = 0x00;
  }
  return o;
}

}  // namespace

const KernelTable* scalar_kernels() {
  static const KernelTable table = {
      &jpeg::fdct_batch_scalar,
      &jpeg::idct_batch_scalar,
      &quantize_batch_scalar,
      &dequantize_batch_scalar,
      &tile_f32_scalar,
      &tile_u8_scalar,
      &untile_f32_scalar,
      &rgb_to_ycbcr_scalar,
      &rgb_to_ycbcr_blocks_scalar,
      &ycbcr_to_rgb_row_scalar,
      &upsample_h2_row_scalar,
      &lerp_rows_scalar,
      &f32_to_u8_row_scalar,
      &sum_sq_diff_u8_scalar,
      &quant_error_block_scalar,
      &gemm_acc_scalar,
      &gemm_at_acc_scalar,
      &nonzero_masks_i16_scalar,
      &stuff_bytes_scalar,
      &detail::crc32_slice8,
  };
  return &table;
}

}  // namespace dnj::simd
