// Runtime-dispatched SIMD kernel layer.
//
// Every hot loop of the codec pipeline, the NN GEMM and the wire CRC
// funnels through one per-kernel function-pointer table that is resolved
// once at startup: cpuid-style feature detection picks the widest
// supported level, the `DNJ_SIMD` environment variable
// (`auto|scalar|sse2|avx2`) or the `set_level()` API can pin a narrower
// one, and unsupported/absent levels fall back per kernel to the next
// level down (avx2 -> sse2 -> scalar). One kernel needs a feature no level
// implies: the CRC-32 fold runs only where cpuid also reports PCLMULQDQ.
//
// The determinism contract: every vector lane executes the exact scalar
// operation sequence. Kernels vectorize across independent outputs (blocks
// of the SoA coefficient plane, output columns of a GEMM, pixels of a row)
// and never reassociate a scalar reduction or contract mul+add into FMA
// (the kernel TUs build with -ffp-contract=off). Consequently scalar,
// SSE2 and AVX2 produce bit-identical encoded streams, SA costs, metrics
// and trained weights — pinned by tests/test_simd_kernels.cpp and
// tests/test_simd_determinism.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dnj::simd {

enum class Level : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Lower-case name ("scalar", "sse2", "avx2") for logs, benches and JSON.
const char* level_name(Level level);

/// Parses "scalar"/"sse2"/"avx2" (as accepted by DNJ_SIMD). Returns false
/// on anything else ("auto" included — resolve that via max_supported_level).
bool parse_level(std::string_view name, Level* out);

/// Widest level both compiled in and supported by the running CPU.
Level max_supported_level();

/// The level the kernel table currently dispatches to.
Level active_level();

/// Pins the dispatch table to `level`. Returns false (and changes nothing)
/// when the level is not compiled in or not supported by the CPU. Intended
/// for tests and benches; not safe to call concurrently with kernel use.
bool set_level(Level level);

/// Per-kernel entry points. All pointers are always non-null after
/// resolution; a level that lacks an implementation inherits the next
/// lower level's pointer.
struct KernelTable {
  /// In-place forward AAN DCT over `count` contiguous 64-float blocks
  /// (CoeffPlane layout), output in JPEG normalization.
  void (*fdct_batch)(float* blocks, std::size_t count);
  /// In-place inverse DCT over `count` contiguous 64-float blocks.
  void (*idct_batch)(float* blocks, std::size_t count);
  /// Batched quantize: natural-order float blocks -> natural-order int16
  /// blocks via v = round_half_even(c * recip[k]) with clamp to int16.
  /// `recip` is the 64-entry natural-order reciprocal array.
  void (*quantize_batch)(const float* coeffs, std::size_t count, const float* recip,
                         std::int16_t* out);
  /// Batched dequantize: c' = v * step[k], natural-order int16 -> float.
  void (*dequantize_batch)(const std::int16_t* quantized, std::size_t count,
                           const float* steps, float* coeffs);
  /// Tiles a float plane into an 8x8 block grid with edge replication and
  /// `bias` added to every sample (tile_blocks_into semantics).
  void (*tile_f32)(const float* src, int w, int h, int grid_bx, int grid_by,
                   float* dst, float bias);
  /// Tiles one channel of an interleaved u8 image into a block grid,
  /// fusing the u8 -> float conversion and `bias`. `src` already points at
  /// the first sample of the channel; samples are `channels` apart.
  void (*tile_u8)(const std::uint8_t* src, int w, int h, int channels, int grid_bx,
                  int grid_by, float* dst, float bias);
  /// Inverse of tile_f32: writes the top-left w x h samples of the grid
  /// back to a plane, adding `bias` (untile_blocks_from semantics).
  void (*untile_f32)(const float* src, int grid_bx, int grid_by, float* plane, int w,
                     int h, float bias);
  /// Interleaved RGB u8 -> planar float Y/Cb/Cr (JFIF BT.601), `n` pixels.
  void (*rgb_to_ycbcr)(const std::uint8_t* rgb, std::size_t n, float* y, float* cb,
                       float* cr);
  /// One stripe of interleaved RGB u8 (`h` rows of `w` pixels, h in [1, 8],
  /// rows contiguous) -> one row of `grid_bx` 8x8 Y, Cb and Cr blocks each:
  /// rgb_to_ycbcr followed by tile_f32 of each plane, fused, with no float
  /// planes in between. `bias` is added after the transform; columns past
  /// w - 1 and rows past h - 1 replicate the last column and row, exactly
  /// as tile_f32 does. Never reads past the stripe's last pixel.
  void (*rgb_to_ycbcr_blocks)(const std::uint8_t* rgb, int w, int h, int grid_bx,
                              float* y, float* cb, float* cr, float bias);
  /// One row of planar float Y/Cb/Cr -> interleaved RGB u8 with the
  /// clamp_u8 rounding rule (nearbyint, clamp to [0, 255]). Writes exactly
  /// 3 * n bytes.
  void (*ycbcr_to_rgb_row)(const float* y, const float* cb, const float* cr, int n,
                           std::uint8_t* rgb);
  /// Horizontal half of image::upsample_2x2 on one row: `in_w` samples ->
  /// `out_w` samples, with (out_w + 1) / 2 == in_w. out[x] = in[x0] *
  /// (1 - wx) + in[x1] * wx with upsample_2x2's taps: weights 1/0 at x = 0,
  /// 0.25/0.75 at even x, 0.75/0.25 at odd x, x1 clamped to in_w - 1.
  /// Never reads past in[in_w - 1].
  void (*upsample_h2_row)(const float* in, int in_w, int out_w, float* out);
  /// Vertical half of image::upsample_2x2: out[i] = top[i] * (1 - wy) +
  /// bot[i] * wy over `n` samples.
  void (*lerp_rows)(const float* top, const float* bot, float wy, int n, float* out);
  /// One row of floats -> u8 with the clamp_u8 rounding rule, unit stride.
  void (*f32_to_u8_row)(const float* src, int n, std::uint8_t* dst);
  /// Exact integer sum of squared differences over two u8 buffers.
  std::uint64_t (*sum_sq_diff_u8)(const std::uint8_t* a, const std::uint8_t* b,
                                  std::size_t n);
  /// Per-band quantization squared error of one 64-float block:
  /// sq[k] = (c - nearbyint(c / q[k]) * q[k])^2 in double precision.
  void (*quant_error_block)(const float* block, const double* steps, double* sq);
  /// C[m x n] += A[m x k] * B[k x n], all row-major. Per-element
  /// accumulation runs in ascending k order with the scalar zero-skip.
  void (*gemm_acc)(const float* a, const float* b, float* c, int m, int k, int n);
  /// C[m x n] += A^T * B with A stored [k x m] (k-major).
  void (*gemm_at_acc)(const float* a, const float* b, float* c, int m, int k, int n);
  /// Nonzero-lane bitmasks over `count` contiguous 64-entry int16 blocks:
  /// bit k of masks[b] is set iff blocks[64 * b + k] != 0. Exact integer
  /// predicate, identical at every level. The entropy coder takes a
  /// stripe's masks in one call, maps each to scan order and iterates set
  /// bits instead of walking 63 branchy lanes.
  void (*nonzero_masks_i16)(const std::int16_t* blocks, std::size_t count,
                            std::uint64_t* masks);
  /// JPEG byte stuffing: copies `n` bytes from `src` to `dst`, inserting a
  /// 0x00 after every 0xFF. `dst` must have room for 2*n bytes. Returns the
  /// number of bytes written. Vector levels bulk-copy chunks with no 0xFF
  /// byte and fall back per byte only on chunks that need stuffing.
  std::size_t (*stuff_bytes)(const std::uint8_t* src, std::size_t n,
                             std::uint8_t* dst);
  /// CRC-32 (ISO-HDLC, the wire frame checksum) in zlib's form: `crc` is
  /// the CRC of the bytes before `data` (0 to start), the result is the CRC
  /// of both, so crc32(crc32(0, a), b) == crc32(0, a ++ b). Exact integer
  /// arithmetic, identical at every level. Scalar is slice-by-8; SSE2 and
  /// AVX2 fold with PCLMULQDQ, but only when pclmul_supported() — the
  /// dispatcher installs that kernel, as neither level implies the
  /// instruction. Otherwise they inherit slice-by-8.
  std::uint32_t (*crc32)(std::uint32_t crc, const std::uint8_t* data, std::size_t n);
};

/// True when CPUID reports PCLMULQDQ, which the CRC-32 fold needs.
bool pclmul_supported();

/// The active kernel table. First use resolves the level from DNJ_SIMD
/// (or auto-detects); the returned reference stays valid forever.
const KernelTable& kernels();

}  // namespace dnj::simd
