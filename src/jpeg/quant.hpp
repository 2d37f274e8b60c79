// Quantization tables. This is the exact component DeepN-JPEG redesigns:
// everything else in the codec (DCT, zig-zag, entropy coding) is untouched,
// which is how the paper obtains "the same hardware cost" as stock JPEG.
//
// Tables are stored in natural (row-major) order; the DQT marker writer
// converts to zig-zag order on serialization.
#pragma once

#include <array>
#include <cstdint>

#include "image/blocks.hpp"

namespace dnj::jpeg {

/// Quantized DCT block (natural order).
using QuantizedBlock = std::array<std::int16_t, 64>;

class QuantTable {
 public:
  /// Identity table (all steps 1): lossless-up-to-rounding quantization.
  QuantTable();

  /// Builds from 64 natural-order steps; values are clamped to [1, 65535].
  explicit QuantTable(const std::array<std::uint16_t, 64>& natural);

  std::uint16_t step(int natural_index) const { return q_[static_cast<std::size_t>(natural_index)]; }
  std::uint16_t& step(int natural_index) { return q_[static_cast<std::size_t>(natural_index)]; }
  std::uint16_t step_at(int row, int col) const { return q_[static_cast<std::size_t>(row) * 8 + col]; }

  const std::array<std::uint16_t, 64>& natural() const { return q_; }

  /// True if any step exceeds 255, requiring 16-bit DQT precision.
  bool needs_16bit() const;

  /// ITU Annex K.1 luminance table.
  static QuantTable annex_k_luma();
  /// ITU Annex K.2 chrominance table.
  static QuantTable annex_k_chroma();

  /// IJG quality scaling of a base table: quality in [1, 100], 50 = base,
  /// 100 = all ones. Matches jpeg_quality_scaling in libjpeg.
  QuantTable scaled(int quality) const;

  /// Uniform table with every step equal to `q` (the paper's SAME-Q
  /// baseline).
  static QuantTable uniform(std::uint16_t q);

  bool operator==(const QuantTable& o) const { return q_ == o.q_; }

 private:
  std::array<std::uint16_t, 64> q_{};
};

/// Precomputed reciprocal multipliers for a quantization table — the
/// production-codec replacement for per-coefficient divides. The codec's
/// quantization rounding rule is
///
///     v = nearbyintf(c * (1.0f / q))        (round half to even)
///
/// i.e. one float32 multiply by the precomputed reciprocal followed by the
/// IEEE default rounding. Every quantization path (per-block `quantize`,
/// the fused batch pass) applies this exact rule, so per-block and batched
/// encodes are bit-identical.
class ReciprocalTable {
 public:
  ReciprocalTable() = default;
  explicit ReciprocalTable(const QuantTable& table);

  /// Reciprocal of the step at `natural_index`.
  float recip(int natural_index) const {
    return recip_natural_[static_cast<std::size_t>(natural_index)];
  }

  /// The 64 natural-order reciprocals — the raw array the SIMD quantize
  /// kernels consume.
  const float* data() const { return recip_natural_.data(); }

 private:
  std::array<float, 64> recip_natural_{};
};

/// Round half to even without a libm call: adding and subtracting 1.5 * 2^23
/// forces the float onto the integer grid using the FPU's default
/// round-to-nearest-even, matching std::nearbyintf bit for bit wherever the
/// result is not clamped (|x| < 2^22; larger magnitudes clamp to the int16
/// range below either way). This is the codec's quantization rounding rule,
/// shared verbatim by every scalar and SIMD quantization path.
inline float round_half_even(float x) {
  constexpr float kBias = 12582912.0f;  // 1.5 * 2^23
  const float biased = x + kBias;
  return biased - kBias;
}

/// One coefficient of the codec's quantization rule:
/// clamp(round_half_even(c * recip)) into int16.
inline std::int16_t quantize_coeff(float c, float recip) {
  const float v = round_half_even(c * recip);
  const float clamped = v < -32768.0f ? -32768.0f : (v > 32767.0f ? 32767.0f : v);
  return static_cast<std::int16_t>(clamped);
}

/// Quantizes a DCT coefficient block: round(c * (1/q)), natural order.
QuantizedBlock quantize(const image::BlockF& coeffs, const QuantTable& table);

/// Same rule via a prebuilt reciprocal table (no per-call divides).
QuantizedBlock quantize(const image::BlockF& coeffs, const ReciprocalTable& recip);

/// Batched quantize over contiguous coefficient blocks: reads `count`
/// blocks of 64 natural-order floats from `coeffs` and writes `count`
/// blocks of 64 natural-order int16 coefficients to `out`, the layout the
/// Huffman coder reads (it walks them in zig-zag order through kZigzag).
/// Identical to the per-block `quantize` at every SIMD level.
void quantize_batch(const float* coeffs, std::size_t count, const ReciprocalTable& recip,
                    std::int16_t* out);

/// Dequantizes: c' = v * q.
image::BlockF dequantize(const QuantizedBlock& quantized, const QuantTable& table);

/// Batched dequantize over natural-order int16 blocks into a float
/// coefficient plane (ready for idct_batch). Applies c' = v * q per
/// coefficient, identical to the per-block `dequantize`.
void dequantize_batch(const std::int16_t* quantized, std::size_t count,
                      const QuantTable& table, float* coeffs);

}  // namespace dnj::jpeg
