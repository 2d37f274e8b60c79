#include "jpeg/quant.hpp"

#include <algorithm>
#include <cmath>

#include "jpeg/zigzag.hpp"
#include "simd/dispatch.hpp"

namespace dnj::jpeg {

namespace {

// ITU-T T.81 Annex K.1, natural order.
constexpr std::array<std::uint16_t, 64> kLumaBase = {
    16, 11, 10, 16, 24,  40,  51,  61,
    12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,
    14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,
    24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99};

// ITU-T T.81 Annex K.2, natural order.
constexpr std::array<std::uint16_t, 64> kChromaBase = {
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99};

}  // namespace

QuantTable::QuantTable() { q_.fill(1); }

QuantTable::QuantTable(const std::array<std::uint16_t, 64>& natural) {
  for (int k = 0; k < 64; ++k)
    q_[static_cast<std::size_t>(k)] =
        std::max<std::uint16_t>(natural[static_cast<std::size_t>(k)], 1);
}

bool QuantTable::needs_16bit() const {
  return std::any_of(q_.begin(), q_.end(), [](std::uint16_t v) { return v > 255; });
}

QuantTable QuantTable::annex_k_luma() { return QuantTable(kLumaBase); }
QuantTable QuantTable::annex_k_chroma() { return QuantTable(kChromaBase); }

QuantTable QuantTable::scaled(int quality) const {
  quality = std::clamp(quality, 1, 100);
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  std::array<std::uint16_t, 64> out{};
  for (int k = 0; k < 64; ++k) {
    long v = (static_cast<long>(q_[static_cast<std::size_t>(k)]) * scale + 50) / 100;
    v = std::clamp<long>(v, 1, 255);
    out[static_cast<std::size_t>(k)] = static_cast<std::uint16_t>(v);
  }
  return QuantTable(out);
}

QuantTable QuantTable::uniform(std::uint16_t q) {
  std::array<std::uint16_t, 64> out{};
  out.fill(std::max<std::uint16_t>(q, 1));
  return QuantTable(out);
}

ReciprocalTable::ReciprocalTable(const QuantTable& table) {
  for (int k = 0; k < 64; ++k)
    recip_natural_[static_cast<std::size_t>(k)] = 1.0f / static_cast<float>(table.step(k));
}

QuantizedBlock quantize(const image::BlockF& coeffs, const QuantTable& table) {
  return quantize(coeffs, ReciprocalTable(table));
}

QuantizedBlock quantize(const image::BlockF& coeffs, const ReciprocalTable& recip) {
  QuantizedBlock out{};
  for (int k = 0; k < 64; ++k)
    out[static_cast<std::size_t>(k)] =
        quantize_coeff(coeffs[static_cast<std::size_t>(k)], recip.recip(k));
  return out;
}

void quantize_batch(const float* coeffs, std::size_t count, const ReciprocalTable& recip,
                    std::int16_t* out) {
  simd::kernels().quantize_batch(coeffs, count, recip.data(), out);
}

image::BlockF dequantize(const QuantizedBlock& quantized, const QuantTable& table) {
  image::BlockF out{};
  for (int k = 0; k < 64; ++k)
    out[static_cast<std::size_t>(k)] =
        static_cast<float>(quantized[static_cast<std::size_t>(k)]) *
        static_cast<float>(table.step(k));
  return out;
}

void dequantize_batch(const std::int16_t* quantized, std::size_t count,
                      const QuantTable& table, float* coeffs) {
  float steps[64];
  for (int k = 0; k < 64; ++k) steps[k] = static_cast<float>(table.step(k));
  simd::kernels().dequantize_batch(quantized, count, steps, coeffs);
}

}  // namespace dnj::jpeg
