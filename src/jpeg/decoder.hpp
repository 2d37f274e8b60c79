// Baseline JFIF decoder: parses the marker stream, decodes the single
// interleaved scan, dequantizes, inverse-transforms, upsamples chroma and
// converts back to RGB (or grayscale). Supports everything our encoder
// emits — 8-bit baseline, 1 or 3 components, sampling factors 1x1/2x2,
// 8- and 16-bit DQT, restart markers — plus SOF1 streams.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/views.hpp"
#include "image/image.hpp"
#include "jpeg/pipeline/codec_context.hpp"
#include "jpeg/quant.hpp"

namespace dnj::jpeg {

/// Parsed header facts, exposed for tests and table-inspection tools.
struct JpegInfo {
  int width = 0;
  int height = 0;
  int components = 0;
  int max_h = 1, max_v = 1;
  int restart_interval = 0;
  std::optional<QuantTable> quant_tables[4];
  std::string comment;
};

/// Decodes a complete JFIF stream. Throws std::runtime_error on malformed
/// input and on colour sampling layouts it cannot rebuild: a component at
/// the frame's maximum sampling feeds its plane, a chroma component at
/// exactly half the maximum on both axes is upsampled 2x2, and anything
/// else (subsampled luma, chroma halved on one axis only) throws. The
/// context-taking overload decodes through the caller's arenas (coefficient
/// stores, dequantized planes, the chroma row ring) with batched dequantize
/// + IDCT; the other uses the calling thread's shared context. Colour frames
/// are rebuilt row by row straight into the returned Image, and headers
/// parse into fixed arrays, so on a warm context a stream without restart
/// intervals allocates only that Image. The
/// pixels are byte-identical to image::upsample_2x2 + image::to_rgb over the
/// decoded planes. ByteSpan converts implicitly from std::vector<uint8_t>;
/// callers holding mapped or foreign buffers pass {ptr, size} without a copy.
///
/// Streams with restart intervals decode their independent restart segments
/// on runtime::parallel_for; `num_threads` follows the usual knob semantics
/// (0 = DNJ_THREADS / hardware concurrency, 1 = serial). Output is
/// bit-identical at every thread count.
image::Image decode(ByteSpan bytes);
image::Image decode(ByteSpan bytes, pipeline::CodecContext& ctx, int num_threads = 0);

/// Entropy-decodes the scan into ctx.decode_coeffs (one natural-order
/// QuantPlane per component, padded to the MCU lattice) without
/// dequantizing or reconstructing pixels, and returns the parsed header
/// facts. This is the Huffman-decode stage in isolation — benches time it
/// per stage, and tests memcmp the coefficient planes across decoder
/// configurations.
JpegInfo decode_coefficients(ByteSpan bytes, pipeline::CodecContext& ctx,
                             int num_threads = 0);

/// Parses markers up to (and including) SOS without decoding pixel data.
JpegInfo parse_info(ByteSpan bytes);

/// Size of the entropy-coded scan payload (bytes between the SOS header and
/// the EOI marker). This is the per-image marginal transfer cost in a
/// deployment where quantization/Huffman tables are shipped once — the
/// regime the paper's compression-rate numbers describe (headers are
/// negligible for 256x256 ImageNet files but dominate 32x32 test images).
std::size_t scan_byte_count(ByteSpan bytes);

}  // namespace dnj::jpeg
