// Baseline JFIF encoder. Produces a standard single-scan interleaved
// baseline JPEG stream: SOI, APP0, [COM], DQT, SOF0, DHT, [DRI], SOS,
// entropy-coded data, EOI. Grayscale images use one component; RGB images
// use YCbCr with 4:4:4 or 4:2:0 chroma subsampling.
//
// DeepN-JPEG plugs in here via `use_custom_tables`: the designed
// quantization table replaces the HVS (Annex K) table and nothing else in
// the pipeline changes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "image/image.hpp"
#include "jpeg/pipeline/codec_context.hpp"
#include "jpeg/quant.hpp"

namespace dnj::jpeg {

enum class Subsampling {
  k444,  ///< no chroma subsampling
  k420,  ///< 2x2 chroma subsampling (JPEG default)
};

struct EncoderConfig {
  /// IJG-style quality in [1, 100], used when use_custom_tables is false.
  int quality = 75;

  /// When true, luma_table/chroma_table are used verbatim (DeepN-JPEG and
  /// the RM-HF / SAME-Q baselines take this path).
  bool use_custom_tables = false;
  QuantTable luma_table;
  QuantTable chroma_table;

  Subsampling subsampling = Subsampling::k420;

  /// Two-pass encoding with per-image optimal Huffman tables. Slightly
  /// smaller files; identical pixels.
  bool optimize_huffman = false;

  /// Restart interval in MCUs (0 = no restart markers).
  int restart_interval = 0;

  /// Optional COM marker payload.
  std::string comment;
};

/// Encodes an image to a complete JFIF byte stream using the caller's
/// codec context (scratch arenas + cached tables). Performs zero per-block
/// allocations; once the context is warm the only allocation is the
/// returned byte vector. The PixelView forms are the primary entry points
/// — callers holding raw interleaved buffers (mapped files, FFI callers)
/// encode without copying into an Image first; the Image overloads
/// forward via Image::view().
std::vector<std::uint8_t> encode(PixelView img, const EncoderConfig& config,
                                 pipeline::CodecContext& ctx);
std::vector<std::uint8_t> encode(const image::Image& img, const EncoderConfig& config,
                                 pipeline::CodecContext& ctx);

/// Convenience overloads on the calling thread's shared context.
std::vector<std::uint8_t> encode(PixelView img, const EncoderConfig& config = {});
std::vector<std::uint8_t> encode(const image::Image& img, const EncoderConfig& config = {});

/// The pre-pipeline per-block encoder shape (materialized BlockF copies,
/// per-image table derivation, per-coefficient quantization of each block
/// in turn), retained as the reference implementation the equivalence
/// suite and the codec-pipeline bench compare the batched path against.
/// Produces byte-identical streams to `encode`: both paths share the
/// reciprocal quantization rounding rule (see ReciprocalTable), which may
/// deviate from the original divide-based seed by one step in rare
/// round-half-even boundary cases.
std::vector<std::uint8_t> encode_reference(const image::Image& img,
                                           const EncoderConfig& config = {});

/// Resolves the (luma, chroma) table pair the given config will quantize
/// with — Annex K scaled by quality, or the custom tables.
std::pair<QuantTable, QuantTable> effective_tables(const EncoderConfig& config);

/// Appends THE canonical byte serialization of every semantically relevant
/// EncoderConfig field to `out` (fixed-width little-endian fields, custom
/// tables verbatim when active, length-prefixed comment). This is the
/// single source of truth for "are two configs the same computation":
/// the public API's EncodeOptions::digest() hashes exactly these bytes,
/// so adding a field here changes the digest at once — and forgetting to
/// add one is caught by the field-sensitivity test in tests/test_api.cpp.
void append_config_bytes(const EncoderConfig& config, std::vector<std::uint8_t>& out);

}  // namespace dnj::jpeg
