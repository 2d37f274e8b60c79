// Per-worker codec state: reusable scratch arenas plus precomputed tables.
//
// A CodecContext owns everything an encode or decode needs beyond the image
// itself:
//
//  * scratch buffers, all of which reshape in place. The encoder works one
//    MCU row (a stripe of 8 pixel rows, 16 for 4:2:0) at a time: it colour
//    converts, tiles, transforms, quantizes and entropy-codes a stripe
//    before the next one starts, so its buffers hold one stripe and grow
//    with the image width, not its area (about 150 KB for a 1024-wide
//    4:4:4 frame). Only optimize_huffman, which needs every symbol count
//    before the first bit, keeps the whole frame's quantized blocks (2
//    bytes per coefficient) and their nonzero masks. A warm context *encodes* with no allocation
//    besides the returned byte vector. Decode batches through whole-frame
//    coefficient stores, and colour reconstruction runs row by row through
//    a small chroma row ring (`decode_rows`), so once warm the returned
//    Image is its only allocation.
//  * the static (Annex K.3) Huffman specs and their derived encoder tables,
//    built once per context instead of once per image — dataset-level
//    callers with optimize_huffman off no longer re-derive them per image.
//  * a two-slot reciprocal-multiplier cache (luma/chroma) keyed by table
//    contents, so the fused quantize pass multiplies instead of divides
//    without rebuilding reciprocals for every image of a transcode run.
//
// Contexts are cheap to create but meant to be reused. They are NOT
// thread-safe; give each worker its own — `thread_codec_context()` hands
// out one per thread, which is how core/transcode and core/sa_optimizer
// get "one arena per worker" through the runtime parallel helpers. Results
// never depend on context state, so the bit-identical-at-any-thread-count
// guarantee is preserved.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "image/color.hpp"
#include "jpeg/huffman.hpp"
#include "jpeg/pipeline/coeff_plane.hpp"
#include "jpeg/quant.hpp"

namespace dnj::jpeg::pipeline {

inline constexpr int kMaxComponents = 3;

class CodecContext {
 public:
  /// The four Annex K.3 default Huffman tables with their derived encoder
  /// lookups, constructed in one shot.
  struct StaticHuffman {
    HuffmanSpec dc_luma_spec, ac_luma_spec, dc_chroma_spec, ac_chroma_spec;
    HuffmanEncoder dc_luma, ac_luma, dc_chroma, ac_chroma;
    StaticHuffman();
  };

  /// Lazily built once per context, then reused for every image.
  const StaticHuffman& static_huffman();

  /// Reciprocal multipliers for `table`, cached per slot (0 = luma,
  /// 1 = chroma). Rebuilt only when the table contents change.
  const ReciprocalTable& reciprocal_for(const QuantTable& table, int slot);

  /// The Annex K tables IJG-scaled to `quality`, cached so a dataset
  /// re-encode at one quality derives them once instead of per image.
  struct QualityTables {
    const QuantTable& luma;
    const QuantTable& chroma;
  };
  QualityTables quality_tables(int quality);

  /// Decoder-side Huffman tables (MINCODE/MAXCODE plus the fast table),
  /// cached by table contents and current fast-table width. A warm context
  /// decoding a same-table stream (the serving steady state) skips both the
  /// canonical code derivation and the 2^W-entry table fill on every image.
  /// Sixteen slots, least recently used replaced first, so a returned
  /// decoder stays valid until sixteen other tables have been requested
  /// after it. The decoder asks for a scan's tables (at most eight: 4 DC +
  /// 4 AC) together once its headers are parsed, and for none while it
  /// decodes, so every table a parse holds outlives the parse — however
  /// many DHT segments the stream has.
  const HuffmanDecoder& decoder_for(const HuffmanSpec& spec);
  /// Same, for BITS and HUFFVAL as parsed (see HuffmanDecoder's matching
  /// constructor); allocates nothing on a hit.
  const HuffmanDecoder& decoder_for(const std::array<std::uint8_t, 17>& counts,
                                    const std::uint8_t* symbols);

  /// How often the lazily-cached state above was actually (re)built. A warm
  /// context encoding a same-config stream sits at one build each; every
  /// additional rebuild is a cache miss caused by interleaved configs. The
  /// serving layer takes their deltas around each request and reports them
  /// per service and per tenant.
  struct ReuseCounters {
    std::uint64_t huffman_builds = 0;
    std::uint64_t reciprocal_builds = 0;
    std::uint64_t quality_table_builds = 0;
    std::uint64_t huffman_decoder_builds = 0;
  };
  const ReuseCounters& reuse_counters() const { return counters_; }

  // --- encode-side stripe buffers (one MCU row) --------------------------
  /// A 4:2:0 stripe's full-resolution colour planes, which it downsamples.
  /// 4:4:4 colour converts straight into `stripe_coeff`'s blocks instead.
  image::YCbCrPlanes stripe_ycc;
  std::array<image::PlaneF, 2> stripe_chroma;  ///< its 4:2:0 downsampled Cb/Cr
  CoeffPlane stripe_coeff;  ///< the stripe's float blocks, components back to back
  /// Quantized natural-order blocks in stripe layout: one stripe, or every
  /// stripe of the frame under optimize_huffman.
  QuantPlane encode_quant;
  /// One nonzero-lane mask per block of `encode_quant` (8 bytes per 128
  /// bytes of coefficients), from one nonzero_masks_i16 call per stripe;
  /// the Huffman statistics pass and the entropy coder both read them.
  std::vector<std::uint64_t> encode_masks;

  // --- decode-side arenas -------------------------------------------------
  std::array<QuantPlane, kMaxComponents> decode_coeffs;  ///< natural-order int16
  CoeffPlane decode_fp;                                  ///< dequantized floats
  std::array<image::PlaneF, kMaxComponents> decode_planes;
  std::vector<float> decode_rows;  ///< colour-reconstruction chroma row ring

 private:
  std::optional<StaticHuffman> static_huffman_;
  struct RecipSlot {
    QuantTable table;
    ReciprocalTable recip;
    bool valid = false;
  };
  std::array<RecipSlot, 2> recips_;
  struct DecoderSlot {
    int lut_bits = -1;
    std::array<std::uint8_t, 17> counts{};
    std::array<std::uint8_t, 256> symbols{};
    std::uint64_t last_use = 0;  // decoder_clock_ at the latest request; 0 = empty
    std::optional<HuffmanDecoder> decoder;
  };
  std::array<DecoderSlot, 16> decoders_;
  std::uint64_t decoder_clock_ = 0;
  int cached_quality_ = -1;
  QuantTable quality_luma_, quality_chroma_;
  ReuseCounters counters_;
};

/// One context per thread, created on first use — the per-worker arena the
/// parallel dataset loops (and the default encode/decode entry points)
/// reuse across images.
CodecContext& thread_codec_context();

}  // namespace dnj::jpeg::pipeline
