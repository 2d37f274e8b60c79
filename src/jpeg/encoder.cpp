#include "jpeg/encoder.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "image/blocks.hpp"
#include "image/color.hpp"
#include "image/resample.hpp"
#include "jpeg/bitio.hpp"
#include "jpeg/block_coder.hpp"
#include "jpeg/dct.hpp"
#include "jpeg/huffman.hpp"
#include "jpeg/markers.hpp"
#include "jpeg/zigzag.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"

namespace dnj::jpeg {

namespace {

using image::BlockF;
using image::kBlockDim;
using image::kBlockSize;
using image::PlaneF;
using pipeline::CodecContext;
using pipeline::kMaxComponents;

// One frame component as the stripe loop sees it. A stripe (one MCU row)
// holds each component's blocks back to back: `v` block rows of `blocks_x`
// blocks, starting `offset` blocks into the stripe, each block 64
// natural-order coefficients.
struct Component {
  int id = 1;               // component identifier written to SOF0/SOS
  int h = 1, v = 1;         // sampling factors
  int tq = 0;               // quantization table index (0 = luma, 1 = chroma)
  int blocks_x = 0;         // blocks per block row: h * MCUs per row
  std::size_t offset = 0;   // first block of the component within a stripe
};

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

void write_segment_header(std::vector<std::uint8_t>& out, std::uint8_t marker,
                          std::uint16_t payload_len) {
  out.push_back(0xFF);
  out.push_back(marker);
  put_u16(out, static_cast<std::uint16_t>(payload_len + 2));
}

void write_app0(std::vector<std::uint8_t>& out) {
  write_segment_header(out, kAPP0, 14);
  const char jfif[5] = {'J', 'F', 'I', 'F', '\0'};
  out.insert(out.end(), jfif, jfif + 5);
  out.push_back(1);  // version 1.01
  out.push_back(1);
  out.push_back(0);  // density units: none
  put_u16(out, 1);   // x density
  put_u16(out, 1);   // y density
  out.push_back(0);  // no thumbnail
  out.push_back(0);
}

void write_comment(std::vector<std::uint8_t>& out, const std::string& text) {
  if (text.empty()) return;
  if (text.size() > kMaxCommentBytes) throw std::invalid_argument("encode: comment too long");
  write_segment_header(out, kCOM, static_cast<std::uint16_t>(text.size()));
  out.insert(out.end(), text.begin(), text.end());
}

void write_dqt(std::vector<std::uint8_t>& out, const QuantTable& table, int index) {
  const bool wide = table.needs_16bit();
  write_segment_header(out, kDQT, static_cast<std::uint16_t>(1 + (wide ? 128 : 64)));
  out.push_back(static_cast<std::uint8_t>(((wide ? 1 : 0) << 4) | index));
  for (int k = 0; k < 64; ++k) {
    const std::uint16_t q = table.step(kZigzag[static_cast<std::size_t>(k)]);
    if (wide) put_u16(out, q);
    else out.push_back(static_cast<std::uint8_t>(q));
  }
}

template <typename Comp>
void write_sof0(std::vector<std::uint8_t>& out, int width, int height, const Comp* comps,
                std::size_t n_comps) {
  write_segment_header(out, kSOF0, static_cast<std::uint16_t>(6 + 3 * n_comps));
  out.push_back(8);  // sample precision
  put_u16(out, static_cast<std::uint16_t>(height));
  put_u16(out, static_cast<std::uint16_t>(width));
  out.push_back(static_cast<std::uint8_t>(n_comps));
  for (std::size_t i = 0; i < n_comps; ++i) {
    const Comp& c = comps[i];
    out.push_back(static_cast<std::uint8_t>(c.id));
    out.push_back(static_cast<std::uint8_t>((c.h << 4) | c.v));
    out.push_back(static_cast<std::uint8_t>(c.tq));
  }
}

void write_dht(std::vector<std::uint8_t>& out, const HuffmanSpec& spec, int klass, int index) {
  write_segment_header(out, kDHT,
                       static_cast<std::uint16_t>(1 + 16 + spec.symbols.size()));
  out.push_back(static_cast<std::uint8_t>((klass << 4) | index));
  for (int l = 1; l <= 16; ++l) out.push_back(spec.counts[static_cast<std::size_t>(l)]);
  out.insert(out.end(), spec.symbols.begin(), spec.symbols.end());
}

void write_dri(std::vector<std::uint8_t>& out, int interval) {
  write_segment_header(out, kDRI, 2);
  put_u16(out, static_cast<std::uint16_t>(interval));
}

template <typename Comp>
void write_sos_header(std::vector<std::uint8_t>& out, const Comp* comps,
                      std::size_t n_comps) {
  write_segment_header(out, kSOS, static_cast<std::uint16_t>(1 + 2 * n_comps + 3));
  out.push_back(static_cast<std::uint8_t>(n_comps));
  for (std::size_t i = 0; i < n_comps; ++i) {
    const Comp& c = comps[i];
    out.push_back(static_cast<std::uint8_t>(c.id));
    const int table = c.tq;  // DC and AC table index follow the quant index
    out.push_back(static_cast<std::uint8_t>((table << 4) | table));
  }
  out.push_back(0);   // spectral start
  out.push_back(63);  // spectral end
  out.push_back(0);   // successive approximation
}

int ceil_div(int a, int b) { return (a + b - 1) / b; }

// Walks MCUs in scan order invoking fn(component_index, grid_x, grid_y) for
// every data unit, handling the restart bookkeeping via the callbacks: the
// reference encoder's whole-frame traversal, which the pipeline's stripe
// coder (encode_stripe) is held to.
template <typename Comp, typename BlockFn, typename RestartFn>
void for_each_data_unit(const Comp* comps, std::size_t n_comps, int mcus_x, int mcus_y,
                        int restart_interval, int& mcu_index, BlockFn&& fn,
                        RestartFn&& restart) {
  for (int my = 0; my < mcus_y; ++my) {
    for (int mx = 0; mx < mcus_x; ++mx) {
      if (restart_interval > 0 && mcu_index > 0 && mcu_index % restart_interval == 0)
        restart((mcu_index / restart_interval - 1) % 8);
      for (std::size_t ci = 0; ci < n_comps; ++ci) {
        const Comp& c = comps[ci];
        for (int by = 0; by < c.v; ++by) {
          for (int bx = 0; bx < c.h; ++bx) {
            fn(ci, mx * c.h + bx, my * c.v + by);
          }
        }
      }
      ++mcu_index;
    }
  }
}

void validate_config(PixelView img, const EncoderConfig& config) {
  if (img.empty()) throw std::invalid_argument("encode: empty image");
  if (img.width > 65535 || img.height > 65535)
    throw std::invalid_argument("encode: image too large for baseline JPEG");
  // Image's constructor enforces this for owned images; raw views arriving
  // through the public API are validated here.
  if (img.channels != 1 && img.channels != 3)
    throw std::invalid_argument("encode: channels must be 1 or 3");
  if (config.restart_interval < 0 || config.restart_interval > kMaxRestartInterval)
    throw std::invalid_argument("encode: bad restart interval");
}

// Busy time of one encode per stage, summed across stripes. Clocks are read
// only when the calling thread's trace is sampled. record() writes one span
// per stage, laid end to end from the encode's start: the four spans never
// overlap, they end before the encode returns, and the caller's self time
// stays exact.
class StageClock {
 public:
  StageClock() : trace_(obs::thread_trace_context()) {
    if (trace_.trace_id != 0) start_ = last_ = obs::now_ns();
  }

  /// Charges the time since the previous lap (or the start) to `stage`,
  /// one of kEncodeTile..kEncodeEntropy.
  void lap(obs::Stage stage) {
    if (trace_.trace_id == 0) return;
    const std::uint64_t now = obs::now_ns();
    sums_[slot(stage)] += now - last_;
    last_ = now;
  }

  void record(std::uint64_t blocks) const {
    std::uint64_t t = start_;
    for (const obs::Stage stage : {obs::Stage::kEncodeTile, obs::Stage::kEncodeDct,
                                   obs::Stage::kEncodeQuant, obs::Stage::kEncodeEntropy}) {
      const std::uint64_t d = sums_[slot(stage)];
      obs::record_span(trace_.trace_id, trace_.parent, stage, t, t + d, blocks);
      t += d;
    }
  }

 private:
  static std::size_t slot(obs::Stage stage) {
    return static_cast<std::size_t>(stage) - static_cast<std::size_t>(obs::Stage::kEncodeTile);
  }

  const obs::TraceContext trace_;
  std::uint64_t start_ = 0;
  std::uint64_t last_ = 0;
  std::array<std::uint64_t, 4> sums_{};
};

}  // namespace

std::pair<QuantTable, QuantTable> effective_tables(const EncoderConfig& config) {
  if (config.use_custom_tables) return {config.luma_table, config.chroma_table};
  return {QuantTable::annex_k_luma().scaled(config.quality),
          QuantTable::annex_k_chroma().scaled(config.quality)};
}

namespace {

void append_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_table(std::vector<std::uint8_t>& out, const QuantTable& table) {
  for (std::uint16_t q : table.natural()) {
    out.push_back(static_cast<std::uint8_t>(q & 0xFF));
    out.push_back(static_cast<std::uint8_t>(q >> 8));
  }
}

}  // namespace

void append_config_bytes(const EncoderConfig& config, std::vector<std::uint8_t>& out) {
  // Fixed field order; every field is either fixed-width or length-prefixed
  // so no two distinct configs can serialize to the same bytes. When
  // use_custom_tables is false the table contents are not part of the
  // computation (quality selects the Annex K scaling), so they are
  // deliberately excluded — exactly the aliasing the digest wants.
  out.reserve(out.size() + 19 + (config.use_custom_tables ? 256 : 0) +
              config.comment.size());
  append_u32(out, static_cast<std::uint32_t>(config.quality));
  append_u8(out, config.use_custom_tables ? 1 : 0);
  if (config.use_custom_tables) {
    append_table(out, config.luma_table);
    append_table(out, config.chroma_table);
  }
  append_u8(out, static_cast<std::uint8_t>(config.subsampling));
  append_u8(out, config.optimize_huffman ? 1 : 0);
  append_u32(out, static_cast<std::uint32_t>(config.restart_interval));
  append_u64(out, config.comment.size());
  out.insert(out.end(), config.comment.begin(), config.comment.end());
}

std::vector<std::uint8_t> encode(PixelView img, const EncoderConfig& config,
                                 pipeline::CodecContext& ctx) {
  StageClock clock;
  validate_config(img, config);

  // Same resolution rule as effective_tables, but quality-scaled tables
  // come from the context cache instead of being re-derived per image.
  const QuantTable* luma_ptr;
  const QuantTable* chroma_ptr;
  if (config.use_custom_tables) {
    luma_ptr = &config.luma_table;
    chroma_ptr = &config.chroma_table;
  } else {
    const CodecContext::QualityTables qt = ctx.quality_tables(config.quality);
    luma_ptr = &qt.luma;
    chroma_ptr = &qt.chroma;
  }
  const QuantTable& luma_q = *luma_ptr;
  const QuantTable& chroma_q = *chroma_ptr;
  const bool color = img.channels == 3;
  const bool sub420 = color && config.subsampling == Subsampling::k420;
  const ReciprocalTable* recip[2] = {&ctx.reciprocal_for(luma_q, 0),
                                     color ? &ctx.reciprocal_for(chroma_q, 1) : nullptr};

  // Frame layout. A stripe is one MCU row: 8 pixel rows, 16 for 4:2:0.
  // Grayscale has the one luma component and no chroma at all.
  const int mcu_px = sub420 ? 2 * kBlockDim : kBlockDim;
  const int mcus_x = ceil_div(img.width, mcu_px);
  const int mcus_y = ceil_div(img.height, mcu_px);
  std::array<Component, kMaxComponents> comps{};
  std::size_t n_comps = 0;
  std::size_t stripe_blocks = 0;
  const auto add_component = [&](int id, int hv, int tq) {
    Component& c = comps[n_comps++];
    c.id = id;
    c.h = c.v = hv;
    c.tq = tq;
    c.blocks_x = hv * mcus_x;
    c.offset = stripe_blocks;
    stripe_blocks += static_cast<std::size_t>(c.blocks_x) * c.v;
  };
  add_component(1, sub420 ? 2 : 1, 0);
  if (color) {
    add_component(2, 1, 1);
    add_component(3, 1, 1);
  }
  const std::size_t total_blocks = stripe_blocks * static_cast<std::size_t>(mcus_y);

  // The scan's MCU as the stripe coder walks it: each component's h x v
  // blocks, `h` blocks further on per MCU.
  McuPattern pattern;
  for (std::size_t ci = 0; ci < n_comps; ++ci) {
    const Component& c = comps[ci];
    for (int by = 0; by < c.v; ++by)
      for (int bx = 0; bx < c.h; ++bx)
        pattern.add(static_cast<int>(ci),
                    c.offset + static_cast<std::size_t>(by) * c.blocks_x + bx,
                    static_cast<std::size_t>(c.h));
  }

  // Stripe buffers. Quantized stripes and their nonzero masks overwrite one
  // another, except under optimize_huffman, where every stripe is kept for
  // the statistics pass.
  pipeline::CoeffPlane& coeff = ctx.stripe_coeff;
  coeff.reshape(static_cast<int>(stripe_blocks), 1);
  const int kept_stripes = config.optimize_huffman ? mcus_y : 1;
  pipeline::QuantPlane& quant = ctx.encode_quant;
  quant.reshape(static_cast<int>(stripe_blocks), kept_stripes);
  ctx.encode_masks.resize(stripe_blocks * static_cast<std::size_t>(kept_stripes));
  const auto stripe_row = [&](int my) {
    return config.optimize_huffman ? static_cast<std::size_t>(my) * stripe_blocks : 0;
  };
  const auto stripe_quant = [&](int my) { return quant.data() + stripe_row(my) * kBlockSize; };
  const auto stripe_masks = [&](int my) { return ctx.encode_masks.data() + stripe_row(my); };

  // Front end of stripe `my`: colour convert and tile with the level shift
  // fused (4:4:4 colour straight from the RGB pixels into blocks, grayscale
  // from the 8-bit samples, 4:2:0 through float planes it can downsample),
  // transform, quantize, and take the nonzero masks the entropy coder
  // reads. Tiling sees only the stripe's own rows, so the last stripe
  // replicates the image's bottom row exactly as a whole-frame tiling would.
  const std::size_t row_bytes = static_cast<std::size_t>(img.width) * img.channels;
  const auto front_end = [&](int my) {
    const int y0 = my * mcu_px;
    const PixelView rows(img.pixels + static_cast<std::size_t>(y0) * row_bytes, img.width,
                         std::min(mcu_px, img.height - y0), img.channels);
    float* blocks = coeff.data();
    if (!color) {
      image::tile_image_blocks_into(rows, 0, mcus_x, 1, blocks, -128.0f);
    } else if (!sub420) {
      simd::kernels().rgb_to_ycbcr_blocks(rows.pixels, rows.width, rows.height, mcus_x,
                                          blocks + comps[0].offset * kBlockSize,
                                          blocks + comps[1].offset * kBlockSize,
                                          blocks + comps[2].offset * kBlockSize, -128.0f);
    } else {
      image::YCbCrPlanes& ycc = ctx.stripe_ycc;
      image::to_ycbcr_into(rows, ycc);
      image::downsample_2x2_into(ycc.cb, ctx.stripe_chroma[0]);
      image::downsample_2x2_into(ycc.cr, ctx.stripe_chroma[1]);
      const std::array<const PlaneF*, kMaxComponents> planes = {
          &ycc.y, &ctx.stripe_chroma[0], &ctx.stripe_chroma[1]};
      for (std::size_t ci = 0; ci < n_comps; ++ci)
        image::tile_blocks_into(*planes[ci], comps[ci].blocks_x, comps[ci].v,
                                blocks + comps[ci].offset * kBlockSize, -128.0f);
    }
    clock.lap(obs::Stage::kEncodeTile);
    fdct_batch(blocks, stripe_blocks);
    clock.lap(obs::Stage::kEncodeDct);
    std::int16_t* out = stripe_quant(my);
    for (std::size_t ci = 0; ci < n_comps; ++ci) {
      const Component& c = comps[ci];
      quantize_batch(blocks + c.offset * kBlockSize,
                     static_cast<std::size_t>(c.blocks_x) * c.v, *recip[c.tq],
                     out + c.offset * kBlockSize);
    }
    clock.lap(obs::Stage::kEncodeQuant);
    simd::kernels().nonzero_masks_i16(out, stripe_blocks, stripe_masks(my));
  };

  // Huffman table specs: the context's cached static tables, or optimal
  // tables from a statistics pass (the only per-image table derivation left).
  const CodecContext::StaticHuffman& stat = ctx.static_huffman();
  const HuffmanSpec* dc_luma = &stat.dc_luma_spec;
  const HuffmanSpec* ac_luma = &stat.ac_luma_spec;
  const HuffmanSpec* dc_chroma = &stat.dc_chroma_spec;
  const HuffmanSpec* ac_chroma = &stat.ac_chroma_spec;
  const HuffmanEncoder* dc_enc_luma = &stat.dc_luma;
  const HuffmanEncoder* ac_enc_luma = &stat.ac_luma;
  const HuffmanEncoder* dc_enc_chroma = &stat.dc_chroma;
  const HuffmanEncoder* ac_enc_chroma = &stat.ac_chroma;

  HuffmanSpec opt_dc_luma, opt_ac_luma, opt_dc_chroma, opt_ac_chroma;
  std::optional<HuffmanEncoder> opt_enc[4];
  if (config.optimize_huffman) {
    std::array<SymbolCounts, 2> counts{};  // [0]=luma tables, [1]=chroma tables
    std::array<SymbolCounts*, kMaxScanComponents> comp_counts{};
    for (std::size_t ci = 0; ci < n_comps; ++ci)
      comp_counts[ci] = &counts[static_cast<std::size_t>(comps[ci].tq)];
    ScanState scan;
    for (int my = 0; my < mcus_y; ++my) {
      front_end(my);
      count_stripe_symbols(stripe_quant(my), stripe_masks(my), mcus_x, pattern, comp_counts,
                           config.restart_interval, scan);
      clock.lap(obs::Stage::kEncodeEntropy);
    }
    opt_dc_luma = HuffmanSpec::build_optimal(counts[0].dc);
    opt_ac_luma = HuffmanSpec::build_optimal(counts[0].ac);
    dc_luma = &opt_dc_luma;
    ac_luma = &opt_ac_luma;
    opt_enc[0].emplace(opt_dc_luma);
    opt_enc[1].emplace(opt_ac_luma);
    dc_enc_luma = &*opt_enc[0];
    ac_enc_luma = &*opt_enc[1];
    if (color) {
      opt_dc_chroma = HuffmanSpec::build_optimal(counts[1].dc);
      opt_ac_chroma = HuffmanSpec::build_optimal(counts[1].ac);
      dc_chroma = &opt_dc_chroma;
      ac_chroma = &opt_ac_chroma;
      opt_enc[2].emplace(opt_dc_chroma);
      opt_enc[3].emplace(opt_ac_chroma);
      dc_enc_chroma = &*opt_enc[2];
      ac_enc_chroma = &*opt_enc[3];
    }
  }

  // Serialize the stream. Reserving up front keeps the byte vector from
  // reallocating through the entropy pass at typical codec qualities
  // (~3 bits/pixel = 24 bytes/block); denser streams grow once or twice,
  // and the returned capacity stays close to the payload for callers that
  // keep many streams resident.
  std::vector<std::uint8_t> out;
  out.reserve(1024 + config.comment.size() + total_blocks * 24);
  out.push_back(0xFF);
  out.push_back(kSOI);
  write_app0(out);
  write_comment(out, config.comment);
  write_dqt(out, luma_q, 0);
  if (color) write_dqt(out, chroma_q, 1);
  write_sof0(out, img.width, img.height, comps.data(), n_comps);
  write_dht(out, *dc_luma, 0, 0);
  write_dht(out, *ac_luma, 1, 0);
  if (color) {
    write_dht(out, *dc_chroma, 0, 1);
    write_dht(out, *ac_chroma, 1, 1);
  }
  if (config.restart_interval > 0) write_dri(out, config.restart_interval);
  write_sos_header(out, comps.data(), n_comps);
  clock.lap(obs::Stage::kEncodeEntropy);

  ScanTables tables;
  for (std::size_t ci = 0; ci < n_comps; ++ci) {
    const bool luma_tables = comps[ci].tq == 0;
    tables.dc[ci] = luma_tables ? dc_enc_luma : dc_enc_chroma;
    tables.ac[ci] = luma_tables ? ac_enc_luma : ac_enc_chroma;
  }
  BitWriter bw(out);
  ScanState scan;
  for (int my = 0; my < mcus_y; ++my) {
    if (!config.optimize_huffman) front_end(my);
    encode_stripe(bw, stripe_quant(my), stripe_masks(my), mcus_x, pattern, tables,
                  config.restart_interval, scan);
    clock.lap(obs::Stage::kEncodeEntropy);
  }
  bw.put_marker(kEOI);
  clock.lap(obs::Stage::kEncodeEntropy);
  clock.record(total_blocks);
  return out;
}

std::vector<std::uint8_t> encode(const image::Image& img, const EncoderConfig& config,
                                 pipeline::CodecContext& ctx) {
  return encode(img.view(), config, ctx);
}

std::vector<std::uint8_t> encode(PixelView img, const EncoderConfig& config) {
  return encode(img, config, pipeline::thread_codec_context());
}

std::vector<std::uint8_t> encode(const image::Image& img, const EncoderConfig& config) {
  return encode(img.view(), config, pipeline::thread_codec_context());
}

// ---------------------------------------------------------------------------
// Reference per-block encoder. The *structure* is the seed implementation
// (materialized padded plane, per-block BlockF copies, per-image table
// derivation); the per-coefficient arithmetic goes through the same
// shared primitives as the pipeline — fdct_aan's multiplicative descale
// and quantize()'s reciprocal rounding rule — so the two paths are
// byte-identical to each other. Streams may differ from the pre-reciprocal
// seed by one quantization step in rare round-half-even boundary cases.
// ---------------------------------------------------------------------------

namespace {

// One frame component prepared for entropy coding, per-block storage.
struct RefComponent {
  int id = 1;
  int h = 1, v = 1;
  int tq = 0;
  int blocks_x = 0;
  int blocks_y = 0;
  std::vector<QuantizedBlock> blocks;  // row-major grid, natural order
};

// Transforms and quantizes a plane into a block grid padded to
// (grid_blocks_x, grid_blocks_y) blocks, one materialized BlockF at a time.
RefComponent make_reference_component(const PlaneF& plane, int id, int h, int v, int tq,
                                      int grid_blocks_x, int grid_blocks_y,
                                      const QuantTable& table) {
  RefComponent comp;
  comp.id = id;
  comp.h = h;
  comp.v = v;
  comp.tq = tq;
  comp.blocks_x = grid_blocks_x;
  comp.blocks_y = grid_blocks_y;
  // Pad the plane up to the full grid by edge replication.
  PlaneF padded(grid_blocks_x * kBlockDim, grid_blocks_y * kBlockDim);
  for (int y = 0; y < padded.height(); ++y) {
    const int sy = std::min(y, plane.height() - 1);
    for (int x = 0; x < padded.width(); ++x) {
      const int sx = std::min(x, plane.width() - 1);
      padded.at(x, y) = plane.at(sx, sy);
    }
  }
  // Reciprocals hoisted out of the block loop so the reference baseline is
  // not slower than the seed's inline divide loop (keeps the bench's
  // reference-vs-pipeline speedup conservative).
  const ReciprocalTable recip(table);
  comp.blocks.resize(static_cast<std::size_t>(grid_blocks_x) * grid_blocks_y);
  for (int by = 0; by < grid_blocks_y; ++by) {
    for (int bx = 0; bx < grid_blocks_x; ++bx) {
      BlockF blk{};
      for (int y = 0; y < kBlockDim; ++y)
        for (int x = 0; x < kBlockDim; ++x)
          blk[static_cast<std::size_t>(y) * kBlockDim + x] =
              padded.at(bx * kBlockDim + x, by * kBlockDim + y) - 128.0f;
      comp.blocks[static_cast<std::size_t>(by) * grid_blocks_x + bx] =
          quantize(fdct(blk), recip);
    }
  }
  return comp;
}

}  // namespace

std::vector<std::uint8_t> encode_reference(const image::Image& img,
                                           const EncoderConfig& config) {
  validate_config(img.view(), config);

  const auto [luma_q, chroma_q] = effective_tables(config);
  const bool color = img.channels() == 3;
  const bool sub420 = color && config.subsampling == Subsampling::k420;

  image::YCbCrPlanes planes = image::to_ycbcr(img);
  std::vector<RefComponent> comps;
  int mcus_x = 0, mcus_y = 0;
  if (!color) {
    mcus_x = ceil_div(img.width(), kBlockDim);
    mcus_y = ceil_div(img.height(), kBlockDim);
    comps.push_back(make_reference_component(planes.y, 1, 1, 1, 0, mcus_x, mcus_y, luma_q));
  } else if (!sub420) {
    mcus_x = ceil_div(img.width(), kBlockDim);
    mcus_y = ceil_div(img.height(), kBlockDim);
    comps.push_back(make_reference_component(planes.y, 1, 1, 1, 0, mcus_x, mcus_y, luma_q));
    comps.push_back(
        make_reference_component(planes.cb, 2, 1, 1, 1, mcus_x, mcus_y, chroma_q));
    comps.push_back(
        make_reference_component(planes.cr, 3, 1, 1, 1, mcus_x, mcus_y, chroma_q));
  } else {
    mcus_x = ceil_div(img.width(), 2 * kBlockDim);
    mcus_y = ceil_div(img.height(), 2 * kBlockDim);
    const PlaneF cb_small = image::downsample_2x2(planes.cb);
    const PlaneF cr_small = image::downsample_2x2(planes.cr);
    comps.push_back(
        make_reference_component(planes.y, 1, 2, 2, 0, 2 * mcus_x, 2 * mcus_y, luma_q));
    comps.push_back(
        make_reference_component(cb_small, 2, 1, 1, 1, mcus_x, mcus_y, chroma_q));
    comps.push_back(
        make_reference_component(cr_small, 3, 1, 1, 1, mcus_x, mcus_y, chroma_q));
  }

  const auto block_of = [&](std::size_t ci, int gx, int gy) -> const QuantizedBlock& {
    const RefComponent& c = comps[ci];
    return c.blocks[static_cast<std::size_t>(gy) * c.blocks_x + gx];
  };

  // Huffman table specs: defaults (derived per image, as the seed did), or
  // optimal from a statistics pass.
  HuffmanSpec dc_luma = HuffmanSpec::default_dc_luma();
  HuffmanSpec ac_luma = HuffmanSpec::default_ac_luma();
  HuffmanSpec dc_chroma = HuffmanSpec::default_dc_chroma();
  HuffmanSpec ac_chroma = HuffmanSpec::default_ac_chroma();
  if (config.optimize_huffman) {
    std::array<SymbolCounts, 2> counts{};
    std::vector<int> dc_pred(comps.size(), 0);
    int mcu_index = 0;
    for_each_data_unit(
        comps.data(), comps.size(), mcus_x, mcus_y, config.restart_interval, mcu_index,
        [&](std::size_t ci, int gx, int gy) {
          count_block_symbols(block_of(ci, gx, gy), dc_pred[ci],
                              counts[static_cast<std::size_t>(comps[ci].tq)]);
        },
        [&](int) { std::fill(dc_pred.begin(), dc_pred.end(), 0); });
    dc_luma = HuffmanSpec::build_optimal(counts[0].dc);
    ac_luma = HuffmanSpec::build_optimal(counts[0].ac);
    if (color) {
      dc_chroma = HuffmanSpec::build_optimal(counts[1].dc);
      ac_chroma = HuffmanSpec::build_optimal(counts[1].ac);
    }
  }

  const HuffmanEncoder dc_enc_luma(dc_luma);
  const HuffmanEncoder ac_enc_luma(ac_luma);
  const HuffmanEncoder dc_enc_chroma(dc_chroma);
  const HuffmanEncoder ac_enc_chroma(ac_chroma);

  std::vector<std::uint8_t> out;
  out.push_back(0xFF);
  out.push_back(kSOI);
  write_app0(out);
  write_comment(out, config.comment);
  write_dqt(out, luma_q, 0);
  if (color) write_dqt(out, chroma_q, 1);
  write_sof0(out, img.width(), img.height(), comps.data(), comps.size());
  write_dht(out, dc_luma, 0, 0);
  write_dht(out, ac_luma, 1, 0);
  if (color) {
    write_dht(out, dc_chroma, 0, 1);
    write_dht(out, ac_chroma, 1, 1);
  }
  if (config.restart_interval > 0) write_dri(out, config.restart_interval);
  write_sos_header(out, comps.data(), comps.size());

  BitWriter bw(out);
  std::vector<int> dc_pred(comps.size(), 0);
  int mcu_index = 0;
  for_each_data_unit(
      comps.data(), comps.size(), mcus_x, mcus_y, config.restart_interval, mcu_index,
      [&](std::size_t ci, int gx, int gy) {
        const bool luma_tables = comps[ci].tq == 0;
        encode_block(bw, block_of(ci, gx, gy), dc_pred[ci],
                     luma_tables ? dc_enc_luma : dc_enc_chroma,
                     luma_tables ? ac_enc_luma : ac_enc_chroma);
      },
      [&](int rst_index) {
        bw.put_marker(static_cast<std::uint8_t>(kRST0 + rst_index));
        std::fill(dc_pred.begin(), dc_pred.end(), 0);
      });
  bw.put_marker(kEOI);
  return out;
}

}  // namespace dnj::jpeg
