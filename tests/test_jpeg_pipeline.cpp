// Equivalence suite for the planar block-batch codec core: the batched
// pipeline (MCU-row stripes: tiling + fdct_batch + reciprocal quantize +
// zero-alloc entropy pass) must produce byte-identical
// streams to the retained per-block reference encoder across image shapes,
// subsampling modes, and table precisions — and the batched primitives must
// be bit-identical to their per-block counterparts. On the decode side, the
// colour row loop must reproduce the plane-by-plane upsample + to_rgb
// composition byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>

#include "image/blocks.hpp"
#include "image/color.hpp"
#include "image/resample.hpp"
#include "jpeg/bitio.hpp"
#include "jpeg/block_coder.hpp"
#include "jpeg/codec.hpp"
#include "jpeg/dct.hpp"
#include "jpeg/pipeline/codec_context.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"

namespace dnj::jpeg {
namespace {

using image::Image;
using image::kBlockDim;
using image::kBlockSize;
using image::PlaneF;
using pipeline::CodecContext;
using pipeline::CoeffPlane;

Image textured_image(int w, int h, int channels, std::uint64_t seed) {
  Image img(w, h, channels);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> noise(-20, 20);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      for (int c = 0; c < channels; ++c) {
        const float base = 128.0f + 55.0f * std::sin(x * 0.23f + c) * std::cos(y * 0.19f);
        img.at(x, y, c) = image::clamp_u8(base + static_cast<float>(noise(rng)));
      }
  return img;
}

// --- batched primitives vs per-block paths --------------------------------

TEST(PipelinePrimitives, FdctBatchBitIdenticalToPerBlock) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<float> dist(-128.0f, 127.0f);
  CoeffPlane plane;
  plane.reshape(5, 3);
  for (std::size_t i = 0; i < plane.block_count() * kBlockSize; ++i)
    plane.data()[i] = dist(rng);

  std::vector<image::BlockF> reference(plane.block_count());
  for (std::size_t b = 0; b < plane.block_count(); ++b) {
    image::BlockF blk{};
    std::copy(plane.block(b), plane.block(b) + kBlockSize, blk.begin());
    reference[b] = fdct_aan(blk);
  }
  fdct_batch(plane.data(), plane.block_count());
  for (std::size_t b = 0; b < plane.block_count(); ++b)
    for (int k = 0; k < kBlockSize; ++k)
      EXPECT_EQ(plane.block(b)[k], reference[b][static_cast<std::size_t>(k)])
          << "block " << b << " band " << k;
}

TEST(PipelinePrimitives, IdctBatchBitIdenticalToPerBlock) {
  std::mt19937_64 rng(12);
  std::uniform_real_distribution<float> dist(-500.0f, 500.0f);
  CoeffPlane plane;
  plane.reshape(4, 4);
  for (std::size_t i = 0; i < plane.block_count() * kBlockSize; ++i)
    plane.data()[i] = dist(rng);

  std::vector<image::BlockF> reference(plane.block_count());
  for (std::size_t b = 0; b < plane.block_count(); ++b) {
    image::BlockF blk{};
    std::copy(plane.block(b), plane.block(b) + kBlockSize, blk.begin());
    reference[b] = idct_fast(blk);
  }
  idct_batch(plane.data(), plane.block_count());
  for (std::size_t b = 0; b < plane.block_count(); ++b)
    for (int k = 0; k < kBlockSize; ++k)
      EXPECT_EQ(plane.block(b)[k], reference[b][static_cast<std::size_t>(k)]);
}

TEST(PipelinePrimitives, QuantizeBatchMatchesPerBlockQuantize) {
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<float> dist(-900.0f, 900.0f);
  CoeffPlane coeffs;
  coeffs.reshape(3, 2);
  for (std::size_t i = 0; i < coeffs.block_count() * kBlockSize; ++i)
    coeffs.data()[i] = dist(rng);
  const QuantTable table = QuantTable::annex_k_luma();
  const ReciprocalTable recip(table);

  std::vector<std::int16_t> q(coeffs.block_count() * kBlockSize);
  quantize_batch(coeffs.data(), coeffs.block_count(), recip, q.data());

  for (std::size_t b = 0; b < coeffs.block_count(); ++b) {
    image::BlockF blk{};
    std::copy(coeffs.block(b), coeffs.block(b) + kBlockSize, blk.begin());
    const QuantizedBlock natural = quantize(blk, table);
    for (int k = 0; k < 64; ++k)
      EXPECT_EQ(q[b * kBlockSize + static_cast<std::size_t>(k)],
                natural[static_cast<std::size_t>(k)])
          << "block " << b << " coefficient " << k;
  }
}

TEST(PipelinePrimitives, DequantizeBatchMatchesPerBlock) {
  std::mt19937_64 rng(14);
  std::uniform_int_distribution<int> dist(-1024, 1024);
  const QuantTable table = QuantTable::annex_k_chroma();
  std::vector<std::int16_t> q(4 * kBlockSize);
  for (std::int16_t& v : q) v = static_cast<std::int16_t>(dist(rng));
  std::vector<float> coeffs(q.size());
  dequantize_batch(q.data(), 4, table, coeffs.data());
  for (std::size_t b = 0; b < 4; ++b) {
    QuantizedBlock blk{};
    std::copy(q.begin() + static_cast<std::ptrdiff_t>(b * kBlockSize),
              q.begin() + static_cast<std::ptrdiff_t>((b + 1) * kBlockSize), blk.begin());
    const image::BlockF ref = dequantize(blk, table);
    for (int k = 0; k < 64; ++k)
      EXPECT_EQ(coeffs[b * kBlockSize + static_cast<std::size_t>(k)],
                ref[static_cast<std::size_t>(k)]);
  }
}

TEST(PipelinePrimitives, TilingMatchesPaddedPlaneSplit) {
  // tile_blocks_into must reproduce pad_to_blocks + split_blocks exactly,
  // including edge replication on ragged dimensions.
  PlaneF plane(13, 9);
  std::mt19937_64 rng(15);
  std::uniform_real_distribution<float> dist(0.0f, 255.0f);
  for (float& v : plane.data()) v = dist(rng);

  int bx = 0, by = 0;
  const std::vector<image::BlockF> blocks = image::split_blocks(plane, &bx, &by);
  CoeffPlane tiled;
  tiled.tile_from(plane, bx, by, 0.0f);
  ASSERT_EQ(tiled.block_count(), blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b)
    for (int k = 0; k < kBlockSize; ++k)
      EXPECT_EQ(tiled.block(b)[k], blocks[b][static_cast<std::size_t>(k)]);

  // Grids larger than the padded plane replicate further (4:2:0 luma case).
  CoeffPlane wide;
  wide.tile_from(plane, bx + 1, by + 1, 0.0f);
  const float last = plane.at(plane.width() - 1, plane.height() - 1);
  EXPECT_EQ(wide.block(wide.block_count() - 1)[kBlockSize - 1], last);
}

TEST(PipelinePrimitives, UntileRoundTripsTile) {
  PlaneF plane(24, 16);
  std::mt19937_64 rng(16);
  std::uniform_real_distribution<float> dist(-128.0f, 127.0f);
  for (float& v : plane.data()) v = dist(rng);
  CoeffPlane tiled;
  tiled.tile_from(plane, 3, 2, 0.0f);
  PlaneF back(24, 16);
  image::untile_blocks_from(tiled.data(), 3, 2, back, 0.0f);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 24; ++x) EXPECT_EQ(back.at(x, y), plane.at(x, y));

  // The level-shift pair (-128 on tile, +128 on untile) reconstructs up to
  // one float rounding step — it is not an exact inverse for arbitrary
  // fractional samples, only for the integral pixel values the codec feeds.
  tiled.tile_from(plane, 3, 2, -128.0f);
  image::untile_blocks_from(tiled.data(), 3, 2, back, 128.0f);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 24; ++x) EXPECT_NEAR(back.at(x, y), plane.at(x, y), 1e-4f);
}

TEST(PipelinePrimitives, ReciprocalRoundingMatchesNearbyint) {
  // Anchor the codec's rounding rule independently of the encoder paths:
  // quantize must equal nearbyintf(c * (1/q)) — IEEE round half to even on
  // the float grid — for every step size, including near-half boundaries.
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<float> dist(-2000.0f, 2000.0f);
  for (std::uint16_t q : {1, 2, 3, 7, 10, 16, 99, 255, 1000, 65535}) {
    const QuantTable t = QuantTable::uniform(q);
    const float r = 1.0f / static_cast<float>(q);
    image::BlockF coeffs{};
    for (int k = 0; k < 64; ++k) {
      // Mix random values with exact and near half-way multiples of q.
      const float half = (static_cast<float>(k % 16) + 0.5f) * static_cast<float>(q);
      coeffs[static_cast<std::size_t>(k)] =
          (k % 3 == 0) ? dist(rng) : (k % 3 == 1 ? half : std::nextafterf(half, 1e30f));
    }
    const QuantizedBlock out = quantize(coeffs, t);
    for (int k = 0; k < 64; ++k) {
      const float expect = std::nearbyintf(coeffs[static_cast<std::size_t>(k)] * r);
      EXPECT_EQ(out[static_cast<std::size_t>(k)],
                static_cast<std::int16_t>(std::clamp(expect, -32768.0f, 32767.0f)))
          << "q=" << q << " k=" << k << " c=" << coeffs[static_cast<std::size_t>(k)];
    }
  }
}

// --- whole-stream equivalence ---------------------------------------------

struct PipelineCase {
  int w, h, channels;
  Subsampling sub;
  bool optimize_huffman;
  int restart_interval;
  bool deepn_tables = false;  // one custom table for luma and chroma
};

/// A DeepN-style table: fine steps for the low-frequency bands, coarse
/// ones for the high, the same table serving luma and chroma.
QuantTable deepn_style_table() {
  std::array<std::uint16_t, 64> steps{};
  for (int v = 0; v < 8; ++v)
    for (int u = 0; u < 8; ++u)
      steps[static_cast<std::size_t>(v * 8 + u)] =
          static_cast<std::uint16_t>(3 + 2 * (u + v) + (u * v) / 2);
  return QuantTable(steps);
}

class PipelineEquivalence : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineEquivalence, BatchedEncodeByteIdenticalToReference) {
  const auto p = GetParam();
  const Image img = textured_image(p.w, p.h, p.channels, 0xABCD + p.w * 31 + p.h);
  EncoderConfig cfg;
  cfg.quality = 80;
  cfg.subsampling = p.sub;
  cfg.optimize_huffman = p.optimize_huffman;
  cfg.restart_interval = p.restart_interval;
  if (p.deepn_tables) {
    cfg.use_custom_tables = true;
    cfg.luma_table = deepn_style_table();
    cfg.chroma_table = cfg.luma_table;
  }
  const auto reference = encode_reference(img, cfg);
  const auto pipeline = encode(img, cfg);
  EXPECT_EQ(pipeline, reference);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PipelineEquivalence,
    ::testing::Values(PipelineCase{8, 8, 1, Subsampling::k444, false, 0},
                      PipelineCase{32, 32, 1, Subsampling::k444, true, 0},
                      PipelineCase{17, 13, 1, Subsampling::k444, false, 0},
                      PipelineCase{1, 1, 1, Subsampling::k444, false, 0},
                      PipelineCase{16, 16, 3, Subsampling::k444, false, 0},
                      PipelineCase{33, 31, 3, Subsampling::k420, false, 0},
                      PipelineCase{33, 31, 3, Subsampling::k420, true, 0},
                      PipelineCase{9, 25, 3, Subsampling::k420, false, 2},
                      PipelineCase{64, 48, 3, Subsampling::k444, false, 3},
                      PipelineCase{40, 24, 3, Subsampling::k420, true, 1},
                      PipelineCase{128, 96, 3, Subsampling::k420, false, 0},
                      // The encoder works one MCU row (stripe) at a time;
                      // these cross stripe boundaries with restart intervals
                      // that end mid-row, partial last rows and blocks, and
                      // the whole-frame plane optimize_huffman keeps.
                      PipelineCase{1024, 24, 3, Subsampling::k444, false, 0, true},
                      PipelineCase{1030, 23, 3, Subsampling::k444, false, 129},
                      PipelineCase{257, 35, 1, Subsampling::k444, true, 33},
                      PipelineCase{66, 50, 3, Subsampling::k420, true, 5},
                      // A single-component scan with restarts through the
                      // stripe coder's cursor, and the fused colour kernel
                      // over a partial block column and a short last stripe.
                      PipelineCase{257, 35, 1, Subsampling::k444, false, 7},
                      PipelineCase{1030, 23, 3, Subsampling::k444, false, 0, true}));

TEST(PipelineEquivalenceExtra, CustomSixteenBitTables) {
  std::array<std::uint16_t, 64> steps{};
  for (int k = 0; k < 64; ++k)
    steps[static_cast<std::size_t>(k)] = static_cast<std::uint16_t>(1 + 17 * k);  // up to 1072
  EncoderConfig cfg;
  cfg.use_custom_tables = true;
  cfg.luma_table = QuantTable(steps);
  cfg.chroma_table = QuantTable(steps);
  for (const auto& dims : {std::pair<int, int>{16, 16}, {23, 41}}) {
    const Image img = textured_image(dims.first, dims.second, 3, 0xFEED);
    cfg.subsampling = Subsampling::k420;
    EXPECT_EQ(encode(img, cfg), encode_reference(img, cfg));
    cfg.subsampling = Subsampling::k444;
    EXPECT_EQ(encode(img, cfg), encode_reference(img, cfg));
  }
}

TEST(PipelineEquivalenceExtra, QualitySweepGray) {
  const Image img = textured_image(48, 48, 1, 0xC0FFEE);
  // Out-of-range qualities clamp like QuantTable::scaled — in particular
  // -1 must not collide with the context cache's empty sentinel.
  for (int q : {-1, 0, 1, 10, 50, 75, 95, 100, 300}) {
    EncoderConfig cfg;
    cfg.quality = q;
    EXPECT_EQ(encode(img, cfg), encode_reference(img, cfg)) << "quality " << q;
  }
}

// --- context reuse ----------------------------------------------------------

TEST(CodecContext, ReuseAcrossImagesAndShapesIsStateless) {
  CodecContext ctx;
  EncoderConfig cfg;
  cfg.quality = 85;
  // Interleave shapes/modes so every arena reshapes repeatedly; results
  // must match fresh-context encodes bit for bit.
  const Image a = textured_image(32, 32, 3, 1);
  const Image b = textured_image(17, 29, 1, 2);
  const Image c = textured_image(64, 48, 3, 3);
  for (int round = 0; round < 3; ++round) {
    for (const Image* img : {&a, &b, &c}) {
      CodecContext fresh;
      EXPECT_EQ(encode(*img, cfg, ctx), encode(*img, cfg, fresh));
    }
    cfg.subsampling = cfg.subsampling == Subsampling::k420 ? Subsampling::k444
                                                           : Subsampling::k420;
  }
}

TEST(CodecContext, RoundTripThroughContextMatchesDefaultPath) {
  CodecContext ctx;
  const Image img = textured_image(40, 40, 3, 4);
  EncoderConfig cfg;
  cfg.quality = 70;
  cfg.subsampling = Subsampling::k420;
  const RoundTrip via_ctx = round_trip(img, cfg, ctx);
  const RoundTrip via_default = round_trip(img, cfg);
  EXPECT_EQ(via_ctx.bytes, via_default.bytes);
  EXPECT_EQ(via_ctx.decoded, via_default.decoded);
}

TEST(CodecContext, ReciprocalCacheTracksTableChanges) {
  CodecContext ctx;
  const QuantTable a = QuantTable::uniform(4);
  const QuantTable b = QuantTable::uniform(9);
  const ReciprocalTable& ra = ctx.reciprocal_for(a, 0);
  EXPECT_EQ(ra.recip(0), 1.0f / 4.0f);
  const ReciprocalTable& rb = ctx.reciprocal_for(b, 0);
  EXPECT_EQ(rb.recip(0), 1.0f / 9.0f);
  // Chroma slot is independent.
  const ReciprocalTable& rc = ctx.reciprocal_for(a, 1);
  EXPECT_EQ(rc.recip(63), 1.0f / 4.0f);
}

// --- encode stage spans -------------------------------------------------------

/// Forces every trace to be sampled and clears the rings; undoes both on
/// exit (the tracer is process-wide).
struct TraceEverything {
  TraceEverything() {
    obs::Tracer::instance().set_sample_every(1);
    obs::Tracer::instance().clear();
  }
  ~TraceEverything() {
    obs::Tracer::instance().set_sample_every(0);
    obs::Tracer::instance().clear();
  }
};

TEST(EncodeSpans, OneSpanPerStageInsideTheCallerWithoutOverlap) {
  // The stripe loop sums each stage's time over the MCU rows and records
  // one span per stage, laid end to end, whatever the image height.
  TraceEverything tracing;
  struct Case {
    int w, h, channels;
    Subsampling sub;
    bool optimize_huffman;
    int restart_interval;
  };
  const Case cases[] = {{64, 48, 3, Subsampling::k444, false, 0},
                        {33, 31, 3, Subsampling::k420, false, 2},
                        {40, 24, 1, Subsampling::k444, true, 0}};
  const obs::Stage encode_stages[] = {obs::Stage::kEncodeTile, obs::Stage::kEncodeDct,
                                      obs::Stage::kEncodeQuant, obs::Stage::kEncodeEntropy};
  for (const Case& c : cases) {
    const Image img = textured_image(c.w, c.h, c.channels, 0x5BA);
    EncoderConfig cfg;
    cfg.subsampling = c.sub;
    cfg.optimize_huffman = c.optimize_huffman;
    cfg.restart_interval = c.restart_interval;
    const std::uint64_t trace = obs::Tracer::instance().start_trace();
    ASSERT_NE(trace, 0u);
    std::uint32_t caller_id = 0;
    {
      obs::TraceScope scope(trace, 0);
      obs::Span caller(obs::Stage::kBatch);
      caller_id = caller.id();
      encode(img, cfg);
    }
    std::vector<obs::SpanRecord> spans;
    for (const obs::SpanRecord& rec : obs::Tracer::instance().dump())
      if (rec.trace_id == trace) spans.push_back(rec);
    const auto caller = std::find_if(spans.begin(), spans.end(), [&](const obs::SpanRecord& r) {
      return r.span_id == caller_id;
    });
    ASSERT_NE(caller, spans.end());
    ASSERT_EQ(spans.size(), 5u) << c.w << "x" << c.h;
    std::vector<obs::SpanRecord> stages;
    for (const obs::Stage stage : encode_stages) {
      const auto n = std::count_if(spans.begin(), spans.end(),
                                   [&](const obs::SpanRecord& r) { return r.stage == stage; });
      EXPECT_EQ(n, 1) << obs::stage_name(stage) << " in " << c.w << "x" << c.h;
      for (const obs::SpanRecord& r : spans)
        if (r.stage == stage) stages.push_back(r);
    }
    for (const obs::SpanRecord& r : stages) {
      EXPECT_EQ(r.parent_id, caller_id) << obs::stage_name(r.stage);
      EXPECT_GE(r.start_ns, caller->start_ns) << obs::stage_name(r.stage);
      EXPECT_LE(r.end_ns, caller->end_ns) << obs::stage_name(r.stage);
      EXPECT_LE(r.start_ns, r.end_ns) << obs::stage_name(r.stage);
    }
    for (std::size_t i = 0; i < stages.size(); ++i)
      for (std::size_t j = i + 1; j < stages.size(); ++j)
        EXPECT_TRUE(stages[i].end_ns <= stages[j].start_ns ||
                    stages[j].end_ns <= stages[i].start_ns)
            << obs::stage_name(stages[i].stage) << " overlaps "
            << obs::stage_name(stages[j].stage);
  }
}

// --- colour decode oracle ----------------------------------------------------

/// The plane-by-plane colour decoder that the row loop replaced, composed
/// from library pieces that stay: coefficient planes -> dequantize + IDCT ->
/// untile, then each 2x2-subsampled chroma plane is cropped to
/// ceil(w/2) x ceil(h/2), upsampled with image::upsample_2x2 and re-padded
/// to the luma plane, and image::to_rgb converts. Quant table indices are
/// the encoder's: 0 for luma, 1 for chroma.
Image oracle_colour_decode(const std::vector<std::uint8_t>& bytes, bool subsampled) {
  CodecContext ctx;
  const JpegInfo info = decode_coefficients(bytes, ctx, 1);
  std::array<PlaneF, 3> planes;
  for (int ci = 0; ci < 3; ++ci) {
    const pipeline::QuantPlane& q = ctx.decode_coeffs[static_cast<std::size_t>(ci)];
    CoeffPlane fp;
    fp.reshape(q.blocks_x(), q.blocks_y());
    dequantize_batch(q.data(), fp.block_count(), *info.quant_tables[ci == 0 ? 0 : 1],
                     fp.data());
    idct_batch(fp.data(), fp.block_count());
    PlaneF& plane = planes[static_cast<std::size_t>(ci)];
    plane = PlaneF(q.blocks_x() * kBlockDim, q.blocks_y() * kBlockDim);
    image::untile_blocks_from(fp.data(), q.blocks_x(), q.blocks_y(), plane, 128.0f);
  }
  if (subsampled) {
    const int need_w = (info.width + 1) / 2;
    const int need_h = (info.height + 1) / 2;
    for (int ci = 1; ci < 3; ++ci) {
      PlaneF& plane = planes[static_cast<std::size_t>(ci)];
      PlaneF cropped(need_w, need_h);
      for (int y = 0; y < need_h; ++y)
        for (int x = 0; x < need_w; ++x) cropped.at(x, y) = plane.at(x, y);
      const PlaneF up = image::upsample_2x2(cropped, info.width, info.height);
      PlaneF padded(planes[0].width(), planes[0].height(), 128.0f);
      for (int y = 0; y < info.height; ++y)
        for (int x = 0; x < info.width; ++x) padded.at(x, y) = up.at(x, y);
      plane = std::move(padded);
    }
  }
  return image::to_rgb(planes[0], planes[1], planes[2], info.width, info.height);
}

TEST(ColourDecodeOracle, RowLoopMatchesPlaneCompositionByteForByte) {
  const int widths[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64, 65, 224, 227};
  const int heights[] = {1, 2, 5, 16, 17, 33, 224};
  std::vector<simd::Level> levels;
  for (simd::Level l : {simd::Level::kScalar, simd::Level::kSse2, simd::Level::kAvx2})
    if (simd::set_level(l)) levels.push_back(l);
  // One context across every case, so arenas reshape between shapes.
  CodecContext ctx;
  std::size_t cases = 0;
  for (const int w : widths) {
    for (const int h : heights) {
      const Image img = textured_image(w, h, 3, 0x0AC1E + 1000u * w + h);
      for (const Subsampling sub : {Subsampling::k420, Subsampling::k444}) {
        for (const int restart : {0, 2}) {
          EncoderConfig cfg;
          cfg.quality = 85;
          cfg.subsampling = sub;
          cfg.restart_interval = restart;
          const std::vector<std::uint8_t> bytes = encode(img, cfg);
          for (const simd::Level level : levels) {
            ASSERT_TRUE(simd::set_level(level));
            const Image expect = oracle_colour_decode(bytes, sub == Subsampling::k420);
            const Image got = decode(bytes, ctx);
            ASSERT_EQ(got.data().size(), expect.data().size());
            EXPECT_EQ(0, std::memcmp(got.data().data(), expect.data().data(),
                                     got.data().size()))
                << w << "x" << h << (sub == Subsampling::k420 ? " 4:2:0" : " 4:4:4")
                << " restart=" << restart << " level=" << simd::level_name(level);
            ++cases;
          }
        }
      }
    }
  }
  simd::set_level(simd::max_supported_level());
  EXPECT_EQ(cases, 16u * 7u * 2u * 2u * levels.size());
}

/// A 3-component stream whose SOF0 declares sampling bytes `hv` (0xHV per
/// component) and whose scan fits that layout: every block is all zero (DC
/// difference 0, then EOB) under the Annex K tables, so the frame is flat
/// 128 grey. The other headers are those of an encoded 4:4:4 stream, whose
/// tables and SOS are valid for any layout.
std::vector<std::uint8_t> flat_stream_with_sampling(int w, int h,
                                                    const std::array<std::uint8_t, 3>& hv) {
  EncoderConfig cfg;
  cfg.subsampling = Subsampling::k444;
  const std::vector<std::uint8_t> base = encode(Image(w, h, 3), cfg);
  std::size_t sof = 0;
  while (sof + 1 < base.size() && !(base[sof] == 0xFF && base[sof + 1] == 0xC0)) ++sof;
  std::size_t sos = sof;
  while (sos + 1 < base.size() && !(base[sos] == 0xFF && base[sos + 1] == 0xDA)) ++sos;
  EXPECT_LT(sos + 3, base.size());
  const std::size_t scan = sos + 2 + (static_cast<std::size_t>(base[sos + 2]) << 8 | base[sos + 3]);
  std::vector<std::uint8_t> out(base.begin(), base.begin() + static_cast<long>(scan));
  int max_h = 1, max_v = 1;
  for (int c = 0; c < 3; ++c) {
    out[sof + 11 + 3 * static_cast<std::size_t>(c)] = hv[static_cast<std::size_t>(c)];
    max_h = std::max(max_h, hv[static_cast<std::size_t>(c)] >> 4);
    max_v = std::max(max_v, hv[static_cast<std::size_t>(c)] & 0x0F);
  }
  const int mcus = ((w + 8 * max_h - 1) / (8 * max_h)) * ((h + 8 * max_v - 1) / (8 * max_v));
  CodecContext ctx;
  const CodecContext::StaticHuffman& huff = ctx.static_huffman();
  // Every data unit of every MCU reads the one zero block (step 0).
  const std::array<std::int16_t, kBlockSize> zero{};
  const std::uint64_t zero_mask = 0;
  McuPattern pattern;
  ScanTables tables;
  for (std::size_t c = 0; c < 3; ++c) {
    for (int b = 0; b < (hv[c] >> 4) * (hv[c] & 0x0F); ++b) pattern.add(static_cast<int>(c), 0, 0);
    tables.dc[c] = c == 0 ? &huff.dc_luma : &huff.dc_chroma;
    tables.ac[c] = c == 0 ? &huff.ac_luma : &huff.ac_chroma;
  }
  BitWriter bw(out);
  ScanState state;
  encode_stripe(bw, zero.data(), &zero_mask, mcus, pattern, tables, 0, state);
  bw.flush();
  out.push_back(0xFF);
  out.push_back(0xD9);  // EOI
  return out;
}

TEST(ColourDecodeOracle, SamplingLayoutRule) {
  // Colour reconstruction feeds a component at the frame's maximum sampling
  // from its plane and upsamples a chroma component at exactly half the
  // maximum on both axes; any other layout, subsampled luma included,
  // throws. Every scan here fits its layout, so the entropy stage accepts
  // it and the throw comes from reconstruction.
  struct Layout {
    std::array<std::uint8_t, 3> hv;
    bool decodes;
  };
  const Layout layouts[] = {
      {{0x22, 0x11, 0x11}, true},   // 4:2:0
      {{0x22, 0x22, 0x11}, true},   // Cb at full resolution, Cr upsampled
      {{0x21, 0x21, 0x21}, true},   // every component at the 2x1 maximum
      {{0x11, 0x22, 0x22}, false},  // subsampled luma
      {{0x21, 0x11, 0x11}, false},  // 4:2:2: chroma halved on one axis only
      {{0x12, 0x11, 0x11}, false},  // 4:4:0
  };
  for (const Layout& layout : layouts) {
    const std::vector<std::uint8_t> bytes = flat_stream_with_sampling(40, 24, layout.hv);
    char name[32];
    std::snprintf(name, sizeof(name), "sampling %02X/%02X/%02X", layout.hv[0], layout.hv[1],
                  layout.hv[2]);
    SCOPED_TRACE(name);
    CodecContext ctx;
    EXPECT_NO_THROW((void)decode_coefficients(bytes, ctx, 1));
    if (layout.decodes) {
      const Image img = decode(bytes, ctx);
      ASSERT_EQ(img.data().size(), 40u * 24u * 3u);
      for (const std::uint8_t v : img.data()) ASSERT_EQ(v, 128);
      continue;
    }
    try {
      (void)decode(bytes, ctx);
      ADD_FAILURE() << "decoded an unsupported layout";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported sampling factor combination"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CodecContext, DecodeThroughReusedContextMatchesFresh) {
  CodecContext ctx;
  EncoderConfig cfg;
  cfg.quality = 75;
  cfg.subsampling = Subsampling::k420;
  const Image big = textured_image(64, 64, 3, 5);
  const Image small = textured_image(24, 8, 1, 6);
  const auto big_bytes = encode(big, cfg);
  const auto small_bytes = encode(small, cfg);
  // Decode large, then small (arenas shrink), then large again.
  const Image d1 = decode(big_bytes, ctx);
  const Image d2 = decode(small_bytes, ctx);
  const Image d3 = decode(big_bytes, ctx);
  CodecContext fresh1, fresh2;
  EXPECT_EQ(d1, decode(big_bytes, fresh1));
  EXPECT_EQ(d2, decode(small_bytes, fresh2));
  EXPECT_EQ(d1, d3);
}

}  // namespace
}  // namespace dnj::jpeg
