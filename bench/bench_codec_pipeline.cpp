// Perf baseline for the planar block-batch codec core: times each pipeline
// stage (tile, DCT, quant, entropy) in isolation, then the full
// transcode-style encode through the reference per-block path vs the
// zero-alloc CodecContext pipeline, and records everything to
// bench_results/BENCH_codec_pipeline.json. It measures what wirebench
// cannot: each stage in isolation, per-SIMD-level rows, and
// restart-interval streams decoded at several thread counts. The encode
// comparison doubles as an end-to-end equivalence smoke: the two paths
// must produce byte-identical streams.
//
// The write-path row times one single-thread 1024x1024 4:4:4 encode with a
// DeepN-designed table (the rgb1024-deepn shape), whole and per stage. The
// read-path row times single-thread decodes of 224x224 4:2:0 q85 streams
// (the rgb224-decode shape), whole and their coefficient half. When
// CMake found libjpeg at configure time, libjpeg's islow codec runs beside
// each on the same input (for the encode, the same tables and static
// Huffman coding) as a yardstick. Reported, not gated.
//
// Usage: bench_codec_pipeline [num_images] [repeats]
//   num_images — dataset size (default 256)
//   repeats    — timed samples per measurement; best sample reported
//                (default 3; use 1 for a CI smoke run). Each sample repeats
//                its body for at least 20 ms; the write- and read-path rows
//                instead report the median of 10x / 30x `repeats` runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <vector>

#if defined(DNJ_HAVE_LIBJPEG)
#include <cstdio>  // jpeglib.h needs FILE and size_t declared first
#include <jpeglib.h>
#endif

#include "bench_common.hpp"
#include "core/deepnjpeg.hpp"
#include "image/blocks.hpp"
#include "image/color.hpp"
#include "jpeg/bitio.hpp"
#include "jpeg/block_coder.hpp"
#include "jpeg/codec.hpp"
#include "jpeg/dct.hpp"
#include "jpeg/pipeline/codec_context.hpp"
#include "jpeg/quant.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"

using namespace dnj;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Seconds per call of `fn`, best of `repeats` samples. Each sample calls
// `fn` back to back until the calls add up to at least kMinSampleS, so a
// sub-millisecond body is not timed by one call. `restore` runs before
// every call, outside the timed region: an in-place stage restores its
// pristine input there, so it never transforms its own output.
constexpr double kMinSampleS = 0.020;

template <typename Fn, typename Restore>
double best_of(int repeats, Fn&& fn, Restore&& restore) {
  double best = 1e100;
  for (int r = 0; r < repeats; ++r) {
    double timed = 0;
    int calls = 0;
    do {
      restore();
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      timed += seconds_since(t0);
      ++calls;
    } while (timed < kMinSampleS);
    best = std::min(best, timed / calls);
  }
  return best;
}

template <typename Fn>
double best_of(int repeats, Fn&& fn) {
  return best_of(repeats, fn, [] {});
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// One codec's single-thread run over a yardstick input: the median and
// fastest of its timed runs, the output size, and (the write path's own
// encoder only) the median of each stage's span over as many traced
// encodes.
struct CodecRow {
  const char* codec = "";
  std::function<std::size_t()> run;  // returns the output size
  double median_s = 0, min_s = 0;
  std::size_t bytes = 0;
  bool has_stages = false;
  double stage_s[4] = {};  // tile (colour included), dct, quant, entropy
};

// Times `runs` runs per row, alternating the rows run by run, so a machine
// that slows down mid-measurement slows every codec alike.
void time_rows(std::vector<CodecRow>& rows, int runs) {
  std::vector<std::vector<double>> s(rows.size());
  for (CodecRow& row : rows) row.bytes = row.run();  // warm-up
  for (int r = 0; r < runs; ++r)
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      rows[i].run();
      s[i].push_back(seconds_since(t0));
    }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].median_s = median(s[i]);
    rows[i].min_s = *std::min_element(s[i].begin(), s[i].end());
  }
}

// The rgb1024-deepn frame shape: a 1024x1024 mosaic of 32x32 colour tiles
// from the synthetic generator.
image::Image write_path_frame() {
  constexpr int kTile = 32, kSide = 1024, kPerSide = kSide / kTile;
  data::GeneratorConfig cfg;
  cfg.width = kTile;
  cfg.height = kTile;
  cfg.channels = 3;
  cfg.seed = 0x1024D;
  const data::SyntheticDatasetGenerator gen(cfg);
  image::Image frame(kSide, kSide, 3);
  for (int t = 0; t < kPerSide * kPerSide; ++t) {
    const image::Image tile =
        gen.render(static_cast<data::ClassKind>(t % data::kNumClassKinds), t);
    for (int y = 0; y < kTile; ++y)
      std::copy_n(tile.data().data() + static_cast<std::size_t>(y) * kTile * 3, kTile * 3,
                  &frame.at((t % kPerSide) * kTile, (t / kPerSide) * kTile + y));
  }
  return frame;
}

#if defined(DNJ_HAVE_LIBJPEG)
// libjpeg's encode of `img`: islow DCT, 4:4:4, static Huffman tables, and
// `table` verbatim for luma and chroma (scale 100 = unscaled). Returns the
// stream size.
std::size_t libjpeg_encode(const image::Image& img, const jpeg::QuantTable& table) {
  jpeg_compress_struct cinfo;
  jpeg_error_mgr jerr;
  cinfo.err = jpeg_std_error(&jerr);
  jpeg_create_compress(&cinfo);
  unsigned char* buf = nullptr;
  unsigned long size = 0;
  jpeg_mem_dest(&cinfo, &buf, &size);
  cinfo.image_width = static_cast<JDIMENSION>(img.width());
  cinfo.image_height = static_cast<JDIMENSION>(img.height());
  cinfo.input_components = 3;
  cinfo.in_color_space = JCS_RGB;
  jpeg_set_defaults(&cinfo);
  cinfo.dct_method = JDCT_ISLOW;
  cinfo.optimize_coding = FALSE;
  for (int c = 0; c < 3; ++c) {
    cinfo.comp_info[c].h_samp_factor = 1;
    cinfo.comp_info[c].v_samp_factor = 1;
  }
  unsigned int steps[64];
  for (int k = 0; k < 64; ++k) steps[k] = table.natural()[static_cast<std::size_t>(k)];
  jpeg_add_quant_table(&cinfo, 0, steps, 100, TRUE);
  jpeg_add_quant_table(&cinfo, 1, steps, 100, TRUE);
  jpeg_start_compress(&cinfo, TRUE);
  std::vector<JSAMPROW> rows(static_cast<std::size_t>(img.height()));
  for (int y = 0; y < img.height(); ++y)
    rows[static_cast<std::size_t>(y)] = const_cast<JSAMPROW>(
        img.data().data() + static_cast<std::size_t>(y) * img.width() * 3);
  while (cinfo.next_scanline < cinfo.image_height)
    jpeg_write_scanlines(&cinfo, rows.data() + cinfo.next_scanline,
                         cinfo.image_height - cinfo.next_scanline);
  jpeg_finish_compress(&cinfo);
  jpeg_destroy_compress(&cinfo);
  std::free(buf);
  return static_cast<std::size_t>(size);
}

// libjpeg's decode of `stream` to interleaved RGB: islow IDCT and the
// library's default (fancy) upsampling. Returns the pixel byte count.
std::size_t libjpeg_decode(const std::vector<std::uint8_t>& stream,
                           std::vector<std::uint8_t>& pixels) {
  jpeg_decompress_struct cinfo;
  jpeg_error_mgr jerr;
  cinfo.err = jpeg_std_error(&jerr);
  jpeg_create_decompress(&cinfo);
  jpeg_mem_src(&cinfo, stream.data(), static_cast<unsigned long>(stream.size()));
  jpeg_read_header(&cinfo, TRUE);
  cinfo.dct_method = JDCT_ISLOW;
  jpeg_start_decompress(&cinfo);
  const std::size_t row_bytes =
      static_cast<std::size_t>(cinfo.output_width) * cinfo.output_components;
  pixels.resize(row_bytes * cinfo.output_height);
  while (cinfo.output_scanline < cinfo.output_height) {
    JSAMPROW row = pixels.data() + row_bytes * cinfo.output_scanline;
    jpeg_read_scanlines(&cinfo, &row, 1);
  }
  jpeg_finish_decompress(&cinfo);
  jpeg_destroy_decompress(&cinfo);
  return pixels.size();
}
#endif

// rgb224-decode-shaped uploads, one per synthetic content class, since the
// workload's pool mixes the classes and decode cost follows the content.
constexpr int kReadStreams = data::kNumClassKinds;

// The read-path rows over those uploads, one run decoding each once: our
// decode, its coefficient half alone (decode_coefficients), and libjpeg's
// decode when it was found.
std::vector<CodecRow> measure_read_path(int runs) {
  data::GeneratorConfig gen_cfg;
  gen_cfg.width = 224;
  gen_cfg.height = 224;
  gen_cfg.channels = 3;
  gen_cfg.seed = 0x224D;
  const data::SyntheticDatasetGenerator gen(gen_cfg);
  jpeg::EncoderConfig cfg;
  cfg.quality = 85;
  cfg.subsampling = jpeg::Subsampling::k420;
  jpeg::pipeline::CodecContext ctx;
  std::vector<std::vector<std::uint8_t>> streams;
  for (int k = 0; k < kReadStreams; ++k)
    streams.push_back(jpeg::encode(gen.render(static_cast<data::ClassKind>(k), 0), cfg, ctx));

  std::vector<CodecRow> rows(2);
  rows[0].codec = "dnj";
  rows[0].run = [&] {
    std::size_t n = 0;
    for (const auto& stream : streams) n += jpeg::decode(stream, ctx, 1).data().size();
    return n;
  };
  rows[1].codec = "dnj-coefficients";
  rows[1].run = [&] {
    for (const auto& stream : streams) (void)jpeg::decode_coefficients(stream, ctx, 1);
    return std::size_t{0};
  };
#if defined(DNJ_HAVE_LIBJPEG)
  std::vector<std::uint8_t> pixels;
  rows.emplace_back();
  rows[2].codec = "libjpeg-turbo-islow";
  rows[2].run = [&] {
    std::size_t n = 0;
    for (const auto& stream : streams) n += libjpeg_decode(stream, pixels);
    return n;
  };
#endif
  time_rows(rows, runs);
  // Per image from here on.
  for (CodecRow& row : rows) {
    row.median_s /= kReadStreams;
    row.min_s /= kReadStreams;
  }
  return rows;
}

// The write-path rows: ours, and libjpeg's when it was found.
std::vector<CodecRow> measure_write_path(int runs) {
  const image::Image frame = write_path_frame();
  data::GeneratorConfig design_cfg;
  design_cfg.channels = 3;
  design_cfg.seed = 0xDE5;
  const jpeg::QuantTable table =
      core::DeepNJpeg::design(data::SyntheticDatasetGenerator(design_cfg).generate(4)).table;
  jpeg::EncoderConfig cfg;
  cfg.subsampling = jpeg::Subsampling::k444;
  cfg.use_custom_tables = true;
  cfg.luma_table = table;
  cfg.chroma_table = table;

  jpeg::pipeline::CodecContext ctx;
  std::vector<CodecRow> rows(1);
  rows[0].codec = "dnj";
  rows[0].run = [&] { return jpeg::encode(frame, cfg, ctx).size(); };
#if defined(DNJ_HAVE_LIBJPEG)
  rows.emplace_back();
  rows[1].codec = "libjpeg-turbo-islow";
  rows[1].run = [&] { return libjpeg_encode(frame, table); };
#endif
  time_rows(rows, runs);

  // Per stage: the encoder's own stage spans, over as many traced encodes.
  obs::Tracer& tracer = obs::Tracer::instance();
  const std::uint32_t saved_sampling = tracer.sample_every();
  tracer.set_sample_every(1);
  const obs::Stage stages[4] = {obs::Stage::kEncodeTile, obs::Stage::kEncodeDct,
                                obs::Stage::kEncodeQuant, obs::Stage::kEncodeEntropy};
  std::vector<double> stage_runs[4];
  for (int r = 0; r < runs; ++r) {
    tracer.clear();
    const std::uint64_t trace = tracer.start_trace();
    {
      obs::TraceScope scope(trace, 0);
      (void)jpeg::encode(frame, cfg, ctx);
    }
    double sums[4] = {};
    for (const obs::SpanRecord& rec : tracer.dump())
      for (int i = 0; i < 4; ++i)
        if (rec.trace_id == trace && rec.stage == stages[i])
          sums[i] += static_cast<double>(rec.end_ns - rec.start_ns) * 1e-9;
    for (int i = 0; i < 4; ++i) stage_runs[i].push_back(sums[i]);
  }
  tracer.clear();
  tracer.set_sample_every(saved_sampling);
  rows[0].has_stages = true;
  for (int i = 0; i < 4; ++i) rows[0].stage_s[i] = median(stage_runs[i]);
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const int num_images = argc > 1 ? std::atoi(argv[1]) : 256;
  const int repeats = argc > 2 ? std::max(1, std::atoi(argv[2])) : 3;
  if (num_images <= 0) {
    std::fprintf(stderr, "bench_codec_pipeline: bad image count\n");
    return 1;
  }
#if !defined(_WIN32)
  // The restart-parallel rows below ask for up to 8 threads; give the pool
  // real workers even on single-core CI boxes (the pool otherwise sizes
  // itself to hardware concurrency). Never overrides a user's DNJ_THREADS.
  setenv("DNJ_THREADS", "8", 0);
#endif

  // Transcode-style workload: the dataset shape every experiment re-encodes
  // millions of times (32x32 grayscale, 4:4:4, q = 85).
  data::GeneratorConfig gen_cfg;
  gen_cfg.width = 32;
  gen_cfg.height = 32;
  gen_cfg.channels = 1;
  gen_cfg.num_classes = 8;
  gen_cfg.seed = 0xC0DEC;
  const data::Dataset ds =
      data::SyntheticDatasetGenerator(gen_cfg).generate((num_images + 7) / 8);

  jpeg::EncoderConfig enc_cfg;
  enc_cfg.quality = 85;
  enc_cfg.subsampling = jpeg::Subsampling::k444;

  // --- per-stage throughput (single thread, one warm context) -------------
  jpeg::pipeline::CodecContext ctx;
  const auto [luma_q, chroma_q] = jpeg::effective_tables(enc_cfg);
  (void)chroma_q;
  const int bx = image::padded_dim(gen_cfg.width) / image::kBlockDim;
  const int by = image::padded_dim(gen_cfg.height) / image::kBlockDim;
  const std::size_t blocks_per_image = static_cast<std::size_t>(bx) * by;
  const std::size_t total_blocks = blocks_per_image * ds.size();

  // Per-image working set so every stage runs over real per-image content
  // (entropy cost is content-dependent). The DCT inputs are restored from
  // a pristine tiled copy before every timed call (untimed) so calls never
  // transform already-transformed data — the quant and entropy stages
  // below see exactly one DCT application.
  std::vector<jpeg::pipeline::CoeffPlane> coeffs(ds.size());
  std::vector<jpeg::pipeline::CoeffPlane> tiled(ds.size());
  std::vector<jpeg::pipeline::QuantPlane> quants(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    coeffs[i].reshape(bx, by);
    tiled[i].reshape(bx, by);
    quants[i].reshape(bx, by);
  }

  // Stage bodies shared by the ambient measurement below and the per-level
  // SIMD rows further down, so the timing discipline (pristine-copy restore
  // before every DCT call, quant-then-idct pairing) exists exactly once.
  const jpeg::ReciprocalTable recip(luma_q);
  // Plain local copy: structured bindings cannot be captured by lambdas in
  // C++17.
  const jpeg::QuantTable dq_table = luma_q;
  const auto measure_tile = [&] {
    return best_of(repeats, [&] {
      for (std::size_t i = 0; i < ds.size(); ++i)
        image::tile_image_blocks_into(ds.samples[i].image, 0, bx, by, tiled[i].data(),
                                      -128.0f);
    });
  };
  // Restores the DCT inputs from the pristine tiled copy before every timed
  // call (untimed) so calls never transform already-transformed data — and
  // leaves `coeffs` holding exactly one DCT application for the quant and
  // entropy stages.
  const auto measure_dct = [&] {
    return best_of(
        repeats,
        [&] {
          for (std::size_t i = 0; i < ds.size(); ++i)
            jpeg::fdct_batch(coeffs[i].data(), coeffs[i].block_count());
        },
        [&] {
          for (std::size_t i = 0; i < ds.size(); ++i)
            std::copy(tiled[i].data(), tiled[i].data() + tiled[i].block_count() * 64,
                      coeffs[i].data());
        });
  };
  const auto measure_quant = [&] {
    return best_of(repeats, [&] {
      for (std::size_t i = 0; i < ds.size(); ++i)
        jpeg::quantize_batch(coeffs[i].data(), coeffs[i].block_count(), recip,
                             quants[i].data());
    });
  };
  // Decode-side pair: dequantize is cheap, idct dominates. Clobbers
  // `coeffs`.
  const auto measure_dequant_idct = [&] {
    return best_of(repeats, [&] {
      for (std::size_t i = 0; i < ds.size(); ++i) {
        jpeg::dequantize_batch(quants[i].data(), quants[i].block_count(), dq_table,
                               coeffs[i].data());
        jpeg::idct_batch(coeffs[i].data(), coeffs[i].block_count());
      }
    });
  };

  const double tile_s = measure_tile();
  const double dct_s = measure_dct();
  const double quant_s = measure_quant();

  // Entropy: each image's blocks are one single-component scan, coded as
  // the encoder codes a stripe: one batched nonzero-mask call, then the
  // stripe coder.
  const jpeg::pipeline::CodecContext::StaticHuffman& huff = ctx.static_huffman();
  jpeg::McuPattern gray_mcu;
  gray_mcu.add(0, 0, 1);
  jpeg::ScanTables gray_tables;
  gray_tables.dc[0] = &huff.dc_luma;
  gray_tables.ac[0] = &huff.ac_luma;
  std::vector<std::uint8_t> scratch;
  std::vector<std::uint64_t> masks(blocks_per_image);
  const double entropy_s = best_of(repeats, [&] {
    for (std::size_t i = 0; i < ds.size(); ++i) {
      scratch.clear();
      jpeg::BitWriter bw(scratch);
      jpeg::ScanState scan;
      simd::kernels().nonzero_masks_i16(quants[i].data(), blocks_per_image, masks.data());
      jpeg::encode_stripe(bw, quants[i].data(), masks.data(),
                          static_cast<int>(blocks_per_image), gray_mcu, gray_tables, 0, scan);
      bw.flush();
    }
  });

  // --- end-to-end: reference per-block encoder vs pipeline ----------------
  // Equivalence gate first (untimed): every image of the workload must
  // produce byte-identical streams on both paths.
  bool identical = true;
  for (const data::Sample& s : ds.samples)
    identical =
        identical && jpeg::encode_reference(s.image, enc_cfg) == jpeg::encode(s.image, enc_cfg, ctx);

  std::vector<std::uint8_t> sink;
  const double reference_s = best_of(repeats, [&] {
    for (const data::Sample& s : ds.samples)
      sink = jpeg::encode_reference(s.image, enc_cfg);
  });
  const double pipeline_s = best_of(repeats, [&] {
    for (const data::Sample& s : ds.samples) sink = jpeg::encode(s.image, enc_cfg, ctx);
  });
  const double speedup = reference_s / pipeline_s;

  // --- decode throughput through a warm context ---------------------------
  std::vector<std::vector<std::uint8_t>> streams;
  streams.reserve(ds.size());
  for (const data::Sample& s : ds.samples)
    streams.push_back(jpeg::encode(s.image, enc_cfg, ctx));
  const double decode_s = best_of(repeats, [&] {
    for (const auto& bytes : streams) jpeg::decode(bytes, ctx);
  });

  // --- decode per-stage rows ----------------------------------------------
  // The encode/decode asymmetry tracked stage by stage: entropy decode in
  // isolation (decode_coefficients stops after the Huffman pass), the
  // dequantize+IDCT pair (measured above on the same planes), and the
  // block-grid -> plane untile that backs pixel reconstruction.
  const double huffdec_s = best_of(repeats, [&] {
    for (const auto& bytes : streams) jpeg::decode_coefficients(bytes, ctx, 1);
  });
  const double dequant_idct_s = measure_dequant_idct();
  image::PlaneF untile_plane(gen_cfg.width, gen_cfg.height);
  const double untile_s = best_of(repeats, [&] {
    for (std::size_t i = 0; i < ds.size(); ++i)
      image::untile_blocks_from(coeffs[i].data(), bx, by, untile_plane, 128.0f);
  });

  // --- restart-interval parallel decode -----------------------------------
  // One larger single-component stream whose scan carries restart markers:
  // the decoder pre-scans RST boundaries and hands independent segments to
  // the thread pool. Pixels must be byte-identical at every thread count.
  data::GeneratorConfig big_cfg = gen_cfg;
  big_cfg.width = 256;
  big_cfg.height = 256;
  big_cfg.seed = 0xD417;
  const image::Image big_img =
      data::SyntheticDatasetGenerator(big_cfg).render(data::ClassKind::kBandNoise, 0);
  jpeg::EncoderConfig rst_cfg = enc_cfg;
  rst_cfg.restart_interval = 32;  // 32 MCU rows -> 32 independent segments
  const std::vector<std::uint8_t> rst_stream = jpeg::encode(big_img, rst_cfg, ctx);
  const image::Image rst_ref = jpeg::decode(rst_stream, ctx, 1);
  bool restart_identical = true;
  struct RestartRow {
    int threads;
    double s = 0;
  };
  std::vector<RestartRow> restart_rows;
  for (const int nt : {1, 2, 8}) {
    const image::Image out = jpeg::decode(rst_stream, ctx, nt);
    restart_identical = restart_identical && out.data() == rst_ref.data();
    RestartRow row;
    row.threads = nt;
    row.s = best_of(repeats, [&] {
      for (int r = 0; r < 16; ++r) (void)jpeg::decode(rst_stream, ctx, nt);
    });
    restart_rows.push_back(row);
  }

  // --- per-kernel throughput at every supported SIMD level ----------------
  // The sections above ran at the ambient level (DNJ_SIMD / auto); this one
  // pins each level in turn and reruns the same four stage bodies, so the
  // JSON carries scalar vs SSE2 vs AVX2 rows measured with the identical
  // buffer discipline.
  struct LevelStages {
    simd::Level level;
    double tile_s = 0, dct_s = 0, quant_s = 0, idct_s = 0;
  };
  std::vector<LevelStages> level_rows;
  const simd::Level ambient_level = simd::active_level();
  for (simd::Level level :
       {simd::Level::kScalar, simd::Level::kSse2, simd::Level::kAvx2}) {
    if (!simd::set_level(level)) continue;  // not supported on this machine/build
    LevelStages row;
    row.level = level;
    row.tile_s = measure_tile();
    row.dct_s = measure_dct();
    row.quant_s = measure_quant();
    row.idct_s = measure_dequant_idct();
    level_rows.push_back(row);
  }
  simd::set_level(ambient_level);

  const std::vector<CodecRow> write_rows = measure_write_path(10 * repeats);
  const int read_runs = 30 * repeats;
  const std::vector<CodecRow> read_rows = measure_read_path(read_runs);

  const double mblk = static_cast<double>(total_blocks) / 1e6;
  bench::JsonWriter json("BENCH_codec_pipeline");
  json.field("bench", "codec_pipeline");
  json.field("images", ds.size());
  json.field("width", gen_cfg.width);
  json.field("height", gen_cfg.height);
  json.field("quality", enc_cfg.quality);
  json.field("repeats", repeats);
  json.field("blocks", total_blocks);
  json.begin_array("stages");
  const struct {
    const char* name;
    double s;
  } stages[] = {{"tile", tile_s}, {"dct", dct_s}, {"quant", quant_s}, {"entropy", entropy_s}};
  for (const auto& st : stages) {
    json.begin_object();
    json.field("stage", st.name);
    json.field("seconds", st.s);
    json.field("mblocks_per_s", mblk / st.s);
    json.end_object();
  }
  json.end_array();
  json.field("encode_reference_s", reference_s);
  json.field("encode_pipeline_s", pipeline_s);
  json.field("encode_speedup", speedup);
  json.field("encode_images_per_s", static_cast<double>(ds.size()) / pipeline_s);
  json.field("decode_s", decode_s);
  json.field("decode_images_per_s", static_cast<double>(ds.size()) / decode_s);
  json.field("streams_identical", identical);
  json.field("entropy_lut_bits", jpeg::entropy_lut_bits());
  json.begin_array("decode_stages");
  const struct {
    const char* name;
    double s;
  } dec_stages[] = {{"huffman_decode", huffdec_s},
                    {"dequant_idct", dequant_idct_s},
                    {"untile", untile_s}};
  for (const auto& st : dec_stages) {
    json.begin_object();
    json.field("stage", st.name);
    json.field("seconds", st.s);
    json.field("mblocks_per_s", mblk / st.s);
    json.end_object();
  }
  json.end_array();
  json.begin_array("restart_decode");
  for (const RestartRow& row : restart_rows) {
    json.begin_object();
    json.field("threads", row.threads);
    json.field("seconds", row.s);
    json.field("images_per_s", 16.0 / row.s);
    json.end_object();
  }
  json.end_array();
  json.field("restart_identical", restart_identical);

  // Per-kernel SIMD rows + headline speedups (AVX2 over this run's scalar).
  json.field("simd_level_ambient", simd::level_name(ambient_level));
  json.begin_array("simd_levels");
  for (const LevelStages& row : level_rows) {
    json.begin_object();
    json.field("level", simd::level_name(row.level));
    json.field("tile_mblocks_per_s", mblk / row.tile_s);
    json.field("dct_mblocks_per_s", mblk / row.dct_s);
    json.field("quant_mblocks_per_s", mblk / row.quant_s);
    json.field("dequant_idct_mblocks_per_s", mblk / row.idct_s);
    json.end_object();
  }
  json.end_array();
  const LevelStages* scalar_row = nullptr;
  for (const LevelStages& row : level_rows)
    if (row.level == simd::Level::kScalar) scalar_row = &row;
  for (const LevelStages& row : level_rows) {
    if (row.level == simd::Level::kScalar || !scalar_row) continue;
    const std::string prefix = simd::level_name(row.level);
    json.field(prefix + "_tile_speedup_vs_scalar", scalar_row->tile_s / row.tile_s);
    json.field(prefix + "_dct_speedup_vs_scalar", scalar_row->dct_s / row.dct_s);
    json.field(prefix + "_quant_speedup_vs_scalar", scalar_row->quant_s / row.quant_s);
    json.field(prefix + "_dequant_idct_speedup_vs_scalar",
               scalar_row->idct_s / row.idct_s);
  }

  // The write path, single thread: our encode and its stages, and
  // libjpeg's when it was found at configure time.
  json.begin_array("write_path");
  for (const CodecRow& row : write_rows) {
    json.begin_object();
    json.field("codec", row.codec);
    json.field("width", 1024);
    json.field("height", 1024);
    json.field("subsampling", "444");
    json.field("runs", 10 * repeats);
    json.field("encode_s_median", row.median_s);
    json.field("encode_s_min", row.min_s);
    json.field("bytes", row.bytes);
    if (row.has_stages) {
      json.field("tile_s_median", row.stage_s[0]);
      json.field("dct_s_median", row.stage_s[1]);
      json.field("quant_s_median", row.stage_s[2]);
      json.field("entropy_s_median", row.stage_s[3]);
    }
    json.end_object();
  }
  json.end_array();
  if (write_rows.size() > 1)
    json.field("write_path_vs_libjpeg_turbo_islow",
               write_rows[0].median_s / write_rows[1].median_s);

  // The read path, single thread, per image: our decode and its coefficient
  // half (pixels = the rest), and libjpeg's decode when it was found.
  json.begin_array("read_path");
  for (const CodecRow& row : read_rows) {
    json.begin_object();
    json.field("codec", row.codec);
    json.field("width", 224);
    json.field("height", 224);
    json.field("subsampling", "420");
    json.field("quality", 85);
    json.field("streams", kReadStreams);
    json.field("runs", read_runs);
    json.field("decode_s_median", row.median_s);
    json.field("decode_s_min", row.min_s);
    json.end_object();
  }
  json.end_array();
  const double read_pixels_s = read_rows[0].median_s - read_rows[1].median_s;
  json.field("read_path_pixels_s_median", read_pixels_s);
  if (read_rows.size() > 2)
    json.field("read_path_vs_libjpeg_turbo_islow",
               read_rows[0].median_s / read_rows[2].median_s);

  std::printf("codec pipeline, %zu images %dx%d, q=%d, repeats=%d\n", ds.size(),
              gen_cfg.width, gen_cfg.height, enc_cfg.quality, repeats);
  for (const auto& st : stages)
    std::printf("  %-12s %.4fs  %7.2f Mblocks/s\n", st.name, st.s, mblk / st.s);
  std::printf("  encode: reference %.4fs, pipeline %.4fs -> %.2fx speedup (%s)\n",
              reference_s, pipeline_s, speedup, identical ? "byte-identical" : "DIFFER");
  std::printf("  decode: %.4fs  %.1f img/s\n", decode_s,
              static_cast<double>(ds.size()) / decode_s);
  for (const auto& st : dec_stages)
    std::printf("  decode %-12s %.4fs  %7.2f Mblocks/s\n", st.name, st.s, mblk / st.s);
  for (const RestartRow& row : restart_rows)
    std::printf("  restart decode @%d threads: %.4fs  %.1f img/s (%s)\n", row.threads,
                row.s, 16.0 / row.s, restart_identical ? "identical" : "DIFFER");
  std::printf("  per-kernel Mblocks/s by SIMD level (ambient: %s):\n",
              simd::level_name(ambient_level));
  std::printf("    %-8s %8s %8s %12s %12s\n", "level", "tile", "dct", "quant",
              "dequant_idct");
  for (const LevelStages& row : level_rows)
    std::printf("    %-8s %8.2f %8.2f %12.2f %12.2f\n", simd::level_name(row.level),
                mblk / row.tile_s, mblk / row.dct_s, mblk / row.quant_s,
                mblk / row.idct_s);
  if (scalar_row && scalar_row != &level_rows.back()) {
    const LevelStages& widest = level_rows.back();
    std::printf("    %s vs scalar: tile %.2fx, dct %.2fx, quant %.2fx, "
                "dequant_idct %.2fx\n",
                simd::level_name(widest.level), scalar_row->tile_s / widest.tile_s,
                scalar_row->dct_s / widest.dct_s, scalar_row->quant_s / widest.quant_s,
                scalar_row->idct_s / widest.idct_s);
  }
  std::printf("  write path, 1024x1024 4:4:4 DeepN table, single thread, median of %d:\n",
              10 * repeats);
  for (const CodecRow& row : write_rows) {
    std::printf("    %-20s %7.3f ms (min %7.3f)  %zu bytes", row.codec, row.median_s * 1e3,
                row.min_s * 1e3, row.bytes);
    if (row.has_stages)
      std::printf("  tile %.3f  dct %.3f  quant %.3f  entropy %.3f ms", row.stage_s[0] * 1e3,
                  row.stage_s[1] * 1e3, row.stage_s[2] * 1e3, row.stage_s[3] * 1e3);
    std::printf("\n");
  }
  if (write_rows.size() == 1) std::printf("    (libjpeg not found at configure time)\n");
  std::printf("  read path, 224x224 4:2:0 q85 decode of %d streams, single thread, per image,"
              " median of %d:\n",
              kReadStreams, read_runs);
  for (const CodecRow& row : read_rows)
    std::printf("    %-20s %7.1f us (min %7.1f)\n", row.codec, row.median_s * 1e6,
                row.min_s * 1e6);
  std::printf("    %-20s %7.1f us (dnj - dnj-coefficients)\n", "dnj pixels",
              read_pixels_s * 1e6);
  std::printf("  wrote %s\n", json.path().c_str());

  if (!identical) {
    std::fprintf(stderr, "bench_codec_pipeline: reference and pipeline streams differ!\n");
    return 1;
  }
  if (!restart_identical) {
    std::fprintf(stderr,
                 "bench_codec_pipeline: restart-parallel decode differs across "
                 "thread counts!\n");
    return 1;
  }
  return 0;
}
