// Entropy-stage contract tests for the fast paths of the Huffman decoder
// and the restart-parallel scan decode:
//
//  * LUT equivalence — the fast-table Huffman decoder must produce
//    bit-identical coefficient planes and pixels at EVERY table width
//    (including 0 = bit-by-bit reference) across subsampling modes, 16-bit
//    DQT, optimized Huffman tables, restart intervals and odd sizes.
//  * Decoder-table cache — a warm context decodes every stream exactly as
//    a fresh one, however its tables cycle through the cache.
//  * Differential mutation — seeded corruptions of encoder outputs decode
//    to the same planes and pixels at every width, or fail at every width.
//  * Restart-parallel determinism — decoding a restart-interval stream at
//    any thread count yields byte-identical planes and pixels.
//  * Corrupt-stream hardening — invalid codes, all-ones bit runs,
//    magnitudes past the scan end and broken restart sequences must throw
//    std::runtime_error (and surface as kDecodeError through the api
//    façade), never hang, crash or read out of bounds; legal fill bytes
//    before a restart marker must decode. Run under the
//    ASan/UBSan CI legs like every other test.
//  * Stripe emission — encode_stripe must emit byte-identical streams to
//    the per-block encode_block walk, restart markers included, and the
//    BlockCursor must match the BitWriter bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

#include "api/dnj.hpp"
#include "data/synthetic.hpp"
#include "jpeg/block_coder.hpp"
#include "jpeg/codec.hpp"
#include "jpeg/pipeline/codec_context.hpp"
#include "jpeg/zigzag.hpp"
#include "simd/dispatch.hpp"

namespace dnj::jpeg {
namespace {

// Every test leaves the process-global LUT width as it found it.
class LutWidthGuard {
 public:
  LutWidthGuard() : saved_(entropy_lut_bits()) {}
  ~LutWidthGuard() { set_entropy_lut_bits(saved_); }

 private:
  int saved_;
};

image::Image synth(int w, int h, int ch, std::uint64_t seed) {
  data::GeneratorConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.channels = ch;
  cfg.seed = seed;
  return data::SyntheticDatasetGenerator(cfg).render(data::ClassKind::kBandNoise, 0);
}

struct StreamCase {
  const char* name;
  std::vector<std::uint8_t> stream;
};

// One stream per decoder-relevant configuration axis.
std::vector<StreamCase> entropy_stream_cases() {
  std::vector<StreamCase> cases;
  {
    EncoderConfig ec;
    ec.quality = 85;
    ec.subsampling = Subsampling::k444;
    cases.push_back({"gray_444", encode(synth(32, 32, 1, 1), ec)});
  }
  {
    EncoderConfig ec;
    ec.quality = 90;
    ec.subsampling = Subsampling::k444;
    cases.push_back({"color_444", encode(synth(16, 16, 3, 2), ec)});
  }
  {
    EncoderConfig ec;
    ec.quality = 75;
    ec.subsampling = Subsampling::k420;
    cases.push_back({"color_420_odd", encode(synth(33, 31, 3, 3), ec)});
  }
  {
    // Steps above 255 force 16-bit DQT entries.
    std::array<std::uint16_t, 64> steps{};
    for (int k = 0; k < 64; ++k)
      steps[static_cast<std::size_t>(k)] = static_cast<std::uint16_t>(1 + k * 9);
    EncoderConfig ec;
    ec.use_custom_tables = true;
    ec.luma_table = QuantTable(steps);
    ec.chroma_table = QuantTable(steps);
    ec.subsampling = Subsampling::k444;
    cases.push_back({"dqt16", encode(synth(24, 24, 1, 4), ec)});
  }
  {
    EncoderConfig ec;
    ec.quality = 85;
    ec.subsampling = Subsampling::k420;
    ec.optimize_huffman = true;  // per-image tables, not the Annex K set
    cases.push_back({"optimized_huffman", encode(synth(32, 24, 3, 5), ec)});
  }
  {
    EncoderConfig ec;
    ec.quality = 80;
    ec.subsampling = Subsampling::k444;
    ec.restart_interval = 2;
    cases.push_back({"restart_interval", encode(synth(48, 40, 1, 6), ec)});
  }
  {
    EncoderConfig ec;
    ec.quality = 90;
    cases.push_back({"tiny_odd", encode(synth(17, 13, 1, 7), ec)});
  }
  return cases;
}

struct DecodeSnapshot {
  int components = 0;
  std::vector<std::vector<std::int16_t>> planes;
  std::vector<std::uint8_t> pixels;
};

// Decodes through FRESH contexts so the Huffman decoders (and their LUTs)
// are built at the currently configured width.
DecodeSnapshot snapshot_decode(const std::vector<std::uint8_t>& stream, int threads) {
  DecodeSnapshot snap;
  pipeline::CodecContext coeff_ctx;
  const JpegInfo info = decode_coefficients(stream, coeff_ctx, threads);
  snap.components = info.components;
  for (int c = 0; c < info.components; ++c) {
    const auto& plane = coeff_ctx.decode_coeffs[static_cast<std::size_t>(c)];
    snap.planes.emplace_back(plane.data(), plane.data() + plane.block_count() * 64);
  }
  pipeline::CodecContext pixel_ctx;
  snap.pixels = decode(stream, pixel_ctx, threads).data();
  return snap;
}

void expect_snapshots_equal(const DecodeSnapshot& a, const DecodeSnapshot& b,
                            const char* what) {
  ASSERT_EQ(a.components, b.components) << what;
  for (int c = 0; c < a.components; ++c) {
    const auto& pa = a.planes[static_cast<std::size_t>(c)];
    const auto& pb = b.planes[static_cast<std::size_t>(c)];
    ASSERT_EQ(pa.size(), pb.size()) << what << " component " << c;
    EXPECT_EQ(0, std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(std::int16_t)))
        << what << " coefficient planes differ, component " << c;
  }
  EXPECT_EQ(a.pixels, b.pixels) << what << " pixels differ";
}

// ---------------------------------------------------------------------------
// LUT-decoder equivalence
// ---------------------------------------------------------------------------

TEST(EntropyLut, EveryPeekWidthDecodesBitIdentically) {
  LutWidthGuard guard;
  for (const StreamCase& sc : entropy_stream_cases()) {
    set_entropy_lut_bits(0);  // bit-by-bit reference walk
    const DecodeSnapshot reference = snapshot_decode(sc.stream, 1);
    for (const int width : {1, 2, 5, 8, 12}) {
      set_entropy_lut_bits(width);
      SCOPED_TRACE(std::string(sc.name) + " lut_bits=" + std::to_string(width));
      expect_snapshots_equal(reference, snapshot_decode(sc.stream, 1), sc.name);
    }
  }
}

TEST(EntropyLut, WidthKnobClampsAndDisables) {
  LutWidthGuard guard;
  set_entropy_lut_bits(0);
  EXPECT_EQ(entropy_lut_bits(), 0);
  HuffmanDecoder reference(HuffmanSpec::default_ac_luma());
  EXPECT_EQ(reference.lut_bits(), 0);
  set_entropy_lut_bits(99);  // clamped to the 12-bit ceiling
  EXPECT_EQ(entropy_lut_bits(), 12);
  HuffmanDecoder wide(HuffmanSpec::default_ac_luma());
  EXPECT_EQ(wide.lut_bits(), 12);
  set_entropy_lut_bits(-5);
  EXPECT_EQ(entropy_lut_bits(), 0);
}

TEST(EntropyLut, ContextCachesDecodersPerSpecAndWidth) {
  LutWidthGuard guard;
  set_entropy_lut_bits(8);
  pipeline::CodecContext ctx;
  const HuffmanSpec spec = HuffmanSpec::default_ac_luma();
  const HuffmanDecoder& first = ctx.decoder_for(spec);
  const HuffmanDecoder& again = ctx.decoder_for(spec);
  EXPECT_EQ(&first, &again);  // warm hit, no rebuild
  EXPECT_EQ(ctx.reuse_counters().huffman_decoder_builds, 1u);
  set_entropy_lut_bits(4);  // width change must miss: the LUT shape differs
  const HuffmanDecoder& narrow = ctx.decoder_for(spec);
  EXPECT_NE(&first, &narrow);
  EXPECT_EQ(narrow.lut_bits(), 4);
  EXPECT_EQ(ctx.reuse_counters().huffman_decoder_builds, 2u);
}

// ---------------------------------------------------------------------------
// Restart-parallel determinism
// ---------------------------------------------------------------------------

// The streams below are hundreds of blocks long (256x256 gray is 1,024
// blocks, 248x232 4:2:0 is 16 x 15 MCUs of 6 blocks = 1,440, 256x192 gray is
// 768), so at 2 and 8 threads every pool thread decodes many segments; the
// TSan leg runs these tests for those cross-thread segment writes.

TEST(RestartParallel, PlanesAndPixelsIdenticalAtEveryThreadCount) {
  EncoderConfig ec;
  ec.quality = 80;
  ec.restart_interval = 2;
  for (const int channels : {1, 3}) {
    ec.subsampling = channels == 3 ? Subsampling::k420 : Subsampling::k444;
    const std::vector<std::uint8_t> stream =
        channels == 3 ? encode(synth(248, 232, 3, 11), ec) : encode(synth(256, 256, 1, 11), ec);
    const DecodeSnapshot serial = snapshot_decode(stream, 1);
    for (const int threads : {2, 8}) {
      SCOPED_TRACE("channels=" + std::to_string(channels) +
                   " threads=" + std::to_string(threads));
      expect_snapshots_equal(serial, snapshot_decode(stream, threads), "restart");
    }
  }
}

TEST(RestartParallel, MatchesNonRestartPixels) {
  // The same image with and without restart intervals decodes to the same
  // pixels (restart markers only reset the DC predictor).
  const image::Image img = synth(256, 192, 1, 12);
  EncoderConfig plain;
  plain.quality = 85;
  EncoderConfig restart = plain;
  restart.restart_interval = 3;
  pipeline::CodecContext ctx;
  const image::Image a = decode(encode(img, plain), ctx, 1);
  const image::Image b = decode(encode(img, restart), ctx, 8);
  EXPECT_EQ(a.data(), b.data());
}

// ---------------------------------------------------------------------------
// Corrupt-stream hardening
// ---------------------------------------------------------------------------

// Byte offset of the first entropy-coded scan byte (right after the SOS
// header segment).
std::size_t scan_begin(const std::vector<std::uint8_t>& s) {
  for (std::size_t i = 0; i + 3 < s.size(); ++i) {
    if (s[i] == 0xFF && s[i + 1] == 0xDA) {
      const std::size_t len = (static_cast<std::size_t>(s[i + 2]) << 8) | s[i + 3];
      return i + 2 + len;
    }
  }
  ADD_FAILURE() << "no SOS marker found";
  return s.size();
}

// Offset of the first restart marker (FF D0..D7) at or after `from`.
std::size_t first_rst(const std::vector<std::uint8_t>& s, std::size_t from) {
  for (std::size_t i = from; i + 1 < s.size(); ++i)
    if (s[i] == 0xFF && s[i + 1] >= 0xD0 && s[i + 1] <= 0xD7) return i;
  ADD_FAILURE() << "no RST marker found";
  return s.size();
}

void expect_decode_throws_at_every_width(const std::vector<std::uint8_t>& bytes) {
  LutWidthGuard guard;
  for (const int width : {0, 8, 12}) {
    set_entropy_lut_bits(width);
    SCOPED_TRACE("lut_bits=" + std::to_string(width));
    pipeline::CodecContext ctx;
    EXPECT_THROW((void)decode(bytes, ctx, 1), std::runtime_error);
    pipeline::CodecContext coeff_ctx;
    EXPECT_THROW((void)decode_coefficients(bytes, coeff_ctx, 1), std::runtime_error);
  }
}

std::vector<std::uint8_t> restart_stream() {
  EncoderConfig ec;
  ec.quality = 80;
  ec.restart_interval = 2;
  return encode(synth(48, 40, 1, 21), ec);
}

TEST(EntropyRobustness, AllOnesScanDataIsRejected) {
  EncoderConfig ec;
  ec.quality = 85;
  std::vector<std::uint8_t> s = encode(synth(32, 32, 1, 22), ec);
  const std::size_t begin = scan_begin(s);
  ASSERT_LT(begin + 2, s.size());
  // Replace the scan body with stuffed 0xFF bytes: the decoder sees an
  // unbroken all-ones bit pattern, which runs past every code length.
  for (std::size_t i = begin; i + 3 < s.size(); i += 2) {
    s[i] = 0xFF;
    s[i + 1] = 0x00;
  }
  expect_decode_throws_at_every_width(s);
}

TEST(EntropyRobustness, MagnitudeBitsPastScanEndAreRejected) {
  EncoderConfig ec;
  ec.quality = 85;
  const std::vector<std::uint8_t> full = encode(synth(32, 32, 1, 23), ec);
  const std::size_t begin = scan_begin(full);
  // Keep only a few scan bytes, then hit EOI mid-block: the decoder must
  // fail the read (marker inside a magnitude/code) instead of fabricating
  // bits — at every LUT width, including the zero-padded peek path.
  for (const std::size_t keep : {std::size_t{1}, std::size_t{3}, std::size_t{6}}) {
    ASSERT_LT(begin + keep, full.size());
    std::vector<std::uint8_t> s(full.begin(),
                                full.begin() + static_cast<long>(begin + keep));
    s.push_back(0xFF);
    s.push_back(0xD9);  // EOI
    expect_decode_throws_at_every_width(s);
  }
}

TEST(EntropyRobustness, MissingRestartMarkerIsRejected) {
  std::vector<std::uint8_t> s = restart_stream();
  const std::size_t rst = first_rst(s, scan_begin(s));
  ASSERT_LT(rst + 2, s.size());
  s.erase(s.begin() + static_cast<long>(rst), s.begin() + static_cast<long>(rst) + 2);
  expect_decode_throws_at_every_width(s);
}

TEST(EntropyRobustness, OutOfSequenceRestartMarkerIsRejected) {
  std::vector<std::uint8_t> s = restart_stream();
  const std::size_t rst = first_rst(s, scan_begin(s));
  ASSERT_LT(rst + 1, s.size());
  // First marker must be RST0; advance its index so the sequence breaks.
  s[rst + 1] = static_cast<std::uint8_t>(0xD0 + ((s[rst + 1] - 0xD0 + 3) % 8));
  expect_decode_throws_at_every_width(s);
}

TEST(EntropyRobustness, FillBytesBeforeARestartMarkerAreSkipped) {
  // T.81 B.1.1.2: any marker may be preceded by fill bytes (0xFF). They
  // carry no scan data, so the stream decodes exactly as it did without
  // them, serially and restart-parallel.
  const std::vector<std::uint8_t> plain = restart_stream();
  pipeline::CodecContext ref_ctx;
  const image::Image want = decode(plain, ref_ctx, 1);
  for (const std::size_t fill : {std::size_t{1}, std::size_t{3}}) {
    std::vector<std::uint8_t> s = plain;
    const std::size_t rst = first_rst(s, scan_begin(s));
    s.insert(s.begin() + static_cast<long>(rst), fill, std::uint8_t{0xFF});
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("fill=" + std::to_string(fill) + " threads=" + std::to_string(threads));
      pipeline::CodecContext ctx;
      try {
        EXPECT_EQ(decode(s, ctx, threads).data(), want.data());
      } catch (const std::runtime_error& e) {
        ADD_FAILURE() << e.what();
      }
    }
  }
}

TEST(EntropyRobustness, TruncatedScanSweepNeverHangsOrCrashes) {
  LutWidthGuard guard;
  EncoderConfig ec;
  ec.quality = 80;
  ec.restart_interval = 3;
  const std::vector<std::uint8_t> full = encode(synth(40, 33, 1, 24), ec);
  const std::size_t begin = scan_begin(full);
  for (const int width : {0, 8}) {
    set_entropy_lut_bits(width);
    for (std::size_t len = begin + 1; len < full.size(); len += 5) {
      const std::vector<std::uint8_t> prefix(full.begin(),
                                             full.begin() + static_cast<long>(len));
      pipeline::CodecContext ctx;
      try {
        (void)decode(prefix, ctx, 8);
      } catch (const std::runtime_error&) {
        // rejected as corrupt: acceptable, crash/hang/overflow is not
      }
    }
  }
}

TEST(EntropyRobustness, ApiSurfacesTypedDecodeError) {
  api::Session session;
  const api::Codec codec = session.codec();
  EncoderConfig ec;
  ec.quality = 85;
  std::vector<std::uint8_t> ones = encode(synth(32, 32, 1, 25), ec);
  const std::size_t begin = scan_begin(ones);
  for (std::size_t i = begin; i + 3 < ones.size(); i += 2) {
    ones[i] = 0xFF;
    ones[i + 1] = 0x00;
  }
  EXPECT_EQ(codec.decode(ones).status().code(), api::StatusCode::kDecodeError);

  std::vector<std::uint8_t> bad_rst = restart_stream();
  const std::size_t rst = first_rst(bad_rst, scan_begin(bad_rst));
  bad_rst[rst + 1] = static_cast<std::uint8_t>(0xD0 + ((bad_rst[rst + 1] - 0xD0 + 5) % 8));
  EXPECT_EQ(codec.decode(bad_rst).status().code(), api::StatusCode::kDecodeError);
}

// ---------------------------------------------------------------------------
// Fast path against the reference walk, block by block
// ---------------------------------------------------------------------------

// Decodes blocks from `bytes` until one fails; returns the coefficients of
// every block that decoded, then the failing block's index as a marker.
std::vector<std::int16_t> decode_blocks_until_failure(const std::vector<std::uint8_t>& bytes,
                                                      const HuffmanSpec& dc,
                                                      const HuffmanSpec& ac, int blocks) {
  const HuffmanDecoder dc_dec(dc), ac_dec(ac);
  BitReader br(bytes.data(), bytes.size());
  std::vector<std::int16_t> out;
  int dc_pred = 0;
  for (int b = 0; b < blocks; ++b) {
    std::int16_t blk[64];
    if (!decode_block(br, blk, dc_pred, dc_dec, ac_dec)) {
      out.push_back(static_cast<std::int16_t>(-1 - b));
      break;
    }
    out.insert(out.end(), blk, blk + 64);
  }
  return out;
}

TEST(EntropyFastPath, EveryTruncationDecodesLikeTheReferenceWalk) {
  // Long codes and wide magnitudes at the end of the data: DC differences
  // of category 11 (9-bit code), AC magnitudes of category 10, ZRL runs.
  LutWidthGuard guard;
  const HuffmanSpec dc = HuffmanSpec::default_dc_luma(), ac = HuffmanSpec::default_ac_luma();
  const HuffmanEncoder dc_enc(dc), ac_enc(ac);
  std::vector<std::uint8_t> bytes;
  BitWriter bw(bytes);
  int pred = 0;
  constexpr int kBlocks = 12;
  for (int b = 0; b < kBlocks; ++b) {
    QuantizedBlock blk{};
    blk[0] = static_cast<std::int16_t>(b % 2 ? 600 + b : -600 - b);
    blk[static_cast<std::size_t>(kZigzag[1 + b % 5])] = static_cast<std::int16_t>(b % 3 ? 1023 : -1);
    blk[static_cast<std::size_t>(kZigzag[40 + b % 20])] = static_cast<std::int16_t>(-700 + b);
    encode_block(bw, blk, pred, dc_enc, ac_enc);
  }
  bw.flush();
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + static_cast<long>(len));
    set_entropy_lut_bits(0);
    const std::vector<std::int16_t> want = decode_blocks_until_failure(prefix, dc, ac, kBlocks);
    for (const int width : {1, 5, 10, 12}) {
      set_entropy_lut_bits(width);
      EXPECT_EQ(decode_blocks_until_failure(prefix, dc, ac, kBlocks), want)
          << "length " << len << " lut_bits=" << width;
    }
  }
}

// A random prefix code over `n` distinct symbols drawn from `pool`: leaves
// of a binary tree grown by splitting random leaves, so every bit pattern
// decodes when `complete`; otherwise the last leaf is dropped.
HuffmanSpec random_spec(std::mt19937_64& rng, std::vector<std::uint8_t> pool, int n,
                        bool complete) {
  std::vector<int> lengths = {0};
  while (static_cast<int>(lengths.size()) < n) {
    const std::size_t leaf = static_cast<std::size_t>(rng() % lengths.size());
    if (lengths[leaf] == 16) continue;
    ++lengths[leaf];
    lengths.push_back(lengths[leaf]);
  }
  if (!complete && lengths.size() > 1) lengths.pop_back();
  std::shuffle(pool.begin(), pool.end(), rng);
  HuffmanSpec spec;
  for (const int l : lengths) ++spec.counts[static_cast<std::size_t>(l)];
  spec.symbols.assign(pool.begin(), pool.begin() + static_cast<long>(lengths.size()));
  return spec;
}

TEST(EntropyFastPath, RandomTablesAndBitsDecodeLikeTheReferenceWalk) {
  // DC categories 12-15, sizes 11-15 and invalid run/size bytes as DC or
  // AC symbols, at any code length, over random data with stuffed bytes:
  // every width must match the reference walk block for block.
  LutWidthGuard guard;
  // DC: every category 0-15 and three run/size bytes no DC symbol may be.
  std::vector<std::uint8_t> dc_pool = {0x10, 0x20, 0xF0};
  for (int v = 0; v < 16; ++v) dc_pool.push_back(static_cast<std::uint8_t>(v));
  // AC: short runs of every size, so blocks often reach their EOB, plus
  // ZRL, long runs and three run/size bytes no AC symbol may be.
  std::vector<std::uint8_t> ac_pool = {0xF0, 0x10, 0x50, 0xE0, 0x91, 0xA5, 0xFF};
  for (int v = 1; v < 0x40; ++v)
    if (v & 15) ac_pool.push_back(static_cast<std::uint8_t>(v));
  std::mt19937_64 rng(77);
  int blocks_decoded = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const bool complete = trial % 4 != 3;
    const HuffmanSpec dc =
        random_spec(rng, dc_pool, 2 + static_cast<int>(rng() % (dc_pool.size() - 1)), complete);
    HuffmanSpec ac = random_spec(rng, ac_pool, 2 + static_cast<int>(rng() % (ac_pool.size() - 1)),
                                 complete);
    ac.symbols[rng() % ac.symbols.size()] = 0x00;  // an EOB, at a random code length
    std::vector<std::uint8_t> bytes;
    const std::size_t len = 8 + static_cast<std::size_t>(rng() % 600);
    while (bytes.size() < len) {
      const auto b = static_cast<std::uint8_t>(rng());
      bytes.push_back(b);
      if (b == 0xFF) bytes.push_back(0x00);
    }
    set_entropy_lut_bits(0);
    const std::vector<std::int16_t> want = decode_blocks_until_failure(bytes, dc, ac, 6);
    for (const int width : {1, 4, 8, 10, 12}) {
      set_entropy_lut_bits(width);
      ASSERT_EQ(decode_blocks_until_failure(bytes, dc, ac, 6), want)
          << "trial " << trial << " lut_bits=" << width;
    }
    blocks_decoded += static_cast<int>(want.size() / 64);
  }
  EXPECT_GT(blocks_decoded, 500);  // not only first-symbol failures
}

TEST(EntropyFastPath, InvalidDcSymbolsFailAtEveryWidth) {
  // A DC table whose symbols include run/size bytes no DC category has,
  // at code lengths inside and beyond every fast-table width.
  LutWidthGuard guard;
  HuffmanSpec dc;
  dc.counts[2] = 3;  // 00, 01, 10
  dc.counts[9] = 3;  // 110000000, 110000001, 110000010
  dc.symbols = {0x00, 0x20, 0x1F, 0x10, 0xF0, 0x13};
  const HuffmanSpec ac = HuffmanSpec::default_ac_luma();
  const HuffmanEncoder dc_enc(dc), ac_enc(ac);
  for (std::size_t k = 1; k < dc.symbols.size(); ++k) {
    std::vector<std::uint8_t> bytes;
    BitWriter bw(bytes);
    dc_enc.encode(bw, dc.symbols[k]);
    // Zeros decode as AC symbol 0x01 (code 00) with magnitude 0, so a
    // decoder that accepted the DC symbol, whatever it then read as its
    // magnitude, would fill the block and succeed.
    for (int i = 0; i < 32; ++i) bw.put_bits(0, 8);
    bw.flush();
    for (const int width : {0, 1, 5, 8, 10, 12}) {
      set_entropy_lut_bits(width);
      EXPECT_EQ(decode_blocks_until_failure(bytes, dc, ac, 1),
                std::vector<std::int16_t>{-1})
          << "symbol " << int(dc.symbols[k]) << " lut_bits=" << width;
    }
  }
}

// ---------------------------------------------------------------------------
// Decoder-table cache
// ---------------------------------------------------------------------------

// Distinct valid tables: the Annex K luma DC table with its last symbol
// replaced by 11 + i.
HuffmanSpec distinct_dc_spec(int i) {
  HuffmanSpec spec = HuffmanSpec::default_dc_luma();
  spec.symbols.back() = static_cast<std::uint8_t>(11 + i);
  return spec;
}

TEST(DecoderCache, HitSurvivesTheNextMiss) {
  LutWidthGuard guard;
  set_entropy_lut_bits(8);
  pipeline::CodecContext ctx;
  for (int i = 0; i < 16; ++i) (void)ctx.decoder_for(distinct_dc_spec(i));
  const HuffmanDecoder& hit = ctx.decoder_for(distinct_dc_spec(0));
  const HuffmanDecoder& miss = ctx.decoder_for(distinct_dc_spec(16));
  EXPECT_NE(&hit, &miss) << "the miss rebuilt the slot the hit handed out";
  EXPECT_EQ(ctx.reuse_counters().huffman_decoder_builds, 17u);
  EXPECT_EQ(&ctx.decoder_for(distinct_dc_spec(0)), &hit);
  EXPECT_EQ(ctx.reuse_counters().huffman_decoder_builds, 17u);
}

// Byte offset of the SOS marker.
std::size_t sos_offset(const std::vector<std::uint8_t>& s) {
  for (std::size_t i = 0; i + 1 < s.size(); ++i)
    if (s[i] == 0xFF && s[i + 1] == 0xDA) return i;
  ADD_FAILURE() << "no SOS marker found";
  return s.size();
}

// `stream` with one DHT segment inserted before SOS that defines AC table 3
// `count` times, each time differently. A scan that reads only tables 0
// and 1 decodes exactly as before.
std::vector<std::uint8_t> with_dht_redefinitions(std::vector<std::uint8_t> stream, int count) {
  std::vector<std::uint8_t> seg = {0xFF, 0xC4, 0, 0};
  for (int i = 0; i < count; ++i) {
    const HuffmanSpec spec = distinct_dc_spec(40 + i);
    seg.push_back(0x13);  // class 1 (AC), index 3
    seg.insert(seg.end(), spec.counts.begin() + 1, spec.counts.end());
    seg.insert(seg.end(), spec.symbols.begin(), spec.symbols.end());
  }
  const std::size_t len = seg.size() - 2;
  seg[2] = static_cast<std::uint8_t>(len >> 8);
  seg[3] = static_cast<std::uint8_t>(len & 0xFF);
  stream.insert(stream.begin() + static_cast<long>(sos_offset(stream)), seg.begin(), seg.end());
  return stream;
}

TEST(DecoderCache, WarmContextDecodesLikeFreshOnes) {
  // A static-table gray stream, then seven with per-image optimized tables:
  // sixteen tables, so the static luma pair is the oldest in the cache when
  // a static-table colour stream hits it and then misses on its chroma
  // tables. After that, a mix that wraps the cache several times: gray and
  // colour, static and optimized tables, restart intervals, and a stream
  // that redefines an unused table twenty times.
  const auto stream = [](int w, int h, int ch, Subsampling sub, bool optimize, int restart,
                         std::uint64_t seed) {
    EncoderConfig ec;
    ec.quality = 25 + static_cast<int>(seed % 70);
    ec.subsampling = sub;
    ec.optimize_huffman = optimize;
    ec.restart_interval = restart;
    return encode(synth(w, h, ch, seed), ec);
  };
  std::vector<std::vector<std::uint8_t>> streams;
  streams.push_back(stream(32, 32, 1, Subsampling::k444, false, 0, 100));
  for (int i = 0; i < 7; ++i)
    streams.push_back(stream(32 + i, 24, 1, Subsampling::k444, true, 0, 101 + i));
  streams.push_back(stream(61, 61, 3, Subsampling::k420, false, 2, 99));
  for (int i = 0; i < 12; ++i) {
    const bool colour = i % 2 == 0;
    streams.push_back(stream(24 + 3 * i, 16 + 2 * i, colour ? 3 : 1,
                             i % 4 == 0 ? Subsampling::k420 : Subsampling::k444, i % 3 != 2,
                             i % 5 == 4 ? 2 : 0, 200 + i));
  }
  const std::vector<std::uint8_t> plain = streams[0];
  streams.push_back(with_dht_redefinitions(plain, 20));
  streams.push_back(streams[8]);

  pipeline::CodecContext warm;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    SCOPED_TRACE("stream " + std::to_string(i));
    pipeline::CodecContext fresh;
    const image::Image want = decode(streams[i], fresh, 1);
    image::Image got;
    ASSERT_NO_THROW(got = decode(streams[i], warm, 1));
    EXPECT_EQ(got.data(), want.data());
  }
  EXPECT_GT(warm.reuse_counters().huffman_decoder_builds, 32u);  // wrapped twice
  pipeline::CodecContext fresh;
  EXPECT_EQ(decode(streams[streams.size() - 2], fresh, 1).data(), decode(plain, fresh, 1).data());
}

// ---------------------------------------------------------------------------
// Differential mutation: the fast path against the reference walk
// ---------------------------------------------------------------------------

// Offsets of each DHT table's 16 BITS counts in `s`.
std::vector<std::size_t> dht_count_offsets(const std::vector<std::uint8_t>& s) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i + 3 < s.size() && !(s[i] == 0xFF && s[i + 1] == 0xDA); ++i) {
    if (s[i] != 0xFF || s[i + 1] != 0xC4) continue;
    const std::size_t end = i + 2 + ((static_cast<std::size_t>(s[i + 2]) << 8) | s[i + 3]);
    for (std::size_t p = i + 4; p + 17 <= end && p + 17 <= s.size();) {
      out.push_back(p + 1);
      std::size_t n = 0;
      for (int l = 0; l < 16; ++l) n += s[p + 1 + static_cast<std::size_t>(l)];
      p += 17 + n;
    }
    i = end - 1;
  }
  return out;
}

// One seeded mutation of an encoder output: a bit flip in the scan, a
// truncation, an inserted FF00 / FFFF / RSTn / EOI, or an edited DHT count.
std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> s, std::mt19937_64& rng) {
  const std::size_t begin = scan_begin(s);
  const std::size_t span = s.size() - 2 - begin;  // scan bytes before EOI
  const std::size_t at = begin + static_cast<std::size_t>(rng() % span);
  const auto insert = [&](std::uint8_t a, std::uint8_t b) {
    s.insert(s.begin() + static_cast<long>(at), {a, b});
  };
  switch (rng() % 7) {
    case 0:
      s[at] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
      break;
    case 1:
      s.resize(at);
      if (rng() % 2) s.insert(s.end(), {0xFF, 0xD9});
      break;
    case 2:
      insert(0xFF, 0x00);
      break;
    case 3:
      insert(0xFF, 0xFF);
      break;
    case 4:
      insert(0xFF, static_cast<std::uint8_t>(0xD0 + rng() % 8));
      break;
    case 5:
      insert(0xFF, 0xD9);
      break;
    default: {
      const std::vector<std::size_t> counts = dht_count_offsets(s);
      const std::size_t table = counts[static_cast<std::size_t>(rng() % counts.size())];
      std::uint8_t& c = s[table + static_cast<std::size_t>(rng() % 16)];
      c = static_cast<std::uint8_t>(rng() % 2 ? c + 1 : c - 1);
      break;
    }
  }
  return s;
}

TEST(EntropyDifferential, MutantsDecodeAlikeOrFailAlike) {
  LutWidthGuard guard;
  std::vector<std::vector<std::uint8_t>> seeds;
  for (const StreamCase& sc : entropy_stream_cases()) seeds.push_back(sc.stream);
  {
    EncoderConfig ec;
    ec.quality = 60;
    ec.subsampling = Subsampling::k420;
    ec.restart_interval = 1;
    ec.optimize_huffman = true;
    seeds.push_back(encode(synth(40, 24, 3, 51), ec));
  }
  {
    EncoderConfig ec;
    ec.quality = 95;
    ec.optimize_huffman = true;
    seeds.push_back(encode(synth(32, 32, 1, 52), ec));
  }
  std::mt19937_64 rng(20261019);
  int failed_alike = 0;
  constexpr int kMutants = 4000;
  for (int i = 0; i < kMutants; ++i) {
    const std::size_t seed = static_cast<std::size_t>(i) % seeds.size();
    const std::vector<std::uint8_t> mutant = mutate(seeds[seed], rng);
    SCOPED_TRACE("mutant " + std::to_string(i) + " of seed stream " + std::to_string(seed));
    DecodeSnapshot snap[3];
    bool threw[3] = {};
    const int widths[3] = {0, 10, 5};
    for (int w = 0; w < 3; ++w) {
      set_entropy_lut_bits(widths[w]);
      try {
        snap[w] = snapshot_decode(mutant, 1);
      } catch (const std::runtime_error&) {
        threw[w] = true;
      }
    }
    for (int w = 1; w < 3; ++w) {
      SCOPED_TRACE("lut_bits=" + std::to_string(widths[w]));
      ASSERT_EQ(threw[w], threw[0]);
      if (!threw[0]) expect_snapshots_equal(snap[0], snap[w], "mutant");
    }
    failed_alike += threw[0];
  }
  // Both outcomes are exercised.
  EXPECT_GT(failed_alike, kMutants / 10);
  EXPECT_LT(failed_alike, kMutants - kMutants / 20);
}

// ---------------------------------------------------------------------------
// Batched emission
// ---------------------------------------------------------------------------

// Natural-order planes exercising every emission shape: dense noise, long zero
// runs (1-3 ZRLs), trailing nonzero at k=63, all-zero blocks, maximum
// magnitudes.
std::vector<std::int16_t> emission_plane(std::uint64_t seed, std::size_t blocks) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> val(-1023, 1023);
  std::uniform_int_distribution<int> lane(1, 63);
  std::vector<std::int16_t> plane(blocks * 64, 0);
  for (std::size_t b = 0; b < blocks; ++b) {
    std::int16_t* blk = plane.data() + b * 64;
    blk[0] = static_cast<std::int16_t>(val(rng));
    switch (b % 5) {
      case 0:  // dense
        for (int k = 1; k < 64; ++k) blk[k] = static_cast<std::int16_t>(val(rng));
        break;
      case 1:  // sparse: a handful of lanes, long runs between them
        for (int n = 0; n < 3; ++n)
          blk[lane(rng)] = static_cast<std::int16_t>(val(rng) | 1);
        break;
      case 2:  // single trailing coefficient: 62-zero run -> 3 ZRLs + code
        blk[63] = static_cast<std::int16_t>(val(rng) | 1);
        break;
      case 3:  // all-zero AC: DC + EOB only
        break;
      case 4:  // magnitude extremes
        blk[1] = 1023;
        blk[17] = -1023;
        blk[34] = 1;
        blk[63] = -1;
        break;
    }
  }
  return plane;
}

TEST(BatchEncode, StripeCoderMatchesPerBlockReference) {
  // Stripes of gray, 4:4:4 and 4:2:0 MCUs (7 per stripe, three stripes)
  // through encode_stripe, against the QuantizedBlock encode_block walk in
  // scan order with the same RSTn markers and predictor resets. Restart
  // intervals 1-5 end mid-stripe and carry across stripe boundaries.
  struct Comp {
    int h, v;
    bool luma;
  };
  struct Layout {
    const char* name;
    std::vector<Comp> comps;
  };
  const Layout layouts[] = {{"gray", {{1, 1, true}}},
                            {"444", {{1, 1, true}, {1, 1, false}, {1, 1, false}}},
                            {"420", {{2, 2, true}, {1, 1, false}, {1, 1, false}}}};
  constexpr int kMcus = 7;
  constexpr int kStripes = 3;
  pipeline::CodecContext ctx;
  const auto& huff = ctx.static_huffman();
  for (const Layout& layout : layouts) {
    std::vector<std::size_t> offset;
    std::size_t stripe_blocks = 0;
    McuPattern pattern;
    ScanTables tables;
    for (std::size_t c = 0; c < layout.comps.size(); ++c) {
      const Comp& comp = layout.comps[c];
      offset.push_back(stripe_blocks);
      for (int by = 0; by < comp.v; ++by)
        for (int bx = 0; bx < comp.h; ++bx)
          pattern.add(static_cast<int>(c),
                      stripe_blocks + static_cast<std::size_t>(by * comp.h * kMcus + bx),
                      static_cast<std::size_t>(comp.h));
      stripe_blocks += static_cast<std::size_t>(comp.h * comp.v * kMcus);
      tables.dc[c] = comp.luma ? &huff.dc_luma : &huff.dc_chroma;
      tables.ac[c] = comp.luma ? &huff.ac_luma : &huff.ac_chroma;
    }
    std::vector<std::vector<std::int16_t>> stripes;
    for (int s = 0; s < kStripes; ++s)
      stripes.push_back(emission_plane(50 + static_cast<std::uint64_t>(s), stripe_blocks));

    for (int restart = 0; restart <= 5; ++restart) {
      std::vector<std::uint8_t> reference, stripe_coded;
      {
        BitWriter bw(reference);
        std::array<int, kMaxScanComponents> dc_pred{};
        int mcu_index = 0;
        for (const std::vector<std::int16_t>& q : stripes) {
          for (int mx = 0; mx < kMcus; ++mx, ++mcu_index) {
            if (restart > 0 && mcu_index > 0 && mcu_index % restart == 0) {
              bw.put_marker(static_cast<std::uint8_t>(0xD0 + (mcu_index / restart - 1) % 8));
              dc_pred.fill(0);
            }
            for (std::size_t c = 0; c < layout.comps.size(); ++c) {
              const Comp& comp = layout.comps[c];
              for (int by = 0; by < comp.v; ++by)
                for (int bx = 0; bx < comp.h; ++bx) {
                  const std::size_t b = offset[c] +
                                        static_cast<std::size_t>(by * comp.h * kMcus) +
                                        static_cast<std::size_t>(mx * comp.h + bx);
                  QuantizedBlock blk;
                  std::copy_n(q.data() + b * 64, 64, blk.data());
                  encode_block(bw, blk, dc_pred[c], *tables.dc[c], *tables.ac[c]);
                }
            }
          }
        }
        bw.flush();
      }
      {
        BitWriter bw(stripe_coded);
        ScanState scan;
        std::vector<std::uint64_t> masks(stripe_blocks);
        for (const std::vector<std::int16_t>& q : stripes) {
          simd::kernels().nonzero_masks_i16(q.data(), stripe_blocks, masks.data());
          encode_stripe(bw, q.data(), masks.data(), kMcus, pattern, tables, restart, scan);
        }
        bw.flush();
      }
      EXPECT_EQ(stripe_coded, reference) << layout.name << " restart=" << restart;
    }
  }
}

TEST(BatchEncode, BlockCursorMatchesPutBits) {
  // The cursor's overlapping-store emission must be bit-identical to
  // put_bits, including partial-bit carryover across attach/commit cycles
  // and interleaved direct writes.
  std::mt19937_64 rng(41);
  std::uniform_int_distribution<int> count_dist(1, 27);
  std::vector<std::uint8_t> expect, got;
  BitWriter we(expect), wg(got);
  for (int round = 0; round < 50; ++round) {
    // A few direct writes...
    for (int i = 0; i < 3; ++i) {
      const int count = count_dist(rng);
      const std::uint32_t bits =
          static_cast<std::uint32_t>(rng()) & ((1u << count) - 1u);
      we.put_bits(bits, count);
      wg.put_bits(bits, count);
    }
    // ...then a cursor session with a random number of puts.
    BitWriter::BlockCursor cur(wg);
    const int puts = 1 + static_cast<int>(rng() % 40);
    for (int i = 0; i < puts; ++i) {
      const int count = count_dist(rng);
      const std::uint32_t bits =
          static_cast<std::uint32_t>(rng()) & ((1u << count) - 1u);
      we.put_bits(bits, count);
      cur.put(bits, count);
    }
    cur.commit();
  }
  we.flush();
  wg.flush();
  EXPECT_EQ(expect, got);
}

}  // namespace
}  // namespace dnj::jpeg
