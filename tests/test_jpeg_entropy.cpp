// Entropy-stage contract tests for the fast paths added with the LUT
// decoder and the restart-parallel scan decode:
//
//  * LUT equivalence — the peek-table Huffman decoder must produce
//    bit-identical coefficient planes and pixels at EVERY table width
//    (including 0 = bit-by-bit reference) across subsampling modes, 16-bit
//    DQT, optimized Huffman tables, restart intervals and odd sizes.
//  * Restart-parallel determinism — decoding a restart-interval stream at
//    any thread count yields byte-identical planes and pixels.
//  * Corrupt-stream hardening — invalid codes, all-ones bit runs,
//    magnitudes past the scan end and broken restart sequences must throw
//    std::runtime_error (and surface as kDecodeError through the api
//    façade), never hang, crash or read out of bounds. Run under the
//    ASan/UBSan CI legs like every other test.
//  * Batched emission — encode_blocks must emit byte-identical streams
//    to per-block encode_block, and the BlockCursor must match the
//    BitWriter bit for bit.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

#include "api/dnj.hpp"
#include "data/synthetic.hpp"
#include "jpeg/block_coder.hpp"
#include "jpeg/codec.hpp"
#include "jpeg/pipeline/codec_context.hpp"

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

TEST(BatchEncode, MatchesPerBlockBitstream) {
  pipeline::CodecContext ctx;
  const auto& huff = ctx.static_huffman();
  for (const std::uint64_t seed : {31ull, 32ull, 33ull}) {
    for (const std::size_t blocks : {std::size_t{1}, std::size_t{7}, std::size_t{160}}) {
      const std::vector<std::int16_t> plane = emission_plane(seed, blocks);
      std::vector<std::uint8_t> per_block, batched;
      {
        BitWriter bw(per_block);
        int dc_pred = 0;
        for (std::size_t b = 0; b < blocks; ++b)
          encode_block(bw, plane.data() + b * 64, dc_pred, huff.dc_luma, huff.ac_luma);
        bw.flush();
      }
      {
        BitWriter bw(batched);
        int dc_pred = 0;
        encode_blocks(bw, plane.data(), blocks, dc_pred, huff.dc_luma, huff.ac_luma);
        bw.flush();
      }
      EXPECT_EQ(per_block, batched) << "seed=" << seed << " blocks=" << blocks;
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
