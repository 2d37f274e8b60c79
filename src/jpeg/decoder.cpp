#include "jpeg/decoder.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "image/blocks.hpp"
#include "jpeg/bitio.hpp"
#include "jpeg/block_coder.hpp"
#include "jpeg/dct.hpp"
#include "jpeg/huffman.hpp"
#include "jpeg/markers.hpp"
#include "jpeg/zigzag.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"
#include "simd/dispatch.hpp"

namespace dnj::jpeg {

namespace {

using image::kBlockDim;
using image::PlaneF;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("jpeg::decode: " + what);
}

const float* plane_row(const PlaneF& plane, int y) {
  return plane.data().data() + static_cast<std::size_t>(y) * plane.width();
}

struct FrameComponent {
  int id = 0;
  int h = 1, v = 1;
  int tq = 0;
  int dc_table = 0;
  int ac_table = 0;
  int blocks_x = 0, blocks_y = 0;  // padded grid within the MCU lattice
  std::int16_t* coeffs = nullptr;  // natural-order blocks in the context arena
  const HuffmanDecoder* dc = nullptr;  // resolved by decode_scan
  const HuffmanDecoder* ac = nullptr;
};

// The latest DHT definition of one table slot, parsed into fixed storage.
struct HuffmanTableDef {
  std::array<std::uint8_t, 17> counts{};
  std::array<std::uint8_t, 256> symbols{};
  bool defined = false;
};

class Parser {
 public:
  Parser(const std::uint8_t* data, std::size_t size, pipeline::CodecContext& ctx)
      : ctx_(ctx), data_(data), size_(size) {}

  JpegInfo info;
  std::array<FrameComponent, pipeline::kMaxComponents> comps;
  std::size_t num_comps = 0;
  int mcus_x = 0, mcus_y = 0;
  std::size_t scan_start = 0;  // offset of entropy-coded data

  /// Parses markers through SOS. Returns false if the stream had no SOS.
  bool parse_headers() {
    if (read_u8() != 0xFF || read_u8() != kSOI) fail("missing SOI");
    for (;;) {
      const std::uint8_t marker = next_marker();
      switch (marker) {
        case kEOI:
          return false;
        case kDQT:
          read_dqt();
          break;
        case kDHT:
          read_dht();
          break;
        case kSOF0:
        case kSOF1:
          read_sof();
          break;
        case kDRI:
          read_dri();
          break;
        case kCOM:
          read_com();
          break;
        case kSOS:
          read_sos();
          scan_start = pos_;
          return true;
        default:
          if (is_app(marker)) {
            skip_segment();
          } else if (marker >= 0xC2 && marker <= 0xCF && marker != kDHT) {
            fail("unsupported SOF type (only baseline sequential is implemented)");
          } else {
            skip_segment();
          }
      }
    }
  }

  void decode_scan(int num_threads) {
    // Resolve the scan's Huffman tables together, after the last DHT
    // segment and before the first bit: the context cache keeps the
    // sixteen tables requested last, so all of them (at most eight) stay
    // valid while the scan decodes. A warm context decoding a same-table
    // stream skips the per-image table derivation and fast-table fill.
    fast_ = true;
    for (std::size_t ci = 0; ci < num_comps; ++ci) {
      FrameComponent& c = comps[ci];
      c.dc = resolve_table(0, c.dc_table);
      c.ac = resolve_table(1, c.ac_table);
      fast_ = fast_ && c.dc->lut_bits() > 0 && c.ac->lut_bits() > 0;
    }
    // Size the per-component coefficient arenas now (parse_info never gets
    // here, so header-only parses leave the context untouched). No
    // zero-fill needed: the MCU walk visits every grid block exactly once
    // and the block decoder clears each block before writing it.
    for (std::size_t ci = 0; ci < num_comps; ++ci) {
      pipeline::QuantPlane& plane = ctx_.decode_coeffs[ci];
      plane.reshape(comps[ci].blocks_x, comps[ci].blocks_y);
      comps[ci].coeffs = plane.data();
    }
    const int total_mcus = mcus_x * mcus_y;
    if (info.restart_interval > 0 && total_mcus > info.restart_interval) {
      decode_scan_segments(num_threads);
      return;
    }
    // No restart marker can legally appear: one straight-line pass.
    BitReader br(data_ + scan_start, size_ - scan_start);
    decode_mcu_range(br, 0, total_mcus);
  }

  /// Decodes MCUs [m0, m1) from `br`, DC predictors starting at zero —
  /// exactly the state at the start of a scan or after a restart marker.
  void decode_mcu_range(BitReader& br, int m0, int m1) {
    if (fast_)
      decode_mcus<true>(br, m0, m1);
    else
      decode_mcus<false>(br, m0, m1);
  }

  template <bool kFast>
  void decode_mcus(BitReader& br, int m0, int m1) {
    std::array<int, pipeline::kMaxComponents> dc_pred{};
    int my = m0 / mcus_x;
    int mx = m0 % mcus_x;
    for (int mcu_index = m0; mcu_index < m1; ++mcu_index) {
      for (std::size_t ci = 0; ci < num_comps; ++ci) {
        const FrameComponent& c = comps[ci];
        for (int by = 0; by < c.v; ++by) {
          std::int16_t* blk =
              c.coeffs +
              (static_cast<std::size_t>(my * c.v + by) * c.blocks_x + mx * c.h) * 64;
          for (int bx = 0; bx < c.h; ++bx, blk += 64) {
            const bool ok =
                kFast ? decode_block_fast(br, blk, dc_pred[ci], *c.dc, *c.ac)
                      : decode_block_reference(br, blk, dc_pred[ci], *c.dc, *c.ac);
            if (!ok) fail("corrupt entropy-coded data");
          }
        }
      }
      if (++mx == mcus_x) {
        mx = 0;
        ++my;
      }
    }
  }

  /// Restart-interval path: pre-scan the byte stream for the RST markers
  /// (cheap — stuffing rules make them unambiguous without decoding), then
  /// decode the segments independently on parallel_for. Every segment
  /// resets its DC predictors exactly as the serial walk did after
  /// take_marker, and segments write disjoint block ranges of the shared
  /// coefficient planes, so the output is bit-identical at every thread
  /// count. Thrown errors (corrupt segments) propagate via parallel_for's
  /// first-exception rule.
  void decode_scan_segments(int num_threads) {
    const std::uint8_t* scan = data_ + scan_start;
    const std::size_t scan_size = size_ - scan_start;
    const int ri = info.restart_interval;
    const int total_mcus = mcus_x * mcus_y;
    const int num_segments = (total_mcus + ri - 1) / ri;

    struct Segment {
      std::size_t begin, end;  // byte range within the scan, markers and fill excluded
    };
    std::vector<Segment> segments;
    segments.reserve(static_cast<std::size_t>(num_segments));
    std::size_t seg_begin = 0;
    std::size_t p = 0;
    while (static_cast<int>(segments.size()) + 1 < num_segments) {
      if (p + 1 >= scan_size) fail("missing restart marker");
      if (scan[p] != 0xFF) {
        ++p;
        continue;
      }
      // Every 0xFF of a run but the last is a fill byte (T.81 B.1.1.2),
      // and a data 0xFF is always followed by 0x00, so a segment ends at
      // the run's first 0xFF.
      const std::size_t run_begin = p;
      while (p + 1 < scan_size && scan[p + 1] == 0xFF) ++p;
      if (p + 1 >= scan_size) fail("missing restart marker");
      const std::uint8_t next = scan[p + 1];
      if (next == 0x00) {  // stuffed data byte
        p += 2;
        continue;
      }
      if (!is_rst(next)) fail("missing restart marker");
      if (next != kRST0 + static_cast<int>(segments.size() % 8))
        fail("restart marker out of sequence");
      segments.push_back({seg_begin, run_begin});
      p += 2;
      seg_begin = p;
    }
    segments.push_back({seg_begin, scan_size});

    runtime::parallel_for(
        0, segments.size(), 1,
        [&](std::size_t si) {
          const Segment& seg = segments[si];
          BitReader br(scan + seg.begin, seg.end - seg.begin);
          const int m0 = static_cast<int>(si) * ri;
          decode_mcu_range(br, m0, std::min(total_mcus, m0 + ri));
          if (si + 1 < segments.size()) {
            // The serial reader demanded a restart marker right after the
            // segment's last MCU; here the marker position is fixed by the
            // pre-scan, so undelivered payload before it (beyond the <= 7
            // pad bits of the final byte) means the segment over-ran its
            // restart interval.
            const std::size_t unread_bytes = (seg.end - seg.begin) - br.position();
            if (br.buffered_bits() + 8 * static_cast<int>(unread_bytes) > 7)
              fail("missing restart marker");
          }
        },
        num_threads);
  }

  image::Image reconstruct() {
    // Per component: batched dequantize into the float coefficient arena,
    // in-place batched IDCT, then untile (+128 level unshift) into the
    // component's plane arena. Identical arithmetic to the seed's per-block
    // idct(dequantize(...)) loop, with zero per-block allocations.
    for (std::size_t ci = 0; ci < num_comps; ++ci) {
      const FrameComponent& c = comps[ci];
      if (!info.quant_tables[c.tq]) fail("component references undefined DQT");
      const QuantTable& qt = *info.quant_tables[c.tq];
      pipeline::CoeffPlane& fp = ctx_.decode_fp;
      fp.reshape(c.blocks_x, c.blocks_y);
      dequantize_batch(c.coeffs, fp.block_count(), qt, fp.data());
      idct_batch(fp.data(), fp.block_count());
      PlaneF& plane = ctx_.decode_planes[ci];
      plane.reset(c.blocks_x * kBlockDim, c.blocks_y * kBlockDim);
      image::untile_blocks_from(fp.data(), c.blocks_x, c.blocks_y, plane, 128.0f);
    }

    if (num_comps == 1) {
      image::Image img(info.width, info.height, 1);
      image::from_plane(ctx_.decode_planes[0], img, 0);
      return img;
    }
    return reconstruct_colour();
  }

  /// Colour reconstruction as one row loop straight into the output image.
  /// A full-resolution component feeds its plane row. A 2x2-subsampled
  /// chroma component runs image::upsample_2x2's arithmetic in two passes:
  /// each input row is upsampled horizontally once into a two-slot ring
  /// (slot = row parity), and output row y blends its two ring rows
  /// vertically. Those are upsample_2x2's float operations in its order,
  /// followed by to_rgb's, so the pixels equal that composition's at every
  /// SIMD level — tests keep it as the oracle.
  image::Image reconstruct_colour() {
    const int w = info.width;
    const int h = info.height;
    bool half[pipeline::kMaxComponents] = {};
    for (std::size_t ci = 0; ci < num_comps; ++ci) {
      const FrameComponent& c = comps[ci];
      if (c.h == info.max_h && c.v == info.max_v) continue;
      if (ci == 0 || 2 * c.h != info.max_h || 2 * c.v != info.max_v)
        fail("unsupported sampling factor combination");
      half[ci] = true;
    }
    // A subsampled plane is padded past ceil(dim / 2); only that much of it
    // is image.
    const int in_w = (w + 1) / 2;
    const int in_h = (h + 1) / 2;
    // Per chroma component: two ring rows, then the blended row.
    std::vector<float>& rows = ctx_.decode_rows;
    rows.resize(static_cast<std::size_t>(6) * w);
    int held[pipeline::kMaxComponents][2] = {{-1, -1}, {-1, -1}, {-1, -1}};
    const simd::KernelTable& k = simd::kernels();
    image::Image img(w, h, 3);
    for (int y = 0; y < h; ++y) {
      // upsample_2x2's vertical taps for output row y.
      const int y0 = y == 0 ? 0 : (y - 1) / 2;
      const int y1 = std::min(y0 + 1, in_h - 1);
      const float wy = y == 0 ? 0.0f : (y % 2 == 1 ? 0.25f : 0.75f);
      const float* src[pipeline::kMaxComponents];
      for (std::size_t ci = 0; ci < num_comps; ++ci) {
        const PlaneF& plane = ctx_.decode_planes[ci];
        if (!half[ci]) {
          src[ci] = plane_row(plane, y);
          continue;
        }
        float* ring = rows.data() + (ci - 1) * 3 * static_cast<std::size_t>(w);
        for (const int r : {y0, y1}) {
          if (held[ci][r % 2] == r) continue;
          k.upsample_h2_row(plane_row(plane, r), in_w, w,
                            ring + static_cast<std::size_t>(r % 2) * w);
          held[ci][r % 2] = r;
        }
        float* blended = ring + static_cast<std::size_t>(2) * w;
        k.lerp_rows(ring + static_cast<std::size_t>(y0 % 2) * w,
                    ring + static_cast<std::size_t>(y1 % 2) * w, wy, w, blended);
        src[ci] = blended;
      }
      k.ycbcr_to_rgb_row(src[0], src[1], src[2], w,
                         img.data().data() + static_cast<std::size_t>(y) * w * 3);
    }
    return img;
  }

 private:
  std::uint8_t read_u8() {
    if (pos_ >= size_) fail("unexpected end of stream");
    return data_[pos_++];
  }

  std::uint16_t read_u16() {
    const std::uint16_t hi = read_u8();
    return static_cast<std::uint16_t>((hi << 8) | read_u8());
  }

  std::uint8_t next_marker() {
    // Skip fill bytes and any stray non-FF bytes between segments.
    while (pos_ < size_) {
      std::uint8_t b = read_u8();
      if (b != 0xFF) continue;
      while (pos_ < size_ && data_[pos_] == 0xFF) ++pos_;
      if (pos_ >= size_) break;
      b = read_u8();
      if (b != 0x00) return b;
    }
    fail("ran out of markers");
  }

  void skip_segment() {
    const std::uint16_t len = read_u16();
    if (len < 2) fail("bad segment length");
    if (pos_ + len - 2 > size_) fail("segment exceeds stream");
    pos_ += len - 2u;
  }

  void read_com() {
    const std::uint16_t len = read_u16();
    if (len < 2 || pos_ + len - 2 > size_) fail("bad COM segment");
    info.comment.assign(reinterpret_cast<const char*>(data_ + pos_), len - 2u);
    pos_ += len - 2u;
  }

  void read_dqt() {
    const std::uint16_t len = read_u16();
    std::size_t end = pos_ + len - 2u;
    if (len < 2 || end > size_) fail("bad DQT segment");
    while (pos_ < end) {
      const std::uint8_t pq_tq = read_u8();
      const int pq = pq_tq >> 4;
      const int tq = pq_tq & 0x0F;
      if (pq > 1 || tq > 3) fail("bad DQT precision/index");
      std::array<std::uint16_t, 64> natural{};
      for (int k = 0; k < 64; ++k) {
        const std::uint16_t q = pq ? read_u16() : read_u8();
        natural[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(k)])] = q;
      }
      info.quant_tables[tq] = QuantTable(natural);
    }
  }

  void read_dht() {
    const std::uint16_t len = read_u16();
    std::size_t end = pos_ + len - 2u;
    if (len < 2 || end > size_) fail("bad DHT segment");
    while (pos_ < end) {
      const std::uint8_t tc_th = read_u8();
      const int tc = tc_th >> 4;
      const int th = tc_th & 0x0F;
      if (tc > 1 || th > 3) fail("bad DHT class/index");
      // A later definition of the same slot replaces this one; decode_scan
      // resolves only the definitions the scan ends up referencing.
      HuffmanTableDef& t = huffman_[tc][th];
      int total = 0;
      for (int l = 1; l <= 16; ++l) {
        t.counts[static_cast<std::size_t>(l)] = read_u8();
        total += t.counts[static_cast<std::size_t>(l)];
      }
      if (total > 256) fail("bad DHT symbol count");
      for (int i = 0; i < total; ++i) t.symbols[static_cast<std::size_t>(i)] = read_u8();
      try {
        HuffmanSpec::validate_counts(t.counts);
      } catch (const std::invalid_argument& e) {
        fail(std::string("invalid Huffman table: ") + e.what());
      }
      t.defined = true;
    }
  }

  const HuffmanDecoder* resolve_table(int tc, int th) {
    const HuffmanTableDef& t = huffman_[tc][th];
    if (!t.defined) fail("scan references undefined Huffman table");
    return &ctx_.decoder_for(t.counts, t.symbols.data());
  }

  void read_sof() {
    const std::uint16_t len = read_u16();
    if (len < 8) fail("bad SOF segment");
    const int precision = read_u8();
    if (precision != 8) fail("only 8-bit precision supported");
    info.height = read_u16();
    info.width = read_u16();
    if (info.width == 0 || info.height == 0) fail("zero frame dimension");
    info.components = read_u8();
    if (info.components != 1 && info.components != 3)
      fail("only 1- or 3-component frames supported");
    num_comps = static_cast<std::size_t>(info.components);
    for (std::size_t i = 0; i < num_comps; ++i) {
      FrameComponent c;
      c.id = read_u8();
      const std::uint8_t hv = read_u8();
      c.h = hv >> 4;
      c.v = hv & 0x0F;
      c.tq = read_u8();
      if (c.h < 1 || c.h > 2 || c.v < 1 || c.v > 2 || c.tq > 3)
        fail("unsupported component parameters");
      comps[i] = c;
    }
    info.max_h = 1;
    info.max_v = 1;
    for (std::size_t i = 0; i < num_comps; ++i) {
      info.max_h = std::max(info.max_h, comps[i].h);
      info.max_v = std::max(info.max_v, comps[i].v);
    }
    mcus_x = (info.width + info.max_h * kBlockDim - 1) / (info.max_h * kBlockDim);
    mcus_y = (info.height + info.max_v * kBlockDim - 1) / (info.max_v * kBlockDim);
    for (std::size_t i = 0; i < num_comps; ++i) {
      comps[i].blocks_x = mcus_x * comps[i].h;
      comps[i].blocks_y = mcus_y * comps[i].v;
    }
  }

  void read_dri() {
    const std::uint16_t len = read_u16();
    if (len != 4) fail("bad DRI segment");
    info.restart_interval = read_u16();
  }

  void read_sos() {
    if (num_comps == 0) fail("SOS before SOF");
    const std::uint16_t len = read_u16();
    const int ns = read_u8();
    // A baseline frame may legally code its components in separate scans;
    // only a single interleaved scan of every component is decoded here.
    if (ns != static_cast<int>(num_comps))
      fail("non-interleaved sequential scans are not supported "
           "(scan codes fewer components than the frame)");
    if (len != 6 + 2 * ns) fail("bad SOS length");
    for (int i = 0; i < ns; ++i) {
      const int cs = read_u8();
      const std::uint8_t td_ta = read_u8();
      const auto end = comps.begin() + static_cast<std::ptrdiff_t>(num_comps);
      const auto it = std::find_if(comps.begin(), end,
                                   [cs](const FrameComponent& c) { return c.id == cs; });
      if (it == end) fail("scan references unknown component");
      it->dc_table = td_ta >> 4;
      it->ac_table = td_ta & 0x0F;
      if (it->dc_table > 3 || it->ac_table > 3) fail("bad scan table index");
    }
    const int ss = read_u8();
    const int se = read_u8();
    const int ah_al = read_u8();
    if (ss != 0 || se != 63 || ah_al != 0)
      fail("only sequential baseline scans supported");
  }

  pipeline::CodecContext& ctx_;
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  HuffmanTableDef huffman_[2][4];  // [class: 0 DC, 1 AC][index]
  bool fast_ = true;  // every scan table has a fast table
};

}  // namespace

image::Image decode(ByteSpan bytes, pipeline::CodecContext& ctx, int num_threads) {
  Parser parser(bytes.data, bytes.size, ctx);
  {
    obs::Span span(obs::Stage::kDecodeEntropy, bytes.size);
    if (!parser.parse_headers()) fail("stream contains no scan");
    parser.decode_scan(num_threads);
  }
  obs::Span span(obs::Stage::kDecodePixels);
  return parser.reconstruct();
}

image::Image decode(ByteSpan bytes) {
  return decode(bytes, pipeline::thread_codec_context());
}

JpegInfo decode_coefficients(ByteSpan bytes, pipeline::CodecContext& ctx,
                             int num_threads) {
  Parser parser(bytes.data, bytes.size, ctx);
  if (!parser.parse_headers()) fail("stream contains no scan");
  parser.decode_scan(num_threads);
  return parser.info;
}

JpegInfo parse_info(ByteSpan bytes) {
  // Header-only parse: never touches the context arenas.
  Parser parser(bytes.data, bytes.size, pipeline::thread_codec_context());
  parser.parse_headers();
  return parser.info;
}

std::size_t scan_byte_count(ByteSpan bytes) {
  Parser parser(bytes.data, bytes.size, pipeline::thread_codec_context());
  if (!parser.parse_headers()) fail("stream contains no scan");
  if (bytes.size < parser.scan_start + 2) fail("truncated scan");
  return bytes.size - parser.scan_start - 2;  // exclude the trailing EOI
}

}  // namespace dnj::jpeg
