#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "jpeg/bitio.hpp"
#include "jpeg/markers.hpp"

namespace dnj::jpeg {
namespace {

TEST(BitWriter, MsbFirstOrder) {
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  bw.put_bits(0b101, 3);
  bw.put_bits(0b00110, 5);
  bw.flush();  // bits drain in batches; flush before inspecting
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0b10100110);
}

TEST(BitWriter, FlushPadsWithOnes) {
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  bw.put_bits(0b0, 1);
  bw.flush();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0b01111111);
}

TEST(BitWriter, StuffsFFBytes) {
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  bw.put_bits(0xFF, 8);
  bw.flush();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 0xFF);
  EXPECT_EQ(out[1], 0x00);
}

TEST(BitWriter, BatchedDrainStuffsEveryFFInWord) {
  // Four 0xFF data bytes written as 32 accumulated bits must each get a
  // stuffing 0x00 when the batch drains.
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  bw.put_bits(0xFFFF, 16);
  bw.put_bits(0xFFFF, 16);
  bw.flush();
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < 8; i += 2) {
    EXPECT_EQ(out[i], 0xFF);
    EXPECT_EQ(out[i + 1], 0x00);
  }
}

TEST(BitWriter, MarkerIsNotStuffed) {
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  bw.put_bits(0x5, 3);
  bw.put_marker(kEOI);
  ASSERT_EQ(out.size(), 3u);  // padded byte + FF D9
  EXPECT_EQ(out[1], 0xFF);
  EXPECT_EQ(out[2], kEOI);
}

TEST(BitWriter, RejectsBadCount) {
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  EXPECT_THROW(bw.put_bits(0, 33), std::invalid_argument);
  EXPECT_THROW(bw.put_bits(0, -1), std::invalid_argument);
}

TEST(BitWriter, FullWidthWrite) {
  // 32-bit writes carry a fused Huffman code + magnitude field.
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  bw.put_bits(0xDEADBEEFu, 32);
  bw.flush();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 0xDE);
  EXPECT_EQ(out[1], 0xAD);
  EXPECT_EQ(out[2], 0xBE);
  EXPECT_EQ(out[3], 0xEF);
}

TEST(BitReader, ReadsBackWrittenBits) {
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  bw.put_bits(0b1101, 4);
  bw.put_bits(0xABC, 12);
  bw.put_bits(0x3FFFF, 18);  // includes FF bytes to exercise stuffing
  bw.flush();
  BitReader br(out.data(), out.size());
  EXPECT_EQ(br.get_bits(4), 0b1101);
  EXPECT_EQ(br.get_bits(12), 0xABC);
  EXPECT_EQ(br.get_bits(18), 0x3FFFF);
}

class BitIoRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitIoRoundTrip, RandomChunks) {
  std::mt19937_64 rng(GetParam());
  std::vector<std::pair<std::uint32_t, int>> chunks;
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  for (int i = 0; i < 300; ++i) {
    const int count = static_cast<int>(rng() % 24) + 1;
    const std::uint32_t bits = static_cast<std::uint32_t>(rng()) & ((1u << count) - 1u);
    chunks.emplace_back(bits, count);
    bw.put_bits(bits, count);
  }
  bw.flush();
  BitReader br(out.data(), out.size());
  for (const auto& [bits, count] : chunks)
    ASSERT_EQ(static_cast<std::uint32_t>(br.get_bits(count)), bits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitIoRoundTrip, ::testing::Range<std::uint64_t>(1, 9));

TEST(BitReader, StopsAtMarker) {
  const std::vector<std::uint8_t> data = {0xAA, 0xFF, kEOI};
  BitReader br(data.data(), data.size());
  EXPECT_EQ(br.get_bits(8), 0xAA);
  EXPECT_EQ(br.get_bits(8), -1);  // marker, not data
  EXPECT_TRUE(br.at_marker());
  EXPECT_EQ(br.peek_marker(), kEOI);
  EXPECT_EQ(br.take_marker(), kEOI);
}

TEST(BitReader, UnstuffsData) {
  const std::vector<std::uint8_t> data = {0xFF, 0x00, 0x12};
  BitReader br(data.data(), data.size());
  EXPECT_EQ(br.get_bits(8), 0xFF);
  EXPECT_EQ(br.get_bits(8), 0x12);
}

TEST(BitReader, SkipsFillBytesBeforeMarker) {
  const std::vector<std::uint8_t> data = {0xFF, 0xFF, 0xFF, kEOI};
  BitReader br(data.data(), data.size());
  EXPECT_EQ(br.peek_marker(), kEOI);
  EXPECT_EQ(br.take_marker(), kEOI);
}

TEST(BitReader, EndOfDataReturnsMinusOne) {
  const std::vector<std::uint8_t> data = {0x80};
  BitReader br(data.data(), data.size());
  EXPECT_EQ(br.get_bit(), 1);
  EXPECT_EQ(br.get_bits(8), -1);
}

// The bits a reader must deliver from `d`: data bytes unstuffed (FF 00 ->
// FF), fill bytes (FF FF) skipped, up to the first marker or a lone
// trailing FF.
std::vector<int> model_scan_bits(const std::vector<std::uint8_t>& d) {
  std::vector<int> bits;
  const auto push = [&bits](int b) {
    for (int i = 7; i >= 0; --i) bits.push_back((b >> i) & 1);
  };
  std::size_t p = 0;
  while (p < d.size()) {
    if (d[p] != 0xFF) {
      push(d[p++]);
    } else if (p + 1 >= d.size()) {
      break;
    } else if (d[p + 1] == 0x00) {
      push(0xFF);
      p += 2;
    } else if (d[p + 1] == 0xFF) {
      ++p;
    } else {
      break;  // marker
    }
  }
  return bits;
}

class BitReaderModel : public ::testing::TestWithParam<std::uint64_t> {};

// Random scans dense in stuffed bytes, fill bytes and markers, read in
// random widths: every read matches a byte-at-a-time model, whichever
// refill (8-byte load or byte walk) supplied the bits.
TEST_P(BitReaderModel, MatchesByteWalkModel) {
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> d;
    const std::size_t len = static_cast<std::size_t>(rng() % (round % 4 == 0 ? 12 : 160));
    while (d.size() < len) {
      const unsigned pick = static_cast<unsigned>(rng() % 64);
      if (pick < 6) {
        d.insert(d.end(), {0xFF, 0x00});
      } else if (pick < 8) {
        d.insert(d.end(), {0xFF, 0xFF});
      } else if (pick == 8 && rng() % 8 == 0) {
        d.insert(d.end(), {0xFF, static_cast<std::uint8_t>(rng() % 2 ? kEOI : 0xD0 + rng() % 8)});
      } else {
        d.push_back(static_cast<std::uint8_t>(rng() % 255));  // never a lone 0xFF here
      }
    }
    if (rng() % 8 == 0) d.push_back(0xFF);  // trailing lone 0xFF
    const std::vector<int> want = model_scan_bits(d);
    BitReader br(d.data(), d.size());
    std::size_t at = 0;  // bits consumed so far
    for (int read = 0; read < 400; ++read) {
      const int count = static_cast<int>(rng() % 32) + 1;
      if (read % 3 == 0 && br.buffered_bits() < 32) {
        // The lookahead window the block decoder reads.
        const int buffered = br.fill();
        const int n = std::min(buffered, 32);
        ASSERT_LE(at + static_cast<std::size_t>(buffered), want.size());
        std::uint32_t expect = 0;
        for (int i = 0; i < n; ++i) expect = (expect << 1) | static_cast<std::uint32_t>(want[at + i]);
        if (n > 0) {
          ASSERT_EQ(static_cast<std::uint32_t>(br.window() >> (64 - n)), expect);
        }
      }
      const std::int32_t got = br.get_bits(count);
      if (at + static_cast<std::size_t>(count) > want.size()) {
        ASSERT_EQ(got, -1) << "round " << round << " read " << read;
        continue;
      }
      std::uint32_t expect = 0;
      for (int i = 0; i < count; ++i) expect = (expect << 1) | static_cast<std::uint32_t>(want[at + i]);
      ASSERT_EQ(static_cast<std::uint32_t>(got), expect) << "round " << round << " read " << read;
      at += static_cast<std::size_t>(count);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitReaderModel, ::testing::Range<std::uint64_t>(1, 9));

TEST(Markers, Predicates) {
  EXPECT_TRUE(is_rst(0xD0));
  EXPECT_TRUE(is_rst(0xD7));
  EXPECT_FALSE(is_rst(kEOI));
  EXPECT_TRUE(is_app(0xE0));
  EXPECT_TRUE(is_app(0xEF));
  EXPECT_FALSE(is_app(kSOS));
}

}  // namespace
}  // namespace dnj::jpeg
