#include <gtest/gtest.h>

#include <random>

#include "jpeg/bitio.hpp"
#include "jpeg/huffman.hpp"

namespace dnj::jpeg {
namespace {

TEST(HuffmanSpec, DefaultTablesValidate) {
  EXPECT_NO_THROW(HuffmanSpec::default_dc_luma().validate());
  EXPECT_NO_THROW(HuffmanSpec::default_ac_luma().validate());
  EXPECT_NO_THROW(HuffmanSpec::default_dc_chroma().validate());
  EXPECT_NO_THROW(HuffmanSpec::default_ac_chroma().validate());
  EXPECT_EQ(HuffmanSpec::default_dc_luma().symbol_count(), 12);
  EXPECT_EQ(HuffmanSpec::default_ac_luma().symbol_count(), 162);
}

TEST(HuffmanSpec, RejectsMismatchedSymbols) {
  HuffmanSpec s = HuffmanSpec::default_dc_luma();
  s.symbols.pop_back();
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(HuffmanSpec, RejectsKraftViolation) {
  HuffmanSpec s;
  s.counts[1] = 3;  // three 1-bit codes cannot exist
  s.symbols = {0, 1, 2};
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

// Round-trips a symbol sequence through encoder + decoder.
void round_trip_symbols(const HuffmanSpec& spec, const std::vector<std::uint8_t>& syms) {
  const HuffmanEncoder enc(spec);
  const HuffmanDecoder dec(spec);
  std::vector<std::uint8_t> bytes;
  BitWriter bw(bytes);
  for (std::uint8_t s : syms) enc.encode(bw, s);
  bw.flush();
  BitReader br(bytes.data(), bytes.size());
  for (std::size_t i = 0; i < syms.size(); ++i) {
    const int got = dec.decode(br);
    ASSERT_EQ(got, syms[i]) << "symbol index " << i;
  }
}

class DefaultTableRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(DefaultTableRoundTrip, RandomSymbolStreams) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  const HuffmanSpec spec = HuffmanSpec::default_ac_luma();
  std::vector<std::uint8_t> syms;
  std::uniform_int_distribution<std::size_t> pick(0, spec.symbols.size() - 1);
  for (int i = 0; i < 500; ++i) syms.push_back(spec.symbols[pick(rng)]);
  round_trip_symbols(spec, syms);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DefaultTableRoundTrip, ::testing::Range(1, 7));

TEST(HuffmanEncoder, RejectsUncodedSymbol) {
  const HuffmanSpec spec = HuffmanSpec::default_dc_luma();  // symbols 0..11 only
  const HuffmanEncoder enc(spec);
  std::vector<std::uint8_t> bytes;
  BitWriter bw(bytes);
  EXPECT_THROW(enc.encode(bw, 200), std::invalid_argument);
  EXPECT_TRUE(enc.has_code(5));
  EXPECT_FALSE(enc.has_code(99));
}

TEST(BuildOptimal, CoversExactlyUsedSymbols) {
  std::array<std::uint32_t, 256> freq{};
  freq[3] = 100;
  freq[17] = 50;
  freq[200] = 1;
  const HuffmanSpec spec = HuffmanSpec::build_optimal(freq);
  EXPECT_EQ(spec.symbol_count(), 3);
  // Most frequent symbol gets the shortest code.
  const HuffmanEncoder enc(spec);
  EXPECT_LE(enc.code_length(3), enc.code_length(17));
  EXPECT_LE(enc.code_length(17), enc.code_length(200));
}

TEST(BuildOptimal, SingleSymbolGetsOneBitCode) {
  std::array<std::uint32_t, 256> freq{};
  freq[42] = 7;
  const HuffmanSpec spec = HuffmanSpec::build_optimal(freq);
  EXPECT_EQ(spec.symbol_count(), 1);
  const HuffmanEncoder enc(spec);
  EXPECT_EQ(enc.code_length(42), 1);
  round_trip_symbols(spec, std::vector<std::uint8_t>(10, 42));
}

class OptimalTableProperty : public ::testing::TestWithParam<int> {};

TEST_P(OptimalTableProperty, RoundTripsAndBeatsDefaultOnSkewedData) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 77);
  // Skewed distribution over a subset of the default AC alphabet.
  const HuffmanSpec def = HuffmanSpec::default_ac_luma();
  std::array<std::uint32_t, 256> freq{};
  std::vector<std::uint8_t> stream;
  std::geometric_distribution<int> geo(0.25);
  for (int i = 0; i < 4000; ++i) {
    const std::size_t idx =
        std::min<std::size_t>(static_cast<std::size_t>(geo(rng)), def.symbols.size() - 1);
    const std::uint8_t sym = def.symbols[idx];
    ++freq[sym];
    stream.push_back(sym);
  }
  const HuffmanSpec opt = HuffmanSpec::build_optimal(freq);
  round_trip_symbols(opt, stream);

  const HuffmanEncoder enc_def(def);
  const HuffmanEncoder enc_opt(opt);
  std::size_t bits_def = 0, bits_opt = 0;
  for (std::uint8_t s : stream) {
    bits_def += static_cast<std::size_t>(enc_def.code_length(s));
    bits_opt += static_cast<std::size_t>(enc_opt.code_length(s));
  }
  EXPECT_LE(bits_opt, bits_def);
}

TEST_P(OptimalTableProperty, AllCodeLengthsWithin16) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 13 + 5);
  // Extremely skewed frequencies force the length-limiting path.
  std::array<std::uint32_t, 256> freq{};
  std::uint32_t f = 1;
  for (int i = 0; i < 40; ++i) {
    freq[static_cast<std::size_t>(i)] = f;
    f = (f < 100000000u) ? f * 2 : f;
  }
  const HuffmanSpec spec = HuffmanSpec::build_optimal(freq);
  spec.validate();
  const HuffmanEncoder enc(spec);
  for (int i = 0; i < 40; ++i) {
    EXPECT_GE(enc.code_length(static_cast<std::uint8_t>(i)), 1);
    EXPECT_LE(enc.code_length(static_cast<std::uint8_t>(i)), 16);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalTableProperty, ::testing::Range(1, 9));

TEST(HuffmanDecoder, InvalidBitsReturnMinusOne) {
  // A stream of all-ones longer than any valid code in the DC luma table
  // eventually fails to decode.
  const HuffmanSpec spec = HuffmanSpec::default_dc_luma();
  const HuffmanDecoder dec(spec);
  std::vector<std::uint8_t> bytes = {0xFF, 0x00, 0xFF, 0x00, 0xFF, 0x00};
  BitReader br(bytes.data(), bytes.size());
  int result = 0;
  for (int i = 0; i < 6 && result >= 0; ++i) result = dec.decode(br);
  EXPECT_LT(result, 0);
}

TEST(ExtendMagnitude, MatchesT81ExtendAtEverySize) {
  // T.81 F.2.2.1: a size-bit field v below 2^(size-1) encodes
  // v - 2^size + 1, any other v encodes itself.
  for (int size = 1; size <= 15; ++size)
    for (int v = 0; v < (1 << size); ++v) {
      const int want = v < (1 << (size - 1)) ? v - (1 << size) + 1 : v;
      ASSERT_EQ(extend_magnitude(static_cast<std::uint32_t>(v), size), want)
          << "size " << size << " v " << v;
    }
}

}  // namespace
}  // namespace dnj::jpeg
