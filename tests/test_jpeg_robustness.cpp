// Failure-injection tests: the decoder must reject (throw) — never crash,
// hang, or read out of bounds — on truncated, bit-flipped, and shuffled
// streams. Sanitizer-friendly by construction: every mutation is exercised
// through the public decode API.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>

#include "data/synthetic.hpp"
#include "jpeg/codec.hpp"

namespace dnj::jpeg {
namespace {

std::vector<std::uint8_t> reference_stream() {
  data::GeneratorConfig cfg;
  cfg.width = 48;
  cfg.height = 40;
  cfg.seed = 99;
  const image::Image img =
      data::SyntheticDatasetGenerator(cfg).render(data::ClassKind::kBandNoise, 0);
  EncoderConfig ec;
  ec.quality = 80;
  return encode(img, ec);
}

// Decode must either succeed or throw std::runtime_error; anything else
// (crash, std::bad_alloc from a bogus size, etc.) is a failure.
void expect_graceful(const std::vector<std::uint8_t>& bytes) {
  try {
    const image::Image img = decode(bytes);
    // If it decoded, the geometry must be sane.
    EXPECT_GT(img.width(), 0);
    EXPECT_GT(img.height(), 0);
    EXPECT_LE(img.width(), 65535);
    EXPECT_LE(img.height(), 65535);
  } catch (const std::runtime_error&) {
    // acceptable: rejected as corrupt
  }
}

class TruncationSweep : public ::testing::TestWithParam<int> {};

TEST_P(TruncationSweep, EveryPrefixIsHandled) {
  const std::vector<std::uint8_t> full = reference_stream();
  // Sweep a band of prefix lengths determined by the parameter decile.
  const std::size_t begin = full.size() * static_cast<std::size_t>(GetParam()) / 10;
  const std::size_t end = full.size() * static_cast<std::size_t>(GetParam() + 1) / 10;
  for (std::size_t len = begin; len < end; len += 7) {
    std::vector<std::uint8_t> prefix(full.begin(), full.begin() + static_cast<long>(len));
    expect_graceful(prefix);
  }
}

INSTANTIATE_TEST_SUITE_P(Deciles, TruncationSweep, ::testing::Range(0, 10));

class BitFlipSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitFlipSweep, RandomSingleByteCorruptions) {
  const std::vector<std::uint8_t> full = reference_stream();
  std::mt19937_64 rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<std::uint8_t> mutated = full;
    const std::size_t pos = rng() % mutated.size();
    mutated[pos] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    expect_graceful(mutated);
  }
}

TEST_P(BitFlipSweep, RandomMultiByteCorruptions) {
  const std::vector<std::uint8_t> full = reference_stream();
  std::mt19937_64 rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::uint8_t> mutated = full;
    const int flips = 2 + static_cast<int>(rng() % 12);
    for (int f = 0; f < flips; ++f)
      mutated[rng() % mutated.size()] = static_cast<std::uint8_t>(rng() & 0xFF);
    expect_graceful(mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitFlipSweep, ::testing::Range<std::uint64_t>(1, 6));

TEST(Robustness, NonInterleavedScanIsNamedInTheError) {
  // A baseline (SOF0) frame may code its components in separate scans.
  // The decoder reads one interleaved scan only, and must say that, not
  // blame progressive coding: patch a colour stream's SOS down to its
  // first component.
  data::GeneratorConfig cfg;
  cfg.width = 48;
  cfg.height = 40;
  cfg.channels = 3;
  cfg.seed = 99;
  const image::Image img =
      data::SyntheticDatasetGenerator(cfg).render(data::ClassKind::kBandNoise, 0);
  EncoderConfig ec;
  ec.quality = 80;
  std::vector<std::uint8_t> s = encode(img, ec);
  std::size_t sos = 0;
  while (sos + 1 < s.size() && !(s[sos] == 0xFF && s[sos + 1] == 0xDA)) ++sos;
  ASSERT_LT(sos + 12, s.size());
  ASSERT_EQ(s[sos + 4], 3);  // Ns
  s[sos + 3] = 8;            // Ls = 6 + 2 * Ns
  s[sos + 4] = 1;
  s.erase(s.begin() + static_cast<long>(sos) + 7, s.begin() + static_cast<long>(sos) + 11);
  try {
    (void)decode(s);
    ADD_FAILURE() << "a one-component scan of a colour frame decoded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("non-interleaved sequential scans are not supported"),
              std::string::npos)
        << what;
    EXPECT_EQ(what.find("progressive"), std::string::npos) << what;
  }
}

TEST(Robustness, HeaderFieldMutations) {
  const std::vector<std::uint8_t> full = reference_stream();
  // Targeted corruption of every byte in the header region (through SOS).
  const std::size_t header_len = std::min<std::size_t>(full.size(), 700);
  for (std::size_t pos = 2; pos < header_len; ++pos) {
    std::vector<std::uint8_t> mutated = full;
    mutated[pos] ^= 0xFF;
    expect_graceful(mutated);
  }
}

TEST(Robustness, ZeroLengthSegments) {
  // DQT with segment length 2 (no payload) then EOI: must throw, not loop.
  const std::vector<std::uint8_t> stream = {0xFF, 0xD8, 0xFF, 0xDB, 0x00, 0x02,
                                            0xFF, 0xD9};
  expect_graceful(stream);
}

TEST(Robustness, RepeatedSoi) {
  std::vector<std::uint8_t> full = reference_stream();
  std::vector<std::uint8_t> doubled;
  doubled.reserve(full.size() + 2);
  doubled.push_back(0xFF);
  doubled.push_back(0xD8);
  doubled.insert(doubled.end(), full.begin(), full.end());
  expect_graceful(doubled);
}

TEST(Robustness, AllBytesSame) {
  for (int b : {0x00, 0xFF, 0xD8, 0x42}) {
    std::vector<std::uint8_t> stream(256, static_cast<std::uint8_t>(b));
    expect_graceful(stream);
  }
}

TEST(Robustness, ScanDataReplacedWithNoise) {
  const std::vector<std::uint8_t> full = reference_stream();
  // Find SOS and randomize everything after its header.
  std::size_t sos = 0;
  for (std::size_t i = 0; i + 1 < full.size(); ++i)
    if (full[i] == 0xFF && full[i + 1] == 0xDA) {
      sos = i;
      break;
    }
  ASSERT_GT(sos, 0u);
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint8_t> mutated = full;
    for (std::size_t i = sos + 14; i < mutated.size() - 2; ++i)
      mutated[i] = static_cast<std::uint8_t>(rng() & 0xFF);
    expect_graceful(mutated);
  }
}

}  // namespace
}  // namespace dnj::jpeg
