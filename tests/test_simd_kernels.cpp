// Exhaustive scalar-vs-SIMD bit-equivalence suite for the kernel layer.
//
// Every kernel in simd::KernelTable is run at each supported SIMD level and
// compared bit-for-bit (memcmp on the raw output bytes, not EXPECT_NEAR)
// against the scalar level on the same inputs — odd block counts, plane
// sizes that exercise edge replication, quantizer boundary values, GEMM
// shapes that hit every vector-tail path. This is the enforcement half of
// the determinism contract documented in simd/dispatch.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "image/blocks.hpp"
#include "image/color.hpp"
#include "image/image.hpp"
#include "image/metrics.hpp"
#include "jpeg/dct.hpp"
#include "jpeg/quant.hpp"
#include "simd/dispatch.hpp"

namespace dnj::simd {
namespace {

std::vector<Level> simd_levels() {
  std::vector<Level> out;
  for (Level l : {Level::kSse2, Level::kAvx2})
    if (set_level(l)) out.push_back(l);
  set_level(max_supported_level());
  return out;
}

/// Runs `fn` once per supported SIMD level (scalar excluded) with the level
/// pinned, restoring the auto level afterwards.
template <typename Fn>
void for_each_simd_level(Fn&& fn) {
  for (Level l : simd_levels()) {
    ASSERT_TRUE(set_level(l));
    fn(l);
  }
  set_level(max_supported_level());
}

std::vector<float> random_blocks(std::size_t count, std::uint64_t seed,
                                 float lo = -2048.0f, float hi = 2048.0f) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> out(count * 64);
  for (float& v : out) v = dist(rng);
  return out;
}

TEST(SimdKernels, FdctBatchMatchesScalarBitExact) {
  for (std::size_t count : {std::size_t{1}, std::size_t{3}, std::size_t{17},
                            std::size_t{64}}) {
    const std::vector<float> input = random_blocks(count, 0xF0 + count, -128.0f, 127.0f);
    std::vector<float> expect = input;
    jpeg::fdct_batch_scalar(expect.data(), count);
    for_each_simd_level([&](Level l) {
      std::vector<float> got = input;
      kernels().fdct_batch(got.data(), count);
      EXPECT_EQ(0, std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)))
          << "level=" << level_name(l) << " count=" << count;
    });
  }
}

TEST(SimdKernels, IdctBatchMatchesScalarBitExact) {
  for (std::size_t count : {std::size_t{1}, std::size_t{5}, std::size_t{33}}) {
    const std::vector<float> input = random_blocks(count, 0x1D + count);
    std::vector<float> expect = input;
    jpeg::idct_batch_scalar(expect.data(), count);
    for_each_simd_level([&](Level l) {
      std::vector<float> got = input;
      kernels().idct_batch(got.data(), count);
      EXPECT_EQ(0, std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)))
          << "level=" << level_name(l) << " count=" << count;
    });
  }
}

TEST(SimdKernels, QuantizeBatchMatchesScalarIncludingBoundaries) {
  const std::size_t count = 9;
  std::vector<float> coeffs = random_blocks(count, 0x9A);
  // Round-half-even boundaries and clamp extremes in the first block.
  const float specials[] = {0.5f,      -0.5f,   1.5f,     2.5f,    -2.5f,
                            32767.4f,  32768.0f, 40000.0f, -40000.0f, -32768.5f,
                            1e30f,     -1e30f,  0.0f,     -0.0f,   127.5f,
                            -127.5f};
  for (std::size_t i = 0; i < sizeof(specials) / sizeof(specials[0]); ++i)
    coeffs[i] = specials[i];
  for (const jpeg::QuantTable& table :
       {jpeg::QuantTable::annex_k_luma(), jpeg::QuantTable::uniform(1),
        jpeg::QuantTable::uniform(255)}) {
    const jpeg::ReciprocalTable recip(table);
    std::vector<std::int16_t> expect(count * 64);
    set_level(Level::kScalar);
    jpeg::quantize_batch(coeffs.data(), count, recip, expect.data());
    for_each_simd_level([&](Level l) {
      std::vector<std::int16_t> got(count * 64);
      jpeg::quantize_batch(coeffs.data(), count, recip, got.data());
      EXPECT_EQ(got, expect) << "level=" << level_name(l);
    });
  }
}

TEST(SimdKernels, DequantizeBatchMatchesScalar) {
  const std::size_t count = 7;
  std::mt19937_64 rng(0xDE);
  std::vector<std::int16_t> q(count * 64);
  for (std::int16_t& v : q) v = static_cast<std::int16_t>(rng());
  const jpeg::QuantTable table = jpeg::QuantTable::annex_k_luma().scaled(35);
  std::vector<float> expect(count * 64);
  set_level(Level::kScalar);
  jpeg::dequantize_batch(q.data(), count, table, expect.data());
  for_each_simd_level([&](Level l) {
    std::vector<float> got(count * 64);
    jpeg::dequantize_batch(q.data(), count, table, got.data());
    EXPECT_EQ(0, std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)))
        << "level=" << level_name(l);
  });
}

TEST(SimdKernels, TileAndUntileMatchScalarOnOddSizes) {
  // Sizes that exercise full blocks, right/bottom edge replication, and
  // grids wider than the padded plane (the 4:2:0 luma case).
  const struct {
    int w, h, gbx, gby;
  } cases[] = {{32, 32, 4, 4}, {13, 9, 2, 2}, {8, 8, 2, 2}, {31, 17, 4, 3}};
  for (const auto& c : cases) {
    image::PlaneF plane(c.w, c.h);
    std::mt19937_64 rng(0x71E + c.w);
    std::uniform_real_distribution<float> dist(0.0f, 255.0f);
    for (float& v : plane.data()) v = dist(rng);

    std::vector<float> expect(static_cast<std::size_t>(c.gbx) * c.gby * 64);
    set_level(Level::kScalar);
    image::tile_blocks_into(plane, c.gbx, c.gby, expect.data(), -128.0f);
    image::PlaneF expect_back(c.w, c.h);
    image::untile_blocks_from(expect.data(), c.gbx, c.gby, expect_back, 128.0f);

    for_each_simd_level([&](Level l) {
      std::vector<float> got(expect.size());
      image::tile_blocks_into(plane, c.gbx, c.gby, got.data(), -128.0f);
      EXPECT_EQ(0, std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)))
          << "tile level=" << level_name(l) << " w=" << c.w << " h=" << c.h;
      image::PlaneF back(c.w, c.h);
      image::untile_blocks_from(got.data(), c.gbx, c.gby, back, 128.0f);
      EXPECT_EQ(back.data(), expect_back.data())
          << "untile level=" << level_name(l) << " w=" << c.w << " h=" << c.h;
    });
  }
}

TEST(SimdKernels, TileImageMatchesScalarForGrayAndRgb) {
  for (int channels : {1, 3}) {
    image::Image img(29, 13, channels);
    std::mt19937_64 rng(0x3C + channels);
    for (std::uint8_t& v : img.data()) v = static_cast<std::uint8_t>(rng());
    const int gbx = 4, gby = 2;
    for (int c = 0; c < channels; ++c) {
      std::vector<float> expect(static_cast<std::size_t>(gbx) * gby * 64);
      set_level(Level::kScalar);
      image::tile_image_blocks_into(img, c, gbx, gby, expect.data(), -128.0f);
      for_each_simd_level([&](Level l) {
        std::vector<float> got(expect.size());
        image::tile_image_blocks_into(img, c, gbx, gby, got.data(), -128.0f);
        EXPECT_EQ(0,
                  std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)))
            << "level=" << level_name(l) << " channels=" << channels << " c=" << c;
      });
    }
  }
}

TEST(SimdKernels, ColorTransformsMatchScalarBitExact) {
  // Odd width forces the vector tail; the pixel values sweep all bytes.
  image::Image img(37, 11, 3);
  std::mt19937_64 rng(0xC0102);
  for (std::uint8_t& v : img.data()) v = static_cast<std::uint8_t>(rng());

  set_level(Level::kScalar);
  const image::YCbCrPlanes expect = image::to_ycbcr(img);
  const image::Image expect_rgb = image::to_rgb(expect, img.width(), img.height());

  for_each_simd_level([&](Level l) {
    const image::YCbCrPlanes got = image::to_ycbcr(img);
    EXPECT_EQ(got.y.data(), expect.y.data()) << "level=" << level_name(l);
    EXPECT_EQ(got.cb.data(), expect.cb.data()) << "level=" << level_name(l);
    EXPECT_EQ(got.cr.data(), expect.cr.data()) << "level=" << level_name(l);
    const image::Image rgb = image::to_rgb(got, img.width(), img.height());
    EXPECT_EQ(rgb, expect_rgb) << "level=" << level_name(l);
  });

  // The forward kernel alone at every pixel count 1-67 (every vector tail),
  // on heap buffers that end exactly at the last pixel, so an over-read or
  // over-write past it trips the sanitizer legs.
  for (std::size_t n = 1; n <= 67; ++n) {
    std::vector<std::uint8_t> px(3 * n);
    for (std::uint8_t& v : px) v = static_cast<std::uint8_t>(rng());
    const auto run = [&] {
      std::vector<float> y(n), cb(n), cr(n);
      kernels().rgb_to_ycbcr(px.data(), n, y.data(), cb.data(), cr.data());
      y.insert(y.end(), cb.begin(), cb.end());
      y.insert(y.end(), cr.begin(), cr.end());
      return y;
    };
    set_level(Level::kScalar);
    const std::vector<float> want = run();
    for_each_simd_level([&](Level l) {
      const std::vector<float> got = run();
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(float)))
          << "level=" << level_name(l) << " n=" << n;
    });
  }
}

TEST(SimdKernels, RgbToYcbcrBlocksMatchesConvertThenTile) {
  // The fused kernel against its definition: rgb_to_ycbcr into planes, then
  // tile_f32 of each plane, both at the scalar level. Widths 1-67 and 1024
  // cover every vector tail, the two-block SSE2 pairs and a partial last
  // block column; heights 1-8 cover the short last stripe. The pixels sit
  // on a heap buffer that ends at the stripe's last pixel, so an over-read
  // trips the sanitizer legs.
  std::mt19937_64 rng(0xB10C);
  std::vector<int> widths;
  for (int w = 1; w <= 67; ++w) widths.push_back(w);
  widths.push_back(1024);
  for (const int w : widths) {
    for (int h = 1; h <= 8; ++h) {
      const int gbx = (w + 7) / 8;
      const std::size_t n = static_cast<std::size_t>(w) * h;
      std::vector<std::uint8_t> px(3 * n);
      for (std::uint8_t& v : px) v = static_cast<std::uint8_t>(rng());
      const std::size_t blocks = static_cast<std::size_t>(gbx) * 64;

      set_level(Level::kScalar);
      std::vector<float> y(n), cb(n), cr(n);
      kernels().rgb_to_ycbcr(px.data(), n, y.data(), cb.data(), cr.data());
      std::vector<float> want(3 * blocks);
      const float* planes[3] = {y.data(), cb.data(), cr.data()};
      for (int c = 0; c < 3; ++c)
        kernels().tile_f32(planes[c], w, h, gbx, 1, want.data() + c * blocks, -128.0f);

      const auto run = [&] {
        std::vector<float> got(3 * blocks);
        kernels().rgb_to_ycbcr_blocks(px.data(), w, h, gbx, got.data(), got.data() + blocks,
                                      got.data() + 2 * blocks, -128.0f);
        return got;
      };
      const std::vector<float> scalar = run();
      EXPECT_EQ(0, std::memcmp(scalar.data(), want.data(), want.size() * sizeof(float)))
          << "level=scalar w=" << w << " h=" << h;
      for_each_simd_level([&](Level l) {
        const std::vector<float> got = run();
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float)))
            << "level=" << level_name(l) << " w=" << w << " h=" << h;
      });
    }
  }
}

// The colour-decode row kernels at widths 1-67: every vector tail of both
// widths, both edge columns, and inputs outside [0, 255] that exercise the
// clamp. Outputs are compared with memcmp, and guard cells past the row
// must stay untouched.
constexpr int kMaxRowWidth = 67;
constexpr int kGuard = 16;

std::vector<float> random_row(int n, std::mt19937_64& rng) {
  std::uniform_real_distribution<float> dist(-300.0f, 600.0f);
  std::vector<float> out(static_cast<std::size_t>(n));
  for (float& v : out) v = dist(rng);
  return out;
}

TEST(SimdKernels, YcbcrToRgbRowMatchesScalarAtEveryWidth) {
  std::mt19937_64 rng(0xC0105);
  for (int n = 1; n <= kMaxRowWidth; ++n) {
    const std::vector<float> y = random_row(n, rng);
    const std::vector<float> cb = random_row(n, rng);
    const std::vector<float> cr = random_row(n, rng);
    const auto run = [&] {
      std::vector<std::uint8_t> rgb(static_cast<std::size_t>(3 * n + kGuard), 0xA5);
      kernels().ycbcr_to_rgb_row(y.data(), cb.data(), cr.data(), n, rgb.data());
      return rgb;
    };
    set_level(Level::kScalar);
    const std::vector<std::uint8_t> expect = run();
    for (int g = 0; g < kGuard; ++g) ASSERT_EQ(expect[3 * n + g], 0xA5) << "n=" << n;
    for_each_simd_level([&](Level l) {
      const std::vector<std::uint8_t> got = run();
      EXPECT_EQ(0, std::memcmp(got.data(), expect.data(), got.size()))
          << "level=" << level_name(l) << " n=" << n;
    });
  }
}

TEST(SimdKernels, UpsampleH2RowMatchesUpsample2x2Taps) {
  std::mt19937_64 rng(0x0B5A);
  for (int out_w = 1; out_w <= kMaxRowWidth; ++out_w) {
    const int in_w = (out_w + 1) / 2;
    // NaN past the row: a kernel that reads beyond in_w poisons its output.
    std::vector<float> in = random_row(in_w, rng);
    in.resize(static_cast<std::size_t>(in_w + kGuard), std::nanf(""));
    const auto run = [&] {
      std::vector<float> out(static_cast<std::size_t>(out_w + kGuard), -1.0f);
      kernels().upsample_h2_row(in.data(), in_w, out_w, out.data());
      return out;
    };
    set_level(Level::kScalar);
    const std::vector<float> expect = run();
    // The scalar kernel is upsample_2x2's horizontal arithmetic.
    for (int x = 0; x < out_w; ++x) {
      const float fx = (static_cast<float>(x) + 0.5f) / 2.0f - 0.5f;
      const int x0 = std::clamp(static_cast<int>(std::floor(fx)), 0, in_w - 1);
      const int x1 = std::min(x0 + 1, in_w - 1);
      const float wx = std::clamp(fx - static_cast<float>(x0), 0.0f, 1.0f);
      const float ref = in[x0] * (1.0f - wx) + in[x1] * wx;
      EXPECT_EQ(0, std::memcmp(&expect[x], &ref, sizeof(float)))
          << "out_w=" << out_w << " x=" << x;
    }
    for (int g = 0; g < kGuard; ++g) ASSERT_EQ(expect[out_w + g], -1.0f);
    for_each_simd_level([&](Level l) {
      const std::vector<float> got = run();
      EXPECT_EQ(0, std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)))
          << "level=" << level_name(l) << " out_w=" << out_w;
    });
  }
}

TEST(SimdKernels, LerpRowsMatchesScalarAtEveryWidth) {
  std::mt19937_64 rng(0x1E9);
  for (int n = 1; n <= kMaxRowWidth; ++n) {
    const std::vector<float> top = random_row(n, rng);
    const std::vector<float> bot = random_row(n, rng);
    for (const float wy : {0.0f, 0.25f, 0.75f}) {
      const auto run = [&] {
        std::vector<float> out(static_cast<std::size_t>(n + kGuard), -1.0f);
        kernels().lerp_rows(top.data(), bot.data(), wy, n, out.data());
        return out;
      };
      set_level(Level::kScalar);
      const std::vector<float> expect = run();
      for (int i = 0; i < n; ++i) {
        const float ref = top[i] * (1.0f - wy) + bot[i] * wy;
        EXPECT_EQ(0, std::memcmp(&expect[i], &ref, sizeof(float))) << "n=" << n;
      }
      for (int g = 0; g < kGuard; ++g) ASSERT_EQ(expect[n + g], -1.0f);
      for_each_simd_level([&](Level l) {
        const std::vector<float> got = run();
        EXPECT_EQ(0, std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)))
            << "level=" << level_name(l) << " n=" << n << " wy=" << wy;
      });
    }
  }
}

TEST(SimdKernels, PlaneToU8MatchesClampU8) {
  // from_plane on a grayscale image dispatches the row kernel; values cover
  // negatives, overshoots, and .5 ties (round-half-even).
  image::PlaneF plane(21, 3);
  std::mt19937_64 rng(0xF8);
  std::uniform_real_distribution<float> dist(-64.0f, 320.0f);
  for (float& v : plane.data()) v = dist(rng);
  plane.data()[0] = 0.5f;
  plane.data()[1] = 1.5f;
  plane.data()[2] = 254.5f;
  plane.data()[3] = 255.5f;
  plane.data()[4] = -0.5f;

  image::Image expect(21, 3, 1);
  set_level(Level::kScalar);
  image::from_plane(plane, expect, 0);
  for_each_simd_level([&](Level l) {
    image::Image got(21, 3, 1);
    image::from_plane(plane, got, 0);
    EXPECT_EQ(got, expect) << "level=" << level_name(l);
  });
}

TEST(SimdKernels, MseIsExactAndLevelIndependent) {
  image::Image a(45, 23, 3), b(45, 23, 3);
  std::mt19937_64 rng(0x55E);
  for (std::uint8_t& v : a.data()) v = static_cast<std::uint8_t>(rng());
  for (std::uint8_t& v : b.data()) v = static_cast<std::uint8_t>(rng());

  // Reference: exact integer sum.
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    const int d = static_cast<int>(a.data()[i]) - static_cast<int>(b.data()[i]);
    sum += static_cast<std::uint64_t>(d * d);
  }
  const double expect =
      static_cast<double>(sum) / static_cast<double>(a.data().size());

  set_level(Level::kScalar);
  EXPECT_EQ(image::mse(a, b), expect);
  for_each_simd_level([&](Level l) {
    EXPECT_EQ(image::mse(a, b), expect) << "level=" << level_name(l);
  });
}

TEST(SimdKernels, QuantErrorBlockMatchesScalar) {
  const std::vector<float> block = random_blocks(1, 0x5AE);
  double steps[64];
  std::mt19937_64 rng(0x5AF);
  for (double& s : steps) s = static_cast<double>(1 + rng() % 255);
  double expect[64];
  set_level(Level::kScalar);
  kernels().quant_error_block(block.data(), steps, expect);
  for_each_simd_level([&](Level l) {
    double got[64];
    kernels().quant_error_block(block.data(), steps, got);
    EXPECT_EQ(0, std::memcmp(got, expect, sizeof(got))) << "level=" << level_name(l);
  });
}

TEST(SimdKernels, GemmAccMatchesScalarOnTailShapes) {
  // Shapes hit the 4x(2W) register tile, the single-row tail, and the
  // scalar column tail at both vector widths; zeros exercise the skip.
  const struct {
    int m, k, n;
  } shapes[] = {{4, 8, 16}, {5, 7, 19}, {1, 3, 35}, {13, 2, 5}, {8, 288, 49}};
  std::mt19937_64 rng(0x6E);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (const auto& s : shapes) {
    std::vector<float> a(static_cast<std::size_t>(s.m) * s.k);
    std::vector<float> at(static_cast<std::size_t>(s.k) * s.m);
    std::vector<float> b(static_cast<std::size_t>(s.k) * s.n);
    std::vector<float> c0(static_cast<std::size_t>(s.m) * s.n);
    for (float& v : a) v = (rng() % 5 == 0) ? 0.0f : dist(rng);  // exercise skip
    for (float& v : b) v = dist(rng);
    for (float& v : c0) v = dist(rng);
    for (int kk = 0; kk < s.k; ++kk)
      for (int i = 0; i < s.m; ++i)
        at[static_cast<std::size_t>(kk) * s.m + i] =
            a[static_cast<std::size_t>(i) * s.k + kk];

    std::vector<float> expect = c0, expect_t = c0;
    set_level(Level::kScalar);
    kernels().gemm_acc(a.data(), b.data(), expect.data(), s.m, s.k, s.n);
    kernels().gemm_at_acc(at.data(), b.data(), expect_t.data(), s.m, s.k, s.n);
    // The transposed variant accumulates the same products in the same
    // per-element order, so even the two scalar paths agree exactly.
    EXPECT_EQ(0, std::memcmp(expect.data(), expect_t.data(),
                             expect.size() * sizeof(float)));

    for_each_simd_level([&](Level l) {
      std::vector<float> got = c0, got_t = c0;
      kernels().gemm_acc(a.data(), b.data(), got.data(), s.m, s.k, s.n);
      kernels().gemm_at_acc(at.data(), b.data(), got_t.data(), s.m, s.k, s.n);
      EXPECT_EQ(0,
                std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)))
          << "gemm_acc level=" << level_name(l) << " m=" << s.m << " n=" << s.n;
      EXPECT_EQ(0, std::memcmp(got_t.data(), expect_t.data(),
                               got_t.size() * sizeof(float)))
          << "gemm_at_acc level=" << level_name(l) << " m=" << s.m << " n=" << s.n;
    });
  }
}

TEST(SimdKernels, NonzeroMaskI16MatchesReferencePredicate) {
  // 64 blocks over five patterns, taken in batches of 0-9 blocks from every
  // start, each batch copied to a heap buffer that ends at its last block.
  std::mt19937_64 rng(0x4A5);
  constexpr int kCases = 64;
  std::vector<std::int16_t> all(kCases * 64, 0);
  std::vector<std::uint64_t> expect(kCases, 0);
  for (int c = 0; c < kCases; ++c) {
    std::int16_t* v = all.data() + c * 64;
    switch (c % 5) {
      case 0:  // all zero
        break;
      case 1:  // dense random (some lanes still zero by chance)
        for (int k = 0; k < 64; ++k)
          v[k] = static_cast<std::int16_t>(rng() % 7 == 0 ? 0 : rng());
        break;
      case 2:  // single lane set, swept across the block
        v[c % 64] = 1;
        break;
      case 3:  // extremes: INT16_MIN must not read as zero
        v[0] = -32768;
        v[31] = 32767;
        v[63] = -1;
        break;
      case 4:  // every lane nonzero
        for (int k = 0; k < 64; ++k) v[k] = static_cast<std::int16_t>(rng() | 1);
        break;
    }
    for (int k = 0; k < 64; ++k)
      if (v[k] != 0) expect[static_cast<std::size_t>(c)] |= 1ull << k;
  }
  const auto check = [&](const char* level) {
    for (std::size_t count = 0; count <= 9; ++count) {
      for (std::size_t start = 0; start + count <= kCases; ++start) {
        const auto first = all.begin() + static_cast<long>(start * 64);
        const std::vector<std::int16_t> blocks(first, first + static_cast<long>(count * 64));
        // One guard mask past the batch must stay untouched.
        std::vector<std::uint64_t> masks(count + 1, 0xA5A5A5A5A5A5A5A5ull);
        kernels().nonzero_masks_i16(blocks.data(), count, masks.data());
        for (std::size_t b = 0; b < count; ++b)
          EXPECT_EQ(masks[b], expect[start + b])
              << level << " count=" << count << " block=" << start + b;
        EXPECT_EQ(masks[count], 0xA5A5A5A5A5A5A5A5ull) << level << " count=" << count;
      }
    }
  };
  set_level(Level::kScalar);
  check("scalar");
  for_each_simd_level([&](Level l) { check(level_name(l)); });
}

TEST(SimdKernels, StuffBytesMatchesReferenceOnFfPatterns) {
  std::mt19937_64 rng(0x57F);
  std::vector<std::vector<std::uint8_t>> inputs;
  inputs.push_back({});                                     // empty
  inputs.push_back(std::vector<std::uint8_t>(40, 0xFF));    // worst case: all stuffed
  inputs.push_back(std::vector<std::uint8_t>(96, 0x12));    // fast path: no 0xFF at all
  for (const std::size_t n : {std::size_t{1}, std::size_t{15}, std::size_t{16},
                              std::size_t{17}, std::size_t{31}, std::size_t{32},
                              std::size_t{33}, std::size_t{100}, std::size_t{4097}}) {
    std::vector<std::uint8_t> in(n);
    for (std::uint8_t& b : in)
      b = static_cast<std::uint8_t>(rng() % 4 == 0 ? 0xFF : rng());
    inputs.push_back(std::move(in));
  }
  {
    // 0xFF exactly at vector-chunk boundaries, nowhere else.
    std::vector<std::uint8_t> in(70, 0x00);
    for (const std::size_t i : {std::size_t{0}, std::size_t{15}, std::size_t{16},
                                std::size_t{31}, std::size_t{32}, std::size_t{63},
                                std::size_t{69}})
      in[i] = 0xFF;
    inputs.push_back(std::move(in));
  }
  for (std::size_t ci = 0; ci < inputs.size(); ++ci) {
    const std::vector<std::uint8_t>& in = inputs[ci];
    std::vector<std::uint8_t> expect;
    for (const std::uint8_t b : in) {
      expect.push_back(b);
      if (b == 0xFF) expect.push_back(0x00);
    }
    const auto run = [&](Level l) {
      std::vector<std::uint8_t> dst(in.size() * 2 + 1, 0xAB);
      const std::size_t written = kernels().stuff_bytes(in.data(), in.size(), dst.data());
      ASSERT_EQ(written, expect.size()) << "level=" << level_name(l) << " case=" << ci;
      // std::equal, not memcmp: expect.data() is null for the empty input,
      // and memcmp's arguments must be non-null even at length 0.
      EXPECT_TRUE(std::equal(expect.begin(), expect.end(), dst.begin()))
          << "level=" << level_name(l) << " case=" << ci;
      EXPECT_EQ(dst[written], 0xAB)  // no write past the reported length
          << "level=" << level_name(l) << " case=" << ci;
    };
    set_level(Level::kScalar);
    run(Level::kScalar);
    for_each_simd_level(run);
  }
}

/// The bytewise table loop: the CRC-32 reference every level must match.
std::uint32_t crc32_bytewise(std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  static const auto table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
      t[i] = c;
    }
    return t;
  }();
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

std::vector<Level> all_levels() {
  std::vector<Level> out = {Level::kScalar};
  for (Level l : simd_levels()) out.push_back(l);
  return out;
}

TEST(SimdKernels, Crc32MatchesBytewiseAtEveryLengthAndOffset) {
  const std::vector<std::uint8_t> buf = random_bytes(300 + 15, 0xC3C);
  for (Level l : all_levels()) {
    ASSERT_TRUE(set_level(l));
    for (std::size_t off = 0; off < 16; ++off)
      for (std::size_t n = 0; n + off <= buf.size() && n <= 300; ++n)
        ASSERT_EQ(kernels().crc32(0, buf.data() + off, n),
                  crc32_bytewise(0, buf.data() + off, n))
            << "level=" << level_name(l) << " offset=" << off << " length=" << n;
  }
  set_level(max_supported_level());
}

TEST(SimdKernels, Crc32MatchesBytewiseOnLargeAndSplitBuffers) {
  const std::vector<std::uint8_t> big = random_bytes((std::size_t{3} << 20) + 77, 0xB16);
  const std::uint32_t want = crc32_bytewise(0, big.data(), big.size());
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  for (Level l : all_levels()) {
    ASSERT_TRUE(set_level(l));
    const auto crc32 = kernels().crc32;
    EXPECT_EQ(crc32(0, check, sizeof check), 0xCBF43926u) << "level=" << level_name(l);
    EXPECT_EQ(crc32(0, big.data(), big.size()), want) << "level=" << level_name(l);
    // zlib's continuation form: any split gives the CRC of the whole.
    for (const std::size_t split : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                                    std::size_t{1000}, big.size() / 2, big.size() - 5})
      EXPECT_EQ(crc32(crc32(0, big.data(), split), big.data() + split, big.size() - split),
                want)
          << "level=" << level_name(l) << " split=" << split;
  }
  set_level(max_supported_level());
}

TEST(SimdKernels, Crc32FoldIsInstalledExactlyWhenCpuHasPclmul) {
  ASSERT_TRUE(set_level(Level::kScalar));
  const auto slice8 = kernels().crc32;
  for_each_simd_level([&](Level l) {
    EXPECT_EQ(kernels().crc32 != slice8, pclmul_supported()) << "level=" << level_name(l);
  });
  if (!pclmul_supported())
    GTEST_SKIP() << "CPU lacks PCLMULQDQ: the CRC-32 fold was not exercised; "
                    "every level ran slice-by-8";
}

}  // namespace
}  // namespace dnj::simd
