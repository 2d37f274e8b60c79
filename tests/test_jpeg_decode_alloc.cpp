// Heap-allocation budgets of the codec: a warm-context colour decode, which
// allocates only its pixels, and an encode, which works one MCU row at a
// time through stripe buffers.
//
// This binary replaces the global allocation functions with counting
// wrappers around malloc/free, which is why it is a test binary of its own.
// Only allocations made by the thread that armed the counter are tallied.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "jpeg/codec.hpp"
#include "jpeg/pipeline/codec_context.hpp"

namespace {

struct Tally {
  std::size_t calls = 0;
  std::size_t bytes = 0;
};

thread_local bool t_counting = false;
thread_local Tally t_tally;

void* counted_malloc(std::size_t n) {
  if (t_counting) {
    ++t_tally.calls;
    t_tally.bytes += n;
  }
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace dnj::jpeg {
namespace {

image::Image textured_rgb(int w, int h, std::uint64_t seed) {
  image::Image img(w, h, 3);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> noise(-20, 20);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      for (int c = 0; c < 3; ++c)
        img.at(x, y, c) = image::clamp_u8(
            128.0f + 55.0f * std::sin(x * 0.23f + c) * std::cos(y * 0.19f) +
            static_cast<float>(noise(rng)));
  return img;
}

/// Tallies the allocations `fn` makes on this thread.
template <typename Fn>
Tally count_allocations(Fn&& fn) {
  t_tally = Tally{};
  t_counting = true;
  fn();
  t_counting = false;
  return t_tally;
}

TEST(DecodeAllocations, WarmColourDecodeAllocatesOnlyThePixelBuffer) {
  EncoderConfig cfg;
  cfg.quality = 85;
  cfg.subsampling = Subsampling::k420;
  const std::vector<std::uint8_t> big = encode(textured_rgb(224, 224, 1), cfg);
  const std::vector<std::uint8_t> small = encode(textured_rgb(64, 48, 2), cfg);

  // Warm on the larger image first, so the smaller one grows no arena.
  pipeline::CodecContext ctx;
  image::Image out = decode(big, ctx, 1);
  out = decode(small, ctx, 1);

  // Header parsing reads DHT symbols and components into fixed arrays and
  // the scan's Huffman tables come from the context cache, so the returned
  // pixel buffer is the one allocation.
  const Tally tb = count_allocations([&] { out = decode(big, ctx, 1); });
  EXPECT_EQ(tb.calls, 1u) << "a warm 224x224 4:2:0 decode makes " << tb.calls
                          << " allocations";
  EXPECT_EQ(tb.bytes, 224u * 224u * 3u);  // the returned pixel buffer

  const Tally ts = count_allocations([&] { out = decode(small, ctx, 1); });
  EXPECT_EQ(ts.calls, 1u) << "a warm 64x48 4:2:0 decode makes " << ts.calls
                          << " allocations";
  EXPECT_EQ(ts.bytes, 64u * 48u * 3u);
}

TEST(EncodeAllocations, ColdEncodeBuffersGrowWithWidthNotArea) {
  // A 1024x1024 4:4:4 frame: the stripe buffers hold one MCU row (8 pixel
  // rows of three components) instead of 30 MB of whole-frame planes.
  const image::Image img = textured_rgb(1024, 1024, 3);
  EncoderConfig cfg;
  cfg.subsampling = Subsampling::k444;
  pipeline::CodecContext ctx;
  std::vector<std::uint8_t> stream;
  const Tally t = count_allocations([&] { stream = encode(img, cfg, ctx); });
  ASSERT_GE(t.bytes, stream.capacity());
  EXPECT_LT(t.bytes - stream.capacity(), std::size_t{1} << 20)
      << "a cold 1024x1024 4:4:4 encode allocates " << t.bytes - stream.capacity()
      << " bytes besides its " << stream.capacity() << "-byte stream";
}

TEST(EncodeAllocations, WarmEncodeAllocatesOnlyTheStream) {
  const image::Image img = textured_rgb(1024, 1024, 4);
  EncoderConfig cfg;
  cfg.subsampling = Subsampling::k444;
  pipeline::CodecContext ctx;
  std::vector<std::uint8_t> stream = encode(img, cfg, ctx);
  const Tally t = count_allocations([&] { stream = encode(img, cfg, ctx); });
  EXPECT_EQ(t.calls, 1u) << "a warm 1024x1024 4:4:4 encode makes " << t.calls
                         << " allocations";
  EXPECT_EQ(t.bytes, stream.capacity());
}

}  // namespace
}  // namespace dnj::jpeg
