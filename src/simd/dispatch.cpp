#include "simd/dispatch.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string>

#include "simd/kernels.hpp"

namespace dnj::simd {

namespace {

bool cpu_supports(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
    case Level::kSse2:
      return __builtin_cpu_supports("sse2");
    case Level::kAvx2:
      return __builtin_cpu_supports("avx2");
#else
    case Level::kSse2:
    case Level::kAvx2:
      return false;
#endif
  }
  return false;
}

const KernelTable* compiled_table(Level level) {
  switch (level) {
    case Level::kScalar:
      return scalar_kernels();
    case Level::kSse2:
      return sse2_kernels();
    case Level::kAvx2:
      return avx2_kernels();
  }
  return nullptr;
}

/// Copies every non-null kernel of `src` over `dst` — the per-kernel
/// fallback: a level that leaves a slot empty inherits the next narrower
/// implementation.
void overlay(KernelTable& dst, const KernelTable& src) {
  if (src.fdct_batch) dst.fdct_batch = src.fdct_batch;
  if (src.idct_batch) dst.idct_batch = src.idct_batch;
  if (src.quantize_batch) dst.quantize_batch = src.quantize_batch;
  if (src.dequantize_batch) dst.dequantize_batch = src.dequantize_batch;
  if (src.tile_f32) dst.tile_f32 = src.tile_f32;
  if (src.tile_u8) dst.tile_u8 = src.tile_u8;
  if (src.untile_f32) dst.untile_f32 = src.untile_f32;
  if (src.rgb_to_ycbcr) dst.rgb_to_ycbcr = src.rgb_to_ycbcr;
  if (src.rgb_to_ycbcr_blocks) dst.rgb_to_ycbcr_blocks = src.rgb_to_ycbcr_blocks;
  if (src.ycbcr_to_rgb_row) dst.ycbcr_to_rgb_row = src.ycbcr_to_rgb_row;
  if (src.upsample_h2_row) dst.upsample_h2_row = src.upsample_h2_row;
  if (src.lerp_rows) dst.lerp_rows = src.lerp_rows;
  if (src.f32_to_u8_row) dst.f32_to_u8_row = src.f32_to_u8_row;
  if (src.sum_sq_diff_u8) dst.sum_sq_diff_u8 = src.sum_sq_diff_u8;
  if (src.quant_error_block) dst.quant_error_block = src.quant_error_block;
  if (src.gemm_acc) dst.gemm_acc = src.gemm_acc;
  if (src.gemm_at_acc) dst.gemm_at_acc = src.gemm_at_acc;
  if (src.nonzero_masks_i16) dst.nonzero_masks_i16 = src.nonzero_masks_i16;
  if (src.stuff_bytes) dst.stuff_bytes = src.stuff_bytes;
  if (src.crc32) dst.crc32 = src.crc32;
}

struct State {
  KernelTable resolved[3];  // fully merged table per level
  bool usable[3] = {true, false, false};
  std::atomic<const KernelTable*> active{nullptr};
  std::atomic<int> level{0};

  State() {
    KernelTable merged = *scalar_kernels();
    resolved[0] = merged;
    for (Level l : {Level::kSse2, Level::kAvx2}) {
      const int i = static_cast<int>(l);
      const KernelTable* t = compiled_table(l);
      if (t && cpu_supports(l)) {
        overlay(merged, *t);
        usable[i] = true;
      }
      resolved[i] = merged;  // unusable levels alias the level below
    }
    // The CRC fold needs PCLMULQDQ, which neither SSE2 nor AVX2 implies.
    const auto crc32_fold = crc32_pclmul_kernel();
    if (crc32_fold && pclmul_supported())
      for (int i = 1; i < 3; ++i)
        if (usable[i]) resolved[i].crc32 = crc32_fold;

    Level initial = max_usable();
    if (const char* env = std::getenv("DNJ_SIMD")) {
      Level parsed;
      // "auto", an unknown name, or a level this machine cannot run all
      // resolve to the widest supported level — the graceful-fallback rule.
      if (parse_level(env, &parsed) && usable[static_cast<int>(parsed)])
        initial = parsed;
    }
    activate(initial);
  }

  Level max_usable() const {
    if (usable[2]) return Level::kAvx2;
    if (usable[1]) return Level::kSse2;
    return Level::kScalar;
  }

  void activate(Level l) {
    level.store(static_cast<int>(l), std::memory_order_relaxed);
    active.store(&resolved[static_cast<int>(l)], std::memory_order_release);
  }
};

State& state() {
  static State s;
  return s;
}

}  // namespace

bool pclmul_supported() {
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("pclmul");
#else
  return false;
#endif
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSse2:
      return "sse2";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool parse_level(std::string_view name, Level* out) {
  std::string lower(name);
  for (char& ch : lower) ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  if (lower == "scalar") *out = Level::kScalar;
  else if (lower == "sse2") *out = Level::kSse2;
  else if (lower == "avx2") *out = Level::kAvx2;
  else return false;
  return true;
}

Level max_supported_level() { return state().max_usable(); }

Level active_level() {
  return static_cast<Level>(state().level.load(std::memory_order_relaxed));
}

bool set_level(Level level) {
  State& s = state();
  const int i = static_cast<int>(level);
  if (i < 0 || i > 2 || !s.usable[i]) return false;
  s.activate(level);
  return true;
}

const KernelTable& kernels() {
  return *state().active.load(std::memory_order_acquire);
}

}  // namespace dnj::simd
