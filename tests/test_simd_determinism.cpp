// Dispatch-layer coverage plus full-run level determinism: the SIMD twin
// of test_parallel_determinism. Where that suite pins "thread count never
// changes results", this one pins "SIMD level never changes results" —
// encode streams, decoded pixels, annealed tables and trained weights must
// be bit-identical at scalar, SSE2 and AVX2 — and exercises the dispatch
// API itself (forced overrides, graceful fallback, level restoration).
#include <gtest/gtest.h>

#include <vector>

#include "core/sa_optimizer.hpp"
#include "core/transcode.hpp"
#include "data/synthetic.hpp"
#include "image/metrics.hpp"
#include "jpeg/codec.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"
#include "simd/dispatch.hpp"

namespace dnj::simd {
namespace {

std::vector<Level> supported_levels() {
  std::vector<Level> out = {Level::kScalar};
  for (Level l : {Level::kSse2, Level::kAvx2})
    if (set_level(l)) out.push_back(l);
  set_level(max_supported_level());
  return out;
}

class LevelRestorer {
 public:
  ~LevelRestorer() { set_level(max_supported_level()); }
};

data::Dataset det_dataset(int per_class, int channels = 1) {
  data::GeneratorConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  cfg.channels = channels;
  cfg.num_classes = 4;
  cfg.seed = 4242;
  return data::SyntheticDatasetGenerator(cfg).generate(per_class);
}

TEST(SimdDispatch, ParseAndNames) {
  Level l = Level::kAvx2;
  EXPECT_TRUE(parse_level("scalar", &l));
  EXPECT_EQ(l, Level::kScalar);
  EXPECT_TRUE(parse_level("SSE2", &l));  // case-insensitive, like DNJ_SIMD
  EXPECT_EQ(l, Level::kSse2);
  EXPECT_TRUE(parse_level("avx2", &l));
  EXPECT_EQ(l, Level::kAvx2);
  EXPECT_FALSE(parse_level("auto", &l));
  EXPECT_FALSE(parse_level("avx512", &l));
  EXPECT_STREQ(level_name(Level::kScalar), "scalar");
  EXPECT_STREQ(level_name(Level::kSse2), "sse2");
  EXPECT_STREQ(level_name(Level::kAvx2), "avx2");
}

TEST(SimdDispatch, ForcedOverridesAndFallback) {
  LevelRestorer restore;
  // Scalar is always available and always wins when forced.
  ASSERT_TRUE(set_level(Level::kScalar));
  EXPECT_EQ(active_level(), Level::kScalar);

  // Any level up to the detected maximum can be pinned; levels beyond it
  // are rejected without changing the active table.
  const Level max = max_supported_level();
  for (Level l : {Level::kSse2, Level::kAvx2}) {
    if (static_cast<int>(l) <= static_cast<int>(max)) {
      EXPECT_TRUE(set_level(l)) << level_name(l);
      EXPECT_EQ(active_level(), l);
    } else {
      EXPECT_FALSE(set_level(l)) << level_name(l);
      EXPECT_NE(active_level(), l);
    }
  }
}

TEST(SimdDispatch, KernelTableIsFullyPopulatedAtEveryLevel) {
  LevelRestorer restore;
  ASSERT_TRUE(set_level(Level::kScalar));
  const KernelTable scalar = kernels();
  KernelTable below = scalar;
  for (Level l : supported_levels()) {
    ASSERT_TRUE(set_level(l));
    const KernelTable& k = kernels();
    EXPECT_NE(k.fdct_batch, nullptr);
    EXPECT_NE(k.idct_batch, nullptr);
    EXPECT_NE(k.quantize_batch, nullptr);
    EXPECT_NE(k.dequantize_batch, nullptr);
    EXPECT_NE(k.tile_f32, nullptr);
    EXPECT_NE(k.tile_u8, nullptr);
    EXPECT_NE(k.untile_f32, nullptr);
    EXPECT_NE(k.rgb_to_ycbcr, nullptr);
    EXPECT_NE(k.rgb_to_ycbcr_blocks, nullptr);
    EXPECT_NE(k.ycbcr_to_rgb_row, nullptr);
    EXPECT_NE(k.upsample_h2_row, nullptr);
    EXPECT_NE(k.lerp_rows, nullptr);
    EXPECT_NE(k.f32_to_u8_row, nullptr);
    EXPECT_NE(k.sum_sq_diff_u8, nullptr);
    EXPECT_NE(k.quant_error_block, nullptr);
    EXPECT_NE(k.gemm_acc, nullptr);
    EXPECT_NE(k.gemm_at_acc, nullptr);
    EXPECT_NE(k.nonzero_masks_i16, nullptr);
    EXPECT_NE(k.stuff_bytes, nullptr);
    EXPECT_NE(k.crc32, nullptr);
    static_assert(sizeof(KernelTable) == 20 * sizeof(void (*)()),
                  "a new KernelTable slot needs its check above");
    // The stripe encoder's two kernels have their own implementation at
    // every vector level: a slot left out of dispatch.cpp's overlay would
    // silently inherit the level below.
    if (l != Level::kScalar) {
      EXPECT_NE(k.rgb_to_ycbcr_blocks, below.rgb_to_ycbcr_blocks) << level_name(l);
      EXPECT_NE(k.nonzero_masks_i16, below.nonzero_masks_i16) << level_name(l);
    }
    below = k;
  }
}

TEST(SimdLevelDeterminism, EncodeDecodeIsByteIdenticalAcrossLevels) {
  LevelRestorer restore;
  // Gray 4:4:4, color 4:4:4 and color 4:2:0 at odd sizes, with restarts and
  // optimized Huffman in the mix — the full encoder surface.
  std::vector<image::Image> images;
  for (int channels : {1, 3}) {
    data::GeneratorConfig cfg;
    cfg.width = 45;
    cfg.height = 23;
    cfg.channels = channels;
    cfg.seed = 99;
    images.push_back(
        data::SyntheticDatasetGenerator(cfg).render(data::ClassKind::kBandNoise, 1));
  }
  std::vector<jpeg::EncoderConfig> configs;
  {
    jpeg::EncoderConfig a;
    a.quality = 80;
    a.subsampling = jpeg::Subsampling::k444;
    jpeg::EncoderConfig b;
    b.quality = 35;
    b.subsampling = jpeg::Subsampling::k420;
    b.restart_interval = 2;
    jpeg::EncoderConfig c;
    c.quality = 92;
    c.optimize_huffman = true;
    configs = {a, b, c};
  }

  ASSERT_TRUE(set_level(Level::kScalar));
  std::vector<std::vector<std::uint8_t>> expect_streams;
  std::vector<image::Image> expect_decoded;
  for (const image::Image& img : images)
    for (const jpeg::EncoderConfig& cfg : configs) {
      expect_streams.push_back(jpeg::encode(img, cfg));
      expect_decoded.push_back(jpeg::decode(expect_streams.back()));
    }

  for (Level l : supported_levels()) {
    ASSERT_TRUE(set_level(l));
    std::size_t idx = 0;
    for (const image::Image& img : images)
      for (const jpeg::EncoderConfig& cfg : configs) {
        EXPECT_EQ(jpeg::encode(img, cfg), expect_streams[idx])
            << "encode level=" << level_name(l) << " case=" << idx;
        EXPECT_EQ(jpeg::decode(expect_streams[idx]), expect_decoded[idx])
            << "decode level=" << level_name(l) << " case=" << idx;
        ++idx;
      }
  }
}

TEST(SimdLevelDeterminism, TranscodeAndMetricsAcrossLevels) {
  LevelRestorer restore;
  const data::Dataset ds = det_dataset(4);
  jpeg::EncoderConfig cfg;
  cfg.quality = 80;

  ASSERT_TRUE(set_level(Level::kScalar));
  const core::TranscodeResult expect = core::transcode(ds, cfg, 2);
  for (Level l : supported_levels()) {
    ASSERT_TRUE(set_level(l));
    const core::TranscodeResult got = core::transcode(ds, cfg, 2);
    EXPECT_EQ(got.total_bytes, expect.total_bytes) << "level=" << level_name(l);
    // Bit-exact: the MSE kernel sums integers, so even PSNR cannot drift.
    EXPECT_EQ(got.mean_psnr, expect.mean_psnr) << "level=" << level_name(l);
    ASSERT_EQ(got.dataset.size(), expect.dataset.size());
    for (std::size_t i = 0; i < expect.dataset.size(); ++i)
      EXPECT_EQ(got.dataset.samples[i].image, expect.dataset.samples[i].image);
  }
}

TEST(SimdLevelDeterminism, AnnealedTableAcrossLevels) {
  LevelRestorer restore;
  const data::Dataset ds = det_dataset(4);
  const core::FrequencyProfile profile = core::analyze(ds);
  core::SaConfig cfg;
  cfg.iterations = 60;
  cfg.sample_images = 6;
  cfg.num_threads = 2;

  ASSERT_TRUE(set_level(Level::kScalar));
  const core::SaResult expect =
      core::anneal_table(ds, profile, jpeg::QuantTable::uniform(8), cfg);
  for (Level l : supported_levels()) {
    ASSERT_TRUE(set_level(l));
    const core::SaResult got =
        core::anneal_table(ds, profile, jpeg::QuantTable::uniform(8), cfg);
    EXPECT_EQ(got.table, expect.table) << "level=" << level_name(l);
    EXPECT_EQ(got.best_cost, expect.best_cost) << "level=" << level_name(l);
    EXPECT_EQ(got.initial_cost, expect.initial_cost) << "level=" << level_name(l);
    EXPECT_EQ(got.accepted_moves, expect.accepted_moves) << "level=" << level_name(l);
  }
}

TEST(SimdLevelDeterminism, TrainedWeightsAcrossLevels) {
  LevelRestorer restore;
  const data::Dataset train_set = det_dataset(8);
  nn::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 8;
  cfg.seed = 31;
  cfg.num_threads = 2;

  auto run = [&]() {
    nn::LayerPtr model = nn::make_model(nn::ModelKind::kMiniAlexNet, 1, 32, 4, 7);
    const auto history = nn::train(*model, train_set, nullptr, cfg);
    std::vector<nn::ParamRef> params;
    model->collect_params(params);
    std::vector<std::vector<float>> weights;
    for (const nn::ParamRef& p : params) weights.push_back(*p.value);
    return std::make_pair(history.back().train_loss, weights);
  };

  ASSERT_TRUE(set_level(Level::kScalar));
  const auto expect = run();
  for (Level l : supported_levels()) {
    ASSERT_TRUE(set_level(l));
    const auto got = run();
    EXPECT_EQ(got.first, expect.first) << "loss level=" << level_name(l);
    ASSERT_EQ(got.second.size(), expect.second.size());
    for (std::size_t i = 0; i < expect.second.size(); ++i)
      EXPECT_EQ(got.second[i], expect.second[i])
          << "level=" << level_name(l) << " param=" << i;
  }
}

}  // namespace
}  // namespace dnj::simd
