// Perf baseline for the parallel runtime: transcodes a synthetic dataset
// serially (num_threads = 1) and with the default thread count, checks the
// outputs are identical, and records throughput to
// bench_results/BENCH_transcode.json. It times the dataset-level parallel
// loop, which wirebench (a serving benchmark) never runs.
//
// Usage: bench_transcode [num_images] [repeats]
//   num_images — dataset size (default 512)
//   repeats    — timed repetitions per mode; the best run is reported
//                (default 3; use 1 for a CI smoke run)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "api/dnj.hpp"
#include "bench_common.hpp"
#include "core/transcode.hpp"
#include "data/synthetic.hpp"
#include "runtime/thread_pool.hpp"

using namespace dnj;

namespace {

double time_transcode(const data::Dataset& ds, const jpeg::EncoderConfig& cfg, int threads,
                      int repeats, core::TranscodeResult* last) {
  double best = 1e100;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    core::TranscodeResult res = core::transcode(ds, cfg, threads);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    *last = std::move(res);
  }
  return best;
}

/// The per-image encode+decode round trip through the public façade
/// (api::Codec), serial. Returns the best wall time; reports the byte
/// total and whether every decoded image is bit-identical to `want` (the
/// direct core::transcode output). Note the direct path additionally
/// computes PSNR and scan-byte accounting per image, so the reported
/// ratio slightly flatters the façade; it is tracked for trend, the
/// identity bit is the gate.
double time_facade(const data::Dataset& ds, const api::EncodeOptions& options, int repeats,
                   const core::TranscodeResult& want, std::size_t* bytes_out,
                   bool* identical_out) {
  api::Session session;
  const api::Codec codec = session.codec();
  double best = 1e100;
  *identical_out = true;
  for (int r = 0; r < repeats; ++r) {
    std::size_t total = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < ds.size(); ++i) {
      api::Result<std::vector<std::uint8_t>> bytes =
          codec.encode(ds.samples[i].image.view(), options);
      api::Result<api::DecodedImage> decoded =
          bytes.ok() ? codec.decode(bytes.value())
                     : api::Result<api::DecodedImage>(bytes.status());
      if (!bytes.ok() || !decoded.ok()) {
        *identical_out = false;
        continue;
      }
      total += bytes->size();
      const image::Image& expect = want.dataset.samples[i].image;
      if (decoded->width != expect.width() || decoded->height != expect.height() ||
          decoded->channels != expect.channels() || decoded->pixels != expect.data())
        *identical_out = false;
    }
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    *bytes_out = total;
    if (total != want.total_bytes) *identical_out = false;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const int num_images = argc > 1 ? std::atoi(argv[1]) : 512;
  const int repeats = argc > 2 ? std::max(1, std::atoi(argv[2])) : 3;
  if (num_images <= 0) {
    std::fprintf(stderr, "bench_transcode: bad image count\n");
    return 1;
  }

  data::GeneratorConfig gen_cfg;
  gen_cfg.width = 32;
  gen_cfg.height = 32;
  gen_cfg.channels = 1;
  gen_cfg.num_classes = 8;
  gen_cfg.seed = 0xBE5C;
  const data::Dataset ds =
      data::SyntheticDatasetGenerator(gen_cfg).generate((num_images + 7) / 8);

  jpeg::EncoderConfig enc_cfg;
  enc_cfg.quality = 85;
  enc_cfg.subsampling = jpeg::Subsampling::k444;

  const unsigned threads = runtime::ThreadPool::default_threads();
  const double mb = static_cast<double>(ds.raw_bytes()) / (1024.0 * 1024.0);

  core::TranscodeResult serial_res, parallel_res;
  const double serial_s = time_transcode(ds, enc_cfg, 1, repeats, &serial_res);
  const double parallel_s =
      time_transcode(ds, enc_cfg, 0, repeats, &parallel_res);

  // Same workload through the public façade (serial), gated on byte
  // identity with the direct core::transcode path.
  const api::EncodeOptions facade_options =
      api::EncodeOptions().quality(enc_cfg.quality).chroma_420(false);
  std::size_t facade_bytes = 0;
  bool facade_identical = false;
  const double facade_s =
      time_facade(ds, facade_options, repeats, serial_res, &facade_bytes, &facade_identical);

  const bool identical = serial_res.total_bytes == parallel_res.total_bytes &&
                         serial_res.scan_bytes == parallel_res.scan_bytes &&
                         serial_res.mean_psnr == parallel_res.mean_psnr &&
                         facade_identical;

  bench::JsonWriter json("BENCH_transcode");
  json.field("bench", "transcode");
  json.field("images", ds.size());
  json.field("width", gen_cfg.width);
  json.field("height", gen_cfg.height);
  json.field("raw_mb", mb);
  json.field("quality", enc_cfg.quality);
  json.field("repeats", repeats);
  json.field("default_threads", static_cast<std::size_t>(threads));
  json.field("outputs_identical", identical);
  json.begin_array("runs");
  json.begin_object();
  json.field("mode", "serial");
  json.field("threads", 1);
  json.field("seconds", serial_s);
  json.field("images_per_s", static_cast<double>(ds.size()) / serial_s);
  json.field("mb_per_s", mb / serial_s);
  json.end_object();
  json.begin_object();
  json.field("mode", "parallel");
  json.field("threads", static_cast<std::size_t>(threads));
  json.field("seconds", parallel_s);
  json.field("images_per_s", static_cast<double>(ds.size()) / parallel_s);
  json.field("mb_per_s", mb / parallel_s);
  json.end_object();
  json.begin_object();
  json.field("mode", "facade-serial");
  json.field("threads", 1);
  json.field("seconds", facade_s);
  json.field("images_per_s", static_cast<double>(ds.size()) / facade_s);
  json.field("mb_per_s", mb / facade_s);
  json.end_object();
  json.end_array();
  json.field("speedup", serial_s / parallel_s);
  json.field("facade_overhead", facade_s / serial_s);

  std::printf("transcode %zu images (%.1f MB raw), q=%d, repeats=%d\n", ds.size(), mb,
              enc_cfg.quality, repeats);
  std::printf("  serial   (1 thread):  %.3fs  %.1f img/s  %.2f MB/s\n", serial_s,
              static_cast<double>(ds.size()) / serial_s, mb / serial_s);
  std::printf("  parallel (%u threads): %.3fs  %.1f img/s  %.2f MB/s\n", threads, parallel_s,
              static_cast<double>(ds.size()) / parallel_s, mb / parallel_s);
  std::printf("  facade   (1 thread):  %.3fs  %.1f img/s  (%.2fx of direct serial)\n",
              facade_s, static_cast<double>(ds.size()) / facade_s, facade_s / serial_s);
  std::printf("  speedup %.2fx, outputs %s\n", serial_s / parallel_s,
              identical ? "identical" : "DIFFER");
  std::printf("  wrote %s\n", json.path().c_str());

  if (!identical) {
    std::fprintf(stderr, "bench_transcode: serial and parallel outputs differ!\n");
    return 1;
  }
  return 0;
}
