#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "api/convert.hpp"
#include "data/synthetic.hpp"
#include "net/protocol.hpp"
#include "serve/request.hpp"

namespace wb {

using namespace dnj;

namespace {

// Result-cache geometry the workloads are sized against (main.cpp's
// deployment uses the same numbers): cold encode cycles must be longer
// than the cache holds, hot sets must fit in it.
constexpr std::size_t kGrayTenants = 12;
constexpr std::size_t kGrayHot = 32;
constexpr std::size_t kGrayCold = 2048;  // > 256 result-cache entries
constexpr std::size_t kGrayUploads = 256;
constexpr double kGrayDecodeShare = 0.25;
// An assumption, not a measurement of real traffic: no public trace of
// repeated inputs was at hand. It alone sets the result cache's hit share
// on gray32-tenants, which every run reports (cache_hit_ratio in the meta
// line), so a cache decision taken on this workload rests on it.
constexpr double kGrayHotShareOfEncodes = 0.30;
constexpr std::size_t kRgb224Uploads = 192;
constexpr std::size_t kRgb1024Frames = 32;  // outputs of one cycle exceed the cache's bytes
constexpr int kFrameSide = 1024;
constexpr int kTileSide = 64;               // frames are 16x16 mosaics of rendered tiles
constexpr int kDeepnQuality = 50;           // 50 = the designed pair verbatim
constexpr int kServedIndexBase = 1000;      // served images never repeat a setup sample
constexpr std::size_t kDirectInputs = 16;   // inputs kept for the direct api.* timings,
constexpr std::size_t kDirectPixels = 4u << 20;  // up to this many pixels in all

data::SyntheticDatasetGenerator generator(int side, int channels, std::uint64_t seed) {
  data::GeneratorConfig cfg;
  cfg.width = side;
  cfg.height = side;
  cfg.channels = channels;
  cfg.seed = seed;
  return data::SyntheticDatasetGenerator(cfg);
}

/// Image j of a pool: classes round-robin, indices from `base` upward.
image::Image render(const data::SyntheticDatasetGenerator& gen, std::size_t j, int base) {
  const auto kind = static_cast<data::ClassKind>(j % data::kNumClassKinds);
  return gen.render(kind, base + static_cast<int>(j / data::kNumClassKinds));
}

std::vector<image::Image> render_pool(const data::SyntheticDatasetGenerator& gen,
                                      std::size_t count, int base) {
  std::vector<image::Image> out;
  out.reserve(count);
  for (std::size_t j = 0; j < count; ++j) out.push_back(render(gen, j, base));
  return out;
}

/// Frame j of a pool of side x side mosaics: each tile is an independently
/// rendered image, classes round-robin, so every frame mixes all content
/// kinds like a real scene and the cost per frame varies little.
std::vector<image::Image> render_mosaics(std::uint64_t seed, std::size_t count, int base) {
  const data::SyntheticDatasetGenerator tiles = generator(kTileSide, 3, seed);
  constexpr int kPerSide = kFrameSide / kTileSide;
  std::vector<image::Image> out;
  for (std::size_t j = 0; j < count; ++j) {
    image::Image frame(kFrameSide, kFrameSide, 3);
    for (int t = 0; t < kPerSide * kPerSide; ++t) {
      const image::Image tile =
          render(tiles, j * kPerSide * kPerSide + static_cast<std::size_t>(t), base);
      const std::size_t row_bytes = static_cast<std::size_t>(kTileSide) * 3;
      for (int y = 0; y < kTileSide; ++y)
        std::copy_n(tile.data().data() + static_cast<std::size_t>(y) * row_bytes, row_bytes,
                    &frame.at((t % kPerSide) * kTileSide, (t / kPerSide) * kTileSide + y));
    }
    out.push_back(std::move(frame));
  }
  return out;
}

/// Tenant of rank r drawn with weight 1/sqrt(r + 1), from one uniform
/// variate: the Zipf-like skew bench/bench_multitenant.cpp uses, so the
/// repository has one tenant-popularity model.
int tenant_of(double u, std::size_t n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) total += 1.0 / std::sqrt(static_cast<double>(r + 1));
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += 1.0 / std::sqrt(static_cast<double>(r + 1)) / total;
    if (u < acc) return static_cast<int>(r);
  }
  return static_cast<int>(n - 1);
}

api::ImageView view_of(const image::Image& img) {
  return {img.data().data(), img.width(), img.height(), img.channels()};
}

api::EncodeOptions tenant_options(const Tables& tables, int tenant) {
  return tables.tenants[static_cast<std::size_t>(tenant)].encode_options();
}

Item encode_item(api::Codec codec, const image::Image& img, const serve::Request& req,
                 const api::EncodeOptions& expect_options, std::string* error) {
  Item item;
  item.op = req.kind == serve::RequestKind::kDeepnEncode ? net::Op::kDeepnEncode
                                                         : net::Op::kEncode;
  item.frame = net::serialize_frame(net::make_request(0, req));
  item.width = img.width();
  item.height = img.height();
  item.channels = img.channels();
  api::Result<std::vector<std::uint8_t>> want = codec.encode(view_of(img), expect_options);
  if (!want.ok()) {
    *error = "expectation encode failed: " + want.status().message();
    return {};
  }
  item.want = want.take();
  return item;
}

Item decode_item(api::Codec codec, const std::vector<std::uint8_t>& upload,
                 std::string* error) {
  api::Result<api::DecodedImage> want = codec.decode(upload);
  if (!want.ok()) {
    *error = "expectation decode failed: " + want.status().message();
    return {};
  }
  serve::Request req;
  req.kind = serve::RequestKind::kDecode;
  req.bytes = upload;
  Item item;
  item.op = net::Op::kDecode;
  item.frame = net::serialize_frame(net::make_request(0, req));
  api::DecodedImage pixels = want.take();
  item.width = pixels.width;
  item.height = pixels.height;
  item.channels = pixels.channels;
  item.want = std::move(pixels.pixels);
  return item;
}

}  // namespace

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

const std::vector<WorkloadSpec>& workloads() {
  // Why each exists: README.md and BENCHMARK.json.
  static const std::vector<WorkloadSpec> kAll = {
      {"gray32-tenants", 25000.0, 32, 5.0},
      {"rgb224-decode", 400.0, 8, 25.0},
      {"rgb1024-deepn", 35.0, 4, 250.0},
  };
  return kAll;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  const std::string name = spec.name;
  if (name == "gray32-tenants") {
    in.server_sample = render_pool(generator(32, 1, mix64(seed)), 1024, 0);
    for (std::size_t t = 0; t < kGrayTenants; ++t)
      in.tenant_samples.push_back(
          render_pool(generator(32, 1, mix64(seed ^ (0x1000 + t))), 1024, 0));
    // Hot images, then cold ones; each carries a skew-drawn tenant and is
    // rendered from that tenant's own image distribution.
    for (std::size_t j = 0; j < kGrayHot + kGrayCold; ++j) {
      const int t = tenant_of(unit(mix64(seed ^ mix64(0x2000 + j))), kGrayTenants);
      in.encode_tenant.push_back(t);
      in.encode_images.push_back(
          render(generator(32, 1, mix64(seed ^ (0x1000 + static_cast<std::size_t>(t)))), j,
                 kServedIndexBase));
    }
    in.hot_encodes = kGrayHot;
    for (std::size_t j = 0; j < kGrayUploads; ++j) {
      const int t = tenant_of(unit(mix64(seed ^ mix64(0x3000 + j))), kGrayTenants);
      in.upload_tenant.push_back(t);
      in.upload_images.push_back(
          render(generator(32, 1, mix64(seed ^ (0x1000 + static_cast<std::size_t>(t)))), j,
                 2 * kServedIndexBase));
    }
  } else if (name == "rgb224-decode") {
    const data::SyntheticDatasetGenerator gen = generator(224, 3, mix64(seed));
    in.server_sample = render_pool(gen, 128, 0);
    in.upload_images = render_pool(gen, kRgb224Uploads, kServedIndexBase);
    in.upload_tenant.assign(in.upload_images.size(), -1);
  } else {  // rgb1024-deepn
    in.server_sample = render_mosaics(mix64(seed), 8, 0);
    in.encode_images = render_mosaics(mix64(seed), kRgb1024Frames, kServedIndexBase);
    in.encode_tenant.assign(in.encode_images.size(), -1);
  }
  return in;
}

bool Tables::operator==(const Tables& o) const {
  if (server.table != o.server.table || tenants.size() != o.tenants.size()) return false;
  for (std::size_t t = 0; t < tenants.size(); ++t)
    if (tenants[t].table != o.tenants[t].table) return false;
  return true;
}

bool design_tables(const Inputs& inputs, Tables* out, std::string* error) {
  api::Session session;
  const auto design = [&](const std::vector<image::Image>& sample,
                          api::TableDesign* result) {
    api::TableDesigner designer = session.designer();
    for (std::size_t j = 0; j < sample.size(); ++j) {
      const api::Status s =
          designer.add(view_of(sample[j]), static_cast<int>(j % data::kNumClassKinds));
      if (!s.ok()) {
        *error = "designer add failed: " + s.message();
        return false;
      }
    }
    api::Result<api::TableDesign> r = designer.design();
    if (!r.ok()) {
      *error = "design failed: " + r.status().message();
      return false;
    }
    *result = r.take();
    return true;
  };
  if (!design(inputs.server_sample, &out->server)) return false;
  out->tenants.resize(inputs.tenant_samples.size());
  for (std::size_t t = 0; t < inputs.tenant_samples.size(); ++t)
    if (!design(inputs.tenant_samples[t], &out->tenants[t])) return false;
  return true;
}

bool build_catalog(Inputs inputs, const Tables& tables, Catalog* out, std::string* error) {
  api::Session session;
  const api::Codec codec = session.codec();
  Catalog& cat = *out;
  cat.seed = inputs.seed;

  for (std::size_t j = 0; j < inputs.upload_images.size(); ++j) {
    const image::Image& img = inputs.upload_images[j];
    const int t = inputs.upload_tenant[j];
    const api::EncodeOptions opts =
        t >= 0 ? tenant_options(tables, t) : api::EncodeOptions().quality(85);
    api::Result<std::vector<std::uint8_t>> upload = codec.encode(view_of(img), opts);
    if (!upload.ok()) {
      *error = "upload encode failed: " + upload.status().message();
      return false;
    }
    cat.items.push_back(decode_item(codec, upload.value(), error));
    if (!error->empty()) return false;
    if (j < kDirectInputs && (j + 1) * img.pixel_count() <= kDirectPixels) {
      cat.direct_streams.push_back(upload.take());
      if (inputs.encode_images.empty()) cat.direct_encodes.push_back({img, opts});
    }
  }
  cat.decode_end = cat.items.size();

  for (std::size_t j = 0; j < inputs.encode_images.size(); ++j) {
    const int t = inputs.encode_tenant[j];
    serve::Request req;
    req.image = std::move(inputs.encode_images[j]);  // one copy of a large frame, not two
    const image::Image& img = req.image;
    api::EncodeOptions expect;
    if (t >= 0) {
      // Tenant tables travel as kEncode custom tables: wire kDeepnEncode
      // carries no tenant name.
      expect = tenant_options(tables, t);
      req.kind = serve::RequestKind::kEncode;
      req.config = api::detail::to_config(expect);
    } else {
      // kDeepnEncode under the server's designed pair at quality 50, which
      // is the pair verbatim: the paper's 4:4:4 configuration.
      expect = tables.server.encode_options();
      req.kind = serve::RequestKind::kDeepnEncode;
      req.quality = kDeepnQuality;
    }
    cat.items.push_back(encode_item(codec, img, req, expect, error));
    if (!error->empty()) return false;
    if (j + 1 == inputs.hot_encodes) cat.hot_end = cat.items.size();
    if (j < kDirectInputs && (j + 1) * img.pixel_count() <= kDirectPixels) {
      cat.direct_encodes.push_back({img, expect});
      if (inputs.upload_images.empty()) cat.direct_streams.push_back(cat.items.back().want);
    }
  }
  if (inputs.hot_encodes == 0) cat.hot_end = cat.decode_end;

  const std::size_t encodes = cat.items.size() - cat.decode_end;
  cat.decode_share = encodes == 0 ? 1.0 : (cat.decode_end == 0 ? 0.0 : kGrayDecodeShare);
  cat.hot_share = cat.hot_end > cat.decode_end
                      ? (1.0 - cat.decode_share) * kGrayHotShareOfEncodes
                      : 0.0;
  cat.cycle = cat.decode_end == 0 && cat.hot_end == cat.decode_end;
  return true;
}

std::size_t Catalog::pick(std::uint64_t k) const {
  const std::size_t n = items.size();
  if (cycle) return static_cast<std::size_t>((k + seed) % n);
  const std::uint64_t r = mix64(seed ^ mix64(k));
  const double u = unit(r);
  if (u < decode_share) return static_cast<std::size_t>(mix64(r) % decode_end);
  if (u < decode_share + hot_share)
    return decode_end + static_cast<std::size_t>(mix64(r) % (hot_end - decode_end));
  // Cold encodes: an odd stride walks every cold item once per cycle.
  return hot_end + static_cast<std::size_t>((k * 7919u) % (n - hot_end));
}

Item first_request(const Inputs& inputs, std::string* error) {
  api::Session session;
  serve::Request req;
  req.kind = serve::RequestKind::kEncode;
  req.image = inputs.server_sample.front();
  const api::EncodeOptions defaults;
  req.config = api::detail::to_config(defaults);
  return encode_item(session.codec(), inputs.server_sample.front(), req, defaults, error);
}

}  // namespace wb
