// Serving-layer contract tests.
//
// The load-bearing ones are ByteIdenticalToSynchronousCalls and
// ConcurrentSubmittersGetSynchronousBytes: every response payload must
// equal the equivalent synchronous single-threaded call, bit for bit,
// across worker counts {1, 2, 8}, cold and warm worker contexts and
// concurrent submitters — the serving extension of the repo-wide
// determinism contract. The expected values are computed with direct
// jpeg::/nn:: calls (not TranscodeService::execute) so a service-side
// wiring bug cannot cancel out of the comparison.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/transcode.hpp"
#include "data/synthetic.hpp"
#include "jpeg/codec.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"

namespace dnj::serve {
namespace {

// The determinism suite runs with tracing forced on: observability must
// never influence payload bytes, so every request here is traced end to
// end while the byte-identity assertions do their work.
const bool force_tracing = [] {
  obs::Tracer::instance().set_sample_every(1);
  return true;
}();

data::Dataset gray_corpus(int per_class = 2) {
  data::GeneratorConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  cfg.channels = 1;
  cfg.num_classes = 4;
  cfg.seed = 0x5E4E;
  return data::SyntheticDatasetGenerator(cfg).generate(per_class);
}

image::Image rgb_image(int w = 40, int h = 24) {
  image::Image img(w, h, 3);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      img.at(x, y, 0) = static_cast<std::uint8_t>((x * 7 + y * 3) & 0xFF);
      img.at(x, y, 1) = static_cast<std::uint8_t>((x * 2 + y * 11) & 0xFF);
      img.at(x, y, 2) = static_cast<std::uint8_t>((x * 13 + y * 5) & 0xFF);
    }
  return img;
}

/// A large image whose encode takes long enough that requests submitted
/// while it is being processed reliably pile up behind it.
image::Image big_image(int side = 1536) {
  image::Image img(side, side, 1);
  for (int y = 0; y < side; ++y)
    for (int x = 0; x < side; ++x)
      img.at(x, y) = static_cast<std::uint8_t>((x * x + y * 31) & 0xFF);
  return img;
}

jpeg::EncoderConfig config_a() {
  jpeg::EncoderConfig cfg;
  cfg.quality = 85;
  cfg.subsampling = jpeg::Subsampling::k444;
  return cfg;
}

jpeg::EncoderConfig config_b() {
  jpeg::EncoderConfig cfg;
  cfg.quality = 40;
  cfg.subsampling = jpeg::Subsampling::k420;
  cfg.optimize_huffman = true;
  return cfg;
}

Request encode_request(const image::Image& img, const jpeg::EncoderConfig& cfg) {
  Request r;
  r.kind = RequestKind::kEncode;
  r.image = img;
  r.config = cfg;
  return r;
}

/// The mixed workload used by the identity suite: every request paired with
/// its independently computed synchronous expectation.
struct Expected {
  Request request;
  Response want;  ///< status always kOk; only payload fields meaningful
};

std::vector<Expected> mixed_workload(nn::Layer* model, const jpeg::QuantTable& deepn_luma,
                                     const jpeg::QuantTable& deepn_chroma) {
  const data::Dataset ds = gray_corpus();
  std::vector<image::Image> images;
  for (const data::Sample& s : ds.samples) images.push_back(s.image);
  images.push_back(rgb_image());

  std::vector<Expected> out;
  const jpeg::EncoderConfig cfgs[2] = {config_a(), config_b()};
  for (std::size_t i = 0; i < images.size(); ++i) {
    const image::Image& img = images[i];
    const jpeg::EncoderConfig& cfg = cfgs[i % 2];
    const std::vector<std::uint8_t> stored = jpeg::encode(img, config_a());

    Expected enc;
    enc.request = encode_request(img, cfg);
    enc.want.bytes = jpeg::encode(img, cfg);
    out.push_back(std::move(enc));

    Expected dec;
    dec.request.kind = RequestKind::kDecode;
    dec.request.bytes = stored;
    dec.want.image = jpeg::decode(stored);
    out.push_back(std::move(dec));

    Expected xcode;
    xcode.request.kind = RequestKind::kTranscode;
    xcode.request.bytes = stored;
    xcode.request.config = cfgs[(i + 1) % 2];
    xcode.want.bytes = jpeg::encode(jpeg::decode(stored), cfgs[(i + 1) % 2]);
    out.push_back(std::move(xcode));

    Expected deepn;
    deepn.request.kind = RequestKind::kDeepnEncode;
    deepn.request.image = img;
    deepn.request.quality = static_cast<int>(30 + 15 * (i % 3));
    {
      jpeg::EncoderConfig dcfg;
      dcfg.use_custom_tables = true;
      dcfg.luma_table = deepn_luma.scaled(deepn.request.quality);
      dcfg.chroma_table = deepn_chroma.scaled(deepn.request.quality);
      dcfg.subsampling = jpeg::Subsampling::k444;
      deepn.want.bytes = jpeg::encode(img, dcfg);
    }
    out.push_back(std::move(deepn));

    if (model && img.channels() == 1) {
      Expected infer;
      infer.request.kind = RequestKind::kInfer;
      infer.request.bytes = stored;
      infer.want.probs = nn::predict_probs(*model, jpeg::decode(stored));
      out.push_back(std::move(infer));
    }
  }
  return out;
}

void expect_payload_equal(const Response& got, const Response& want, std::size_t idx) {
  ASSERT_EQ(got.status, Status::kOk) << "request " << idx << ": " << got.error;
  EXPECT_EQ(got.bytes, want.bytes) << "request " << idx;
  EXPECT_TRUE(got.image == want.image) << "request " << idx;
  EXPECT_EQ(got.probs, want.probs) << "request " << idx;
}

/// The sample lines of a Prometheus text scrape as ("name{labels}", value),
/// in scrape order. Values never contain a space, so the last one splits.
std::vector<std::pair<std::string, double>> scrape_samples(const obs::Registry& metrics) {
  std::vector<std::pair<std::string, double>> out;
  std::istringstream in(metrics.render_prometheus());
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    out.emplace_back(line.substr(0, space), std::stod(line.substr(space + 1)));
  }
  return out;
}

/// One scrape as a lookup table; a repeated series keeps its first value.
std::map<std::string, double> scrape_values(const obs::Registry& metrics) {
  const std::vector<std::pair<std::string, double>> samples = scrape_samples(metrics);
  return {samples.begin(), samples.end()};
}

TEST(TranscodeService, ByteIdenticalToSynchronousCalls) {
  const jpeg::QuantTable deepn_luma = jpeg::QuantTable::annex_k_luma();
  const jpeg::QuantTable deepn_chroma = jpeg::QuantTable::uniform(24);
  nn::LayerPtr model = nn::make_model(nn::ModelKind::kMiniAlexNet, 1, 32, 4, 0xA11CE);
  const std::vector<Expected> workload =
      mixed_workload(model.get(), deepn_luma, deepn_chroma);

  for (int workers : {1, 2, 8}) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.queue_capacity = 64;
    cfg.deepn_luma = deepn_luma;
    cfg.deepn_chroma = deepn_chroma;
    cfg.model = model.get();
    TranscodeService service(cfg);

    // Two passes over the workload: the second runs on warm worker
    // contexts, and must still match the cold expectation.
    std::vector<std::future<Response>> futures;
    for (int pass = 0; pass < 2; ++pass)
      for (const Expected& e : workload) futures.push_back(service.submit(e.request));
    for (std::size_t f = 0; f < futures.size(); ++f) {
      const Response got = futures[f].get();
      expect_payload_equal(got, workload[f % workload.size()].want, f);
    }

    const ServiceStats st = service.stats();
    EXPECT_EQ(st.submitted, futures.size());
    EXPECT_EQ(st.completed, futures.size());
    EXPECT_EQ(st.errors, 0u);
    EXPECT_LE(st.queue_high_water, st.queue_capacity);
  }
}

TEST(TranscodeService, RejectPolicyReturnsTypedErrorAndBoundsQueue) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  cfg.admission = AdmissionPolicy::kReject;
  TranscodeService service(cfg);

  // Occupy the worker with a multi-millisecond encode, then burst-submit
  // more tiny requests than the queue can hold.
  std::vector<std::future<Response>> futures;
  futures.push_back(service.submit(encode_request(big_image(), config_a())));

  const image::Image tiny = gray_corpus(1).samples[0].image;
  const int burst = 60;
  for (int i = 0; i < burst; ++i)
    futures.push_back(service.submit(encode_request(tiny, config_a())));

  std::size_t ok = 0, rejected = 0;
  for (std::future<Response>& f : futures) {
    const Response r = f.get();
    if (r.status == Status::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(r.status, Status::kRejected);
      EXPECT_FALSE(r.error.empty());
      EXPECT_TRUE(r.bytes.empty());
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, static_cast<std::size_t>(burst) + 1);
  EXPECT_GE(rejected, 1u);

  const ServiceStats st = service.stats();
  EXPECT_EQ(st.rejected, rejected);
  EXPECT_EQ(st.completed, ok);
  EXPECT_LE(st.queue_high_water, cfg.queue_capacity);
}

TEST(TranscodeService, RejectAdmissionUsesTheWholeQueueForOneConfig) {
  // Admission is bounded by queue_capacity alone, whatever the mix of
  // configurations: a single-config stream may fill every slot.
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 8;
  cfg.admission = AdmissionPolicy::kReject;
  TranscodeService service(cfg);

  // Two slow encodes occupy both workers; the burst behind them outruns
  // the queue.
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 2; ++i)
    futures.push_back(service.submit(encode_request(big_image(), config_a())));
  const image::Image tiny = gray_corpus(1).samples[0].image;
  for (int i = 0; i < 40; ++i)
    futures.push_back(service.submit(encode_request(tiny, config_a())));
  for (std::future<Response>& f : futures) {
    const Response r = f.get();
    EXPECT_TRUE(r.status == Status::kOk || r.status == Status::kRejected) << r.error;
  }
  EXPECT_EQ(service.stats().queue_high_water, 8u);
  // Submitters push the mark into the registry gauge the scrape renders.
  EXPECT_EQ(scrape_values(*service.metrics_registry()).at("serve_queue_high_water"),
            static_cast<double>(service.stats().queue_high_water));
}

TEST(TranscodeService, BlockPolicyServesEverythingThroughTinyQueue) {
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 2;
  cfg.admission = AdmissionPolicy::kBlock;
  TranscodeService service(cfg);

  const image::Image img = gray_corpus(1).samples[0].image;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 100; ++i)
    futures.push_back(service.submit(encode_request(img, config_a())));
  for (std::future<Response>& f : futures) EXPECT_EQ(f.get().status, Status::kOk);

  const ServiceStats st = service.stats();
  EXPECT_EQ(st.completed, 100u);
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_LE(st.queue_high_water, 2u);
}

TEST(TranscodeService, GracefulShutdownDrainsAcceptedWork) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 64;
  TranscodeService service(cfg);

  std::vector<std::future<Response>> futures;
  futures.push_back(service.submit(encode_request(big_image(), config_a())));
  const image::Image tiny = gray_corpus(1).samples[0].image;
  for (int i = 0; i < 23; ++i)
    futures.push_back(service.submit(encode_request(tiny, config_b())));

  service.shutdown();  // must drain all 24 accepted requests first

  for (std::future<Response>& f : futures) {
    const Response r = f.get();
    EXPECT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_FALSE(r.bytes.empty());
  }

  // Post-shutdown submissions get the typed refusal, immediately.
  const Response late = service.submit(encode_request(tiny, config_a())).get();
  EXPECT_EQ(late.status, Status::kShutdown);
  EXPECT_FALSE(late.error.empty());
  EXPECT_EQ(service.stats().refused_shutdown, 1u);
  EXPECT_EQ(service.stats().completed, futures.size());
}

TEST(TranscodeService, HandlerExceptionsBecomeTypedErrorResponses) {
  ServiceConfig cfg;
  cfg.workers = 2;
  TranscodeService service(cfg);

  Request malformed;
  malformed.kind = RequestKind::kDecode;
  malformed.bytes = {0x00, 0x01, 0x02, 0x03};
  const Response bad = service.submit(malformed).get();
  EXPECT_EQ(bad.status, Status::kError);
  EXPECT_FALSE(bad.error.empty());

  Request infer;  // no model configured
  infer.kind = RequestKind::kInfer;
  infer.bytes = jpeg::encode(gray_corpus(1).samples[0].image, config_a());
  const Response no_model = service.submit(infer).get();
  EXPECT_EQ(no_model.status, Status::kError);
  EXPECT_FALSE(no_model.error.empty());

  // The service survives handler failures.
  const Response ok =
      service.submit(encode_request(gray_corpus(1).samples[0].image, config_a())).get();
  EXPECT_EQ(ok.status, Status::kOk);

  const ServiceStats st = service.stats();
  EXPECT_EQ(st.errors, 2u);
  EXPECT_EQ(st.completed, 1u);
}

TEST(TranscodeService, WarmContextRebuildAccounting) {
  ServiceConfig cfg;
  cfg.workers = 1;
  TranscodeService service(cfg);

  const image::Image img = gray_corpus(1).samples[0].image;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 50; ++i)
    futures.push_back(service.submit(encode_request(img, config_a())));
  for (std::future<Response>& f : futures) ASSERT_EQ(f.get().status, Status::kOk);

  // A same-config stream on one worker derives each cached table set at
  // most once — the worker's context stays warm on its own.
  const ServiceStats st = service.stats();
  EXPECT_LE(st.ctx_quality_table_builds, 1u);
  EXPECT_LE(st.ctx_huffman_builds, 1u);
  EXPECT_LE(st.ctx_reciprocal_builds, 2u);
}

TEST(TranscodeService, DeepnTableCacheServesScaledTables) {
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.deepn_luma = jpeg::QuantTable::annex_k_luma();
  cfg.deepn_chroma = jpeg::QuantTable::annex_k_chroma();
  TranscodeService service(cfg);

  const image::Image img = gray_corpus(1).samples[0].image;
  Request req;
  req.kind = RequestKind::kDeepnEncode;
  req.image = img;
  req.quality = 35;

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(service.submit(req));
  jpeg::EncoderConfig expected_cfg;
  expected_cfg.use_custom_tables = true;
  expected_cfg.luma_table = cfg.deepn_luma.scaled(35);
  expected_cfg.chroma_table = cfg.deepn_chroma.scaled(35);
  expected_cfg.subsampling = jpeg::Subsampling::k444;
  const std::vector<std::uint8_t> expected = jpeg::encode(img, expected_cfg);
  for (std::future<Response>& f : futures) {
    const Response r = f.get();
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_EQ(r.bytes, expected);
  }
}

TEST(TranscodeService, StatsQuantilesAreCoherent) {
  ServiceConfig cfg;
  cfg.workers = 4;
  TranscodeService service(cfg);

  const data::Dataset ds = gray_corpus(4);
  std::vector<std::future<Response>> futures;
  for (const data::Sample& s : ds.samples)
    futures.push_back(service.submit(encode_request(s.image, config_a())));
  for (std::future<Response>& f : futures) ASSERT_EQ(f.get().status, Status::kOk);

  const ServiceStats st = service.stats();
  EXPECT_EQ(st.total.count, futures.size());
  EXPECT_EQ(st.queue_wait.count, futures.size());
  EXPECT_EQ(st.service_time.count, futures.size());
  EXPECT_LE(st.queue_wait.p50_us, st.queue_wait.p95_us);
  EXPECT_LE(st.queue_wait.p95_us, st.queue_wait.p99_us);
  EXPECT_LE(st.service_time.p50_us, st.service_time.p95_us);
  EXPECT_LE(st.service_time.p95_us, st.service_time.p99_us);
  EXPECT_GT(st.service_time.p50_us, 0.0);
  std::uint64_t kind_sum = 0;
  for (std::uint64_t c : st.per_kind) kind_sum += c;
  EXPECT_EQ(kind_sum, st.completed + st.errors);
}

TEST(TranscodeService, TranscodeBytesOverloadsAgree) {
  // The single-stream primitive the service's transcode handler runs on:
  // both overloads must equal the manual decode + encode composition.
  const std::vector<std::uint8_t> stored =
      jpeg::encode(gray_corpus(1).samples[0].image, config_a());
  const std::vector<std::uint8_t> manual =
      jpeg::encode(jpeg::decode(stored), config_b());
  EXPECT_EQ(core::transcode_bytes(stored, config_b()), manual);
  EXPECT_EQ(core::transcode_bytes(stored, config_b(),
                                  jpeg::pipeline::thread_codec_context()),
            manual);
}

TEST(TranscodeService, ExecuteMatchesSubmit) {
  ServiceConfig cfg;
  cfg.workers = 2;
  TranscodeService service(cfg);
  const Request req = encode_request(rgb_image(), config_b());
  const Response sync = service.execute(req);
  const Response async = service.submit(req).get();
  ASSERT_EQ(sync.status, Status::kOk);
  ASSERT_EQ(async.status, Status::kOk);
  EXPECT_EQ(sync.bytes, async.bytes);
}

jpeg::EncoderConfig tenant_base(int step) {
  jpeg::EncoderConfig cfg;
  cfg.use_custom_tables = true;
  cfg.luma_table = jpeg::QuantTable::uniform(static_cast<std::uint16_t>(step));
  cfg.chroma_table = jpeg::QuantTable::uniform(static_cast<std::uint16_t>(step + 4));
  cfg.subsampling = jpeg::Subsampling::k444;
  return cfg;
}

Request tenant_request(const image::Image& img, std::string tenant, int quality) {
  Request req;
  req.kind = RequestKind::kDeepnEncode;
  req.image = img;
  req.quality = quality;
  req.tenant = std::move(tenant);
  return req;
}

std::vector<std::uint8_t> tenant_expected(const image::Image& img,
                                          const jpeg::EncoderConfig& base, int quality) {
  jpeg::EncoderConfig cfg = base;
  cfg.luma_table = base.luma_table.scaled(quality);
  cfg.chroma_table = base.chroma_table.scaled(quality);
  return jpeg::encode(img, cfg);
}

TEST(TranscodeService, TenantRequestsEncodeUnderRegisteredTables) {
  auto registry = std::make_shared<TableRegistry>();
  registry->put("alpha", tenant_base(20));
  registry->put("beta", tenant_base(36));

  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.registry = registry;
  TranscodeService service(cfg);

  const image::Image img = gray_corpus(1).samples[0].image;
  const Response a = service.submit(tenant_request(img, "alpha", 40)).get();
  const Response b = service.submit(tenant_request(img, "beta", 40)).get();
  const Response base50 = service.submit(tenant_request(img, "alpha", 50)).get();
  ASSERT_EQ(a.status, Status::kOk) << a.error;
  ASSERT_EQ(b.status, Status::kOk) << b.error;
  ASSERT_EQ(base50.status, Status::kOk) << base50.error;
  EXPECT_EQ(a.bytes, tenant_expected(img, tenant_base(20), 40));
  EXPECT_EQ(b.bytes, tenant_expected(img, tenant_base(36), 40));
  // Quality 50 = the registered tables verbatim.
  EXPECT_EQ(base50.bytes, jpeg::encode(img, tenant_base(20)));
  EXPECT_NE(a.bytes, b.bytes);

  // execute() resolves the same registry — the determinism reference
  // covers tenants too.
  EXPECT_EQ(service.execute(tenant_request(img, "alpha", 40)).bytes, a.bytes);
}

TEST(TranscodeService, UnknownTenantIsATypedSubmissionError) {
  ServiceConfig cfg;
  cfg.workers = 1;
  TranscodeService service(cfg);

  const image::Image img = gray_corpus(1).samples[0].image;
  const Response r = service.submit(tenant_request(img, "nobody", 50)).get();
  EXPECT_EQ(r.status, Status::kError);
  EXPECT_NE(r.error.find("unknown tenant"), std::string::npos) << r.error;
  EXPECT_EQ(service.execute(tenant_request(img, "nobody", 50)).status, Status::kError);

  // The refusal keeps the stats invariants: counted as an error, attributed
  // to its kind.
  ASSERT_EQ(service.submit(encode_request(img, config_a())).get().status, Status::kOk);
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.errors, 1u);
  EXPECT_EQ(st.completed, 1u);
  std::uint64_t kind_sum = 0;
  for (std::uint64_t c : st.per_kind) kind_sum += c;
  EXPECT_EQ(kind_sum, st.completed + st.errors);
}

TEST(TranscodeService, TenantSnapshotIsPinnedAtSubmission) {
  auto registry = std::make_shared<TableRegistry>();
  const std::uint64_t v1 = registry->put("pinned", tenant_base(24));

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.registry = registry;
  TranscodeService service(cfg);

  const image::Image img = gray_corpus(1).samples[0].image;
  std::future<Response> pinned = service.submit(tenant_request(img, "pinned", 60));
  // Re-register AFTER submission: the in-flight request must keep v1's
  // tables whatever the scheduling; only later submissions see v2.
  const std::uint64_t v2 = registry->put("pinned", tenant_base(48));
  EXPECT_GT(v2, v1);
  EXPECT_EQ(pinned.get().bytes, tenant_expected(img, tenant_base(24), 60));
  EXPECT_EQ(service.submit(tenant_request(img, "pinned", 60)).get().bytes,
            tenant_expected(img, tenant_base(48), 60));

  // remove() keeps pinned snapshots working the same way.
  std::future<Response> last = service.submit(tenant_request(img, "pinned", 70));
  ASSERT_TRUE(registry->remove("pinned"));
  EXPECT_FALSE(registry->remove("pinned"));
  EXPECT_EQ(last.get().status, Status::kOk);
  EXPECT_EQ(service.submit(tenant_request(img, "pinned", 70)).get().status,
            Status::kError);
}

TEST(TranscodeService, PerTenantStatsAreAttributed) {
  auto registry = std::make_shared<TableRegistry>();
  registry->put("alpha", tenant_base(20));
  registry->put("beta", tenant_base(36));

  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.registry = registry;
  TranscodeService service(cfg);

  const image::Image img = gray_corpus(1).samples[0].image;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i)
    futures.push_back(service.submit(tenant_request(img, "alpha", 40)));
  for (int i = 0; i < 3; ++i)
    futures.push_back(service.submit(tenant_request(img, "beta", 40)));
  // A tenantless deepn encode must NOT appear in the per-tenant table.
  Request plain;
  plain.kind = RequestKind::kDeepnEncode;
  plain.image = img;
  plain.quality = 40;
  futures.push_back(service.submit(plain));
  for (std::future<Response>& f : futures) ASSERT_EQ(f.get().status, Status::kOk);

  const ServiceStats st = service.stats();
  ASSERT_EQ(st.tenants.size(), 2u);
  EXPECT_EQ(st.tenants[0].name, "alpha");  // sorted by name
  EXPECT_EQ(st.tenants[1].name, "beta");
  EXPECT_EQ(st.tenants[0].requests, 6u);
  EXPECT_EQ(st.tenants[1].requests, 3u);
  EXPECT_EQ(st.tenants[0].completed, 6u);
  EXPECT_EQ(st.tenants[1].completed, 3u);
  EXPECT_EQ(st.tenants[0].errors, 0u);
  EXPECT_EQ(st.tenants[0].service_time.count, 6u);
  EXPECT_EQ(st.tenants[1].service_time.count, 3u);
}

TEST(TranscodeService, ServicesSharingARegistryKeepOneBook) {
  // Two services publishing into one registry share its serve_* series:
  // each series renders once, holding the sum over both services, and
  // either service's stats() reads that same sum.
  auto metrics = std::make_shared<obs::Registry>();
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.metrics = metrics;
  TranscodeService a(cfg);
  TranscodeService b(cfg);

  const image::Image img = gray_corpus(1).samples[0].image;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(a.submit(encode_request(img, config_a())));
  for (int i = 0; i < 2; ++i) futures.push_back(b.submit(encode_request(img, config_a())));
  for (std::future<Response>& f : futures) ASSERT_EQ(f.get().status, Status::kOk);

  std::map<std::string, int> renders;
  for (const auto& [series, value] : scrape_samples(*metrics)) ++renders[series];
  for (const auto& [series, n] : renders) EXPECT_EQ(n, 1) << series << " renders " << n << " times";
  EXPECT_EQ(scrape_values(*metrics).at("serve_requests_completed_total"), 5.0);
  for (const TranscodeService* service : {&a, &b}) {
    const ServiceStats st = service->stats();
    EXPECT_EQ(st.submitted, 5u);
    EXPECT_EQ(st.completed, 5u);
  }
}

TEST(TranscodeService, StatsReadTheScrapedInstruments) {
  // After a mixed run with a tenant, a handler error and an unknown-tenant
  // refusal, stats() and the scrape read the same numbers.
  auto registry = std::make_shared<TableRegistry>();
  registry->put("alpha", tenant_base(20));
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.registry = registry;
  TranscodeService service(cfg);

  const image::Image img = gray_corpus(1).samples[0].image;
  const std::vector<std::uint8_t> stored = jpeg::encode(img, config_a());
  std::vector<Request> requests = {encode_request(img, config_a()),
                                   encode_request(rgb_image(), config_b()),
                                   tenant_request(img, "alpha", 40),
                                   tenant_request(img, "nobody", 40)};
  Request decode;
  decode.kind = RequestKind::kDecode;
  decode.bytes = stored;
  requests.push_back(decode);
  decode.bytes = {0x00, 0x01, 0x02, 0x03};  // not a JPEG: a handler error
  requests.push_back(decode);
  Request transcode;
  transcode.kind = RequestKind::kTranscode;
  transcode.bytes = stored;
  transcode.config = config_b();
  requests.push_back(transcode);
  Request deepn;
  deepn.kind = RequestKind::kDeepnEncode;
  deepn.image = img;
  deepn.quality = 50;
  requests.push_back(deepn);
  std::vector<std::future<Response>> futures;
  for (const Request& r : requests) futures.push_back(service.submit(r));
  for (std::future<Response>& f : futures) f.get();

  const ServiceStats st = service.stats();
  ASSERT_EQ(st.errors, 2u);
  ASSERT_EQ(st.completed, requests.size() - 2);
  const std::map<std::string, double> scraped = scrape_values(*service.metrics_registry());
  const auto expect_scraped = [&scraped](const std::string& series, std::uint64_t want) {
    const auto it = scraped.find(series);
    ASSERT_TRUE(it != scraped.end()) << series << " is not in the scrape";
    EXPECT_EQ(it->second, static_cast<double>(want)) << series;
  };
  expect_scraped("serve_requests_completed_total", st.completed);
  expect_scraped("serve_requests_errors_total", st.errors);
  for (int k = 0; k < kNumRequestKinds; ++k)
    expect_scraped(std::string("serve_requests_by_kind_total{kind=\"") +
                       kind_name(static_cast<RequestKind>(k)) + "\"}",
                   st.per_kind[k]);
  expect_scraped("serve_ctx_huffman_builds_total", st.ctx_huffman_builds);
  expect_scraped("serve_ctx_reciprocal_builds_total", st.ctx_reciprocal_builds);
  expect_scraped("serve_ctx_quality_table_builds_total", st.ctx_quality_table_builds);
  expect_scraped("serve_ctx_decoder_builds_total", st.ctx_decoder_builds);
  expect_scraped("serve_queue_wait_us_count", st.queue_wait.count);
  expect_scraped("serve_service_time_us_count", st.service_time.count);
  expect_scraped("serve_total_us_count", st.total.count);
  ASSERT_EQ(st.tenants.size(), 1u);
  expect_scraped("serve_tenant_requests_total{tenant=\"alpha\"}", st.tenants[0].requests);
  expect_scraped("serve_tenant_service_time_us_count{tenant=\"alpha\"}",
                 st.tenants[0].service_time.count);
}

TEST(TranscodeService, ConcurrentSubmittersGetSynchronousBytes) {
  // Four client threads submit the mixed workload plus tenant encodes at
  // once while a fifth re-registers and removes an unrelated tenant. Every
  // payload must still equal its direct-call expectation. Under
  // ThreadSanitizer this covers the serving layer's cross-thread paths:
  // queue hand-off, pinned tenant snapshots and stats.
  const jpeg::QuantTable deepn_luma = jpeg::QuantTable::annex_k_luma();
  const jpeg::QuantTable deepn_chroma = jpeg::QuantTable::uniform(24);
  nn::LayerPtr model = nn::make_model(nn::ModelKind::kMiniAlexNet, 1, 32, 4, 0xA11CE);
  std::vector<Expected> workload = mixed_workload(model.get(), deepn_luma, deepn_chroma);
  const image::Image img = rgb_image();
  const std::pair<const char*, int> tenants[] = {{"alpha", 20}, {"beta", 36}};
  for (const auto& [name, step] : tenants)
    for (int quality : {40, 75}) {
      Expected e;
      e.request = tenant_request(img, name, quality);
      e.want.bytes = tenant_expected(img, tenant_base(step), quality);
      workload.push_back(std::move(e));
    }

  constexpr std::size_t kSubmitters = 4;
  const std::size_t n = workload.size();
  // Each submitter walks the workload from its own offset, so different
  // kinds and tenants are in flight at the same time.
  const auto index = [n](std::size_t t, std::size_t i) {
    return (i + t * n / kSubmitters) % n;
  };
  for (int workers : {2, 8}) {
    auto registry = std::make_shared<TableRegistry>();
    for (const auto& [name, step] : tenants) registry->put(name, tenant_base(step));
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.queue_capacity = 64;
    cfg.deepn_luma = deepn_luma;
    cfg.deepn_chroma = deepn_chroma;
    cfg.model = model.get();
    cfg.registry = registry;
    TranscodeService service(cfg);

    std::atomic<bool> stop{false};
    std::thread churn([&] {
      for (int i = 0; !stop.load(); ++i) {
        registry->put("gamma", tenant_base(24 + i % 8));
        registry->remove("gamma");
        std::this_thread::yield();
      }
    });
    std::vector<std::vector<Response>> got(kSubmitters);
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kSubmitters; ++t)
      submitters.emplace_back([&, t] {
        std::vector<std::future<Response>> futures;
        for (std::size_t i = 0; i < n; ++i)
          futures.push_back(service.submit(workload[index(t, i)].request));
        for (std::future<Response>& f : futures) got[t].push_back(f.get());
      });
    for (std::thread& s : submitters) s.join();
    stop = true;
    churn.join();

    for (std::size_t t = 0; t < kSubmitters; ++t)
      for (std::size_t i = 0; i < n; ++i)
        expect_payload_equal(got[t][i], workload[index(t, i)].want, index(t, i));
    const ServiceStats st = service.stats();
    EXPECT_EQ(st.completed, kSubmitters * n);
    EXPECT_EQ(st.errors, 0u);
  }
}

}  // namespace
}  // namespace dnj::serve
