// TranscodeService — the asynchronous serving layer over the codec pipeline
// and the NN front end.
//
//   clients ──submit()──▶ bounded FIFO queue ──▶ worker pumps
//               │          (runtime::MpmcQueue)    │ one pump per worker, each calling
//               │ admission control:               │ the codec on its own thread-local
//               │                                  │ CodecContext
//               │   kBlock  — wait for space       │ (warm arenas, cached tables)
//               │   kReject — typed kRejected      └─▶ obs::Registry instruments ◀── stats(), scrapes
//               ▼            response, immediately      (counters, latency histograms)
//        future<Response>
//
// Scheduling: one FIFO queue of `queue_capacity` requests that every
// worker pops from, one request per pop, so a request runs on whichever
// worker frees up first. Each worker's CodecContext stays warm for a
// same-configuration stream on its own, and kDeepnEncode scales its two
// tables per request (well under a microsecond beside a codec call), so
// no scheduling policy has to protect either. Every accepted request runs
// its handler exactly once: there is no result cache.
//
// Multi-tenancy: a versioned TableRegistry (shared or service-private)
// maps tenant names to base table pairs + encoder options. A kDeepnEncode
// request naming a tenant pins that tenant's immutable snapshot at
// submission — concurrent re-registration can never mix table generations
// within a request. Each named tenant gets its own counters and
// service-time histogram, registry instruments created on its first
// request.
//
// Determinism contract (extends the codec/runtime contracts to serving):
// every response payload is bit-identical to the equivalent synchronous
// single-threaded call — execute() — regardless of worker count or
// arrival order. This holds because every handler is a pure function of
// the request plus the configuration snapshot it pinned: contexts only
// carry scratch state, and the model is locked during each forward.
// tests/test_serve.cpp pins the contract across worker counts {1, 2, 8},
// cold and warm contexts, and concurrent submitters. Handlers call
// jpeg::encode / jpeg::decode / core::transcode_bytes directly, the same
// functions the public api::Codec wraps, so served payloads equal the
// public API's byte for byte; this layer includes nothing from src/api,
// src/net or src/jobs.
//
// Shutdown: shutdown() closes the queue (new submissions get a typed
// kShutdown response; blocked submitters wake with the same), lets the
// pumps drain every request already accepted, then joins the workers.
// Idempotent; the destructor calls it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "jpeg/quant.hpp"
#include "nn/layer.hpp"
#include "obs/metrics.hpp"
#include "runtime/mpmc_queue.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/registry.hpp"
#include "serve/request.hpp"
#include "serve/service_stats.hpp"

namespace dnj::serve {

enum class AdmissionPolicy : int {
  kBlock = 0,  ///< submit() waits for queue space (backpressure by blocking)
  kReject,     ///< submit() returns a typed kRejected response when full
};

struct ServiceConfig {
  /// Fixed worker count (clamped to >= 1). Each worker owns one
  /// thread-local jpeg::pipeline::CodecContext for its whole lifetime.
  int workers = 2;

  /// Bounded submission-queue capacity (clamped to >= 1), shared by every
  /// request whatever its configuration. The queue never holds more
  /// requests than this — admission control handles overflow.
  std::size_t queue_capacity = 256;

  AdmissionPolicy admission = AdmissionPolicy::kBlock;

  /// Retired with the result cache: both fields are ignored, and stay only
  /// so existing configurations still compile.
  std::size_t cache_capacity = 256;
  std::size_t cache_max_bytes = 0;

  /// The deployment's DeepN-JPEG table pair, the base that tenantless
  /// kDeepnEncode requests IJG-scale by their `quality`. Defaults to
  /// identity tables; real deployments install core::DeepNJpeg::design()
  /// output. Requests naming a registry tenant use that tenant's pair
  /// instead.
  jpeg::QuantTable deepn_luma;
  jpeg::QuantTable deepn_chroma;

  /// Tenant registry backing kDeepnEncode requests that name a tenant.
  /// Null = the service creates a private one (reachable via registry()).
  /// Share one registry across services to serve one coherent tenant set.
  std::shared_ptr<TableRegistry> registry;

  /// Model for kInfer requests (not owned; must outlive the service).
  /// Layer::forward is stateful, so the service serializes inference
  /// through an internal mutex. Null = kInfer requests fail with kError.
  nn::Layer* model = nullptr;

  /// Metrics registry this service publishes into. Null = the service
  /// creates a private one (reachable via metrics_registry()). Share one
  /// registry across services/servers to scrape one unified plane. Every
  /// tally of the service lives *in* the registry as an instrument, and
  /// stats() reads the same instruments back, so metrics_text() and
  /// ServiceStats can never disagree. Services sharing a registry share
  /// their serve_* series (stats() of either reads the sums), and the
  /// series outlive the service.
  std::shared_ptr<obs::Registry> metrics;
};

class TranscodeService {
 public:
  explicit TranscodeService(ServiceConfig config);
  ~TranscodeService();  ///< calls shutdown()

  TranscodeService(const TranscodeService&) = delete;
  TranscodeService& operator=(const TranscodeService&) = delete;

  /// Submits a request. The returned future is always eventually fulfilled:
  /// with the result, a typed kRejected/kShutdown refusal, or a kError
  /// response when the handler threw (or the request named an unknown
  /// tenant). Never throws on queue pressure.
  std::future<Response> submit(Request req);

  /// Completion callback alternative to the future form — what an event
  /// loop wants (src/net's server): no thread ever blocks on a get().
  /// Exactly-once semantics match the future form: `done` is always
  /// invoked — with the result, a typed refusal, or kError. It runs on
  /// whichever thread completes the request: a worker pump for accepted
  /// work, the *submitting* thread for immediate refusals (rejection,
  /// shutdown) — so it must be safe to call from both and must not block
  /// or throw (a throw is swallowed to protect the pump; the response is
  /// then lost).
  using Callback = std::function<void(Response)>;
  void submit(Request req, Callback done);

  /// The synchronous reference path: runs `req` immediately on the calling
  /// thread — no queue (tenant names still resolve against the registry,
  /// pinned at this call). The determinism contract
  /// says submit()'s payloads equal execute()'s, bit for bit.
  Response execute(const Request& req);

  /// Graceful shutdown: refuse new work, drain accepted work, join
  /// workers. Idempotent and safe to race with submit().
  void shutdown();

  /// Point-in-time read of the service's registry instruments: counters and
  /// latency quantiles. Callable at any time, including after shutdown.
  /// Ordering contract: once a request's future has been fulfilled, that
  /// request is reflected in every counter, context-warmth delta and latency
  /// histogram. Each instrument is read on its own, so a snapshot taken
  /// while requests complete may count a request in some and not yet in
  /// others.
  ServiceStats stats() const;

  const ServiceConfig& config() const { return config_; }

  /// The registry kDeepnEncode tenant names resolve against — the one from
  /// ServiceConfig, or the service-private one when none was given.
  const std::shared_ptr<TableRegistry>& registry() const { return config_.registry; }

  /// The metrics registry this service publishes into — the one from
  /// ServiceConfig, or the service-private one when none was given.
  const std::shared_ptr<obs::Registry>& metrics_registry() const {
    return config_.metrics;
  }

 private:
  struct Job;
  /// Context-rebuild counters: Huffman, reciprocal, quality-table and
  /// decoder builds, service-wide or of one tenant.
  using RebuildCounters = std::array<obs::Counter*, 4>;
  /// One named tenant's instruments, created on its first request.
  struct TenantInstruments {
    obs::Counter* requests = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* errors = nullptr;
    RebuildCounters rebuilds{};
    obs::HistogramHandle* service_time = nullptr;
  };

  void pump();
  void process(Job job);
  Response run(const Request& req, const TenantEntry* tenant);
  jpeg::EncoderConfig deepn_config(int quality, const TenantEntry* tenant) const;
  void submit_job(Job job);
  static void fulfill(Job&& job, Response&& resp);
  void refuse(Job&& job, Status status, std::string why);
  const TenantInstruments& tenant_instruments(const std::string& name);

  ServiceConfig config_;

  std::unique_ptr<runtime::MpmcQueue<Job>> queue_;
  std::unique_ptr<runtime::ThreadPool> workers_;  ///< null once shut down
  std::mutex shutdown_mutex_;
  std::mutex model_mutex_;

  // Every tally is an obs::Registry instrument — the registry is the single
  // source of truth; stats() reads the same instruments the exporters
  // render. Stable addresses for the registry's lifetime, cached here so
  // the hot path pays no registry lookup.
  obs::Counter* submitted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* refused_shutdown_ = nullptr;
  obs::Counter* submit_errors_ = nullptr;  ///< unknown-tenant refusals
  obs::Counter* completed_ = nullptr;
  obs::Counter* errors_ = nullptr;  ///< handler errors and unknown-tenant refusals
  obs::Counter* per_kind_[kNumRequestKinds] = {};
  RebuildCounters rebuilds_{};
  obs::HistogramHandle* queue_wait_ = nullptr;
  obs::HistogramHandle* service_time_ = nullptr;
  obs::HistogramHandle* total_ = nullptr;
  obs::Gauge* queue_capacity_ = nullptr;
  obs::Gauge* queue_high_water_ = nullptr;
  mutable std::mutex tenants_mutex_;
  std::map<std::string, TenantInstruments> tenants_;  ///< sorted, as stats() lists them
};

}  // namespace dnj::serve
