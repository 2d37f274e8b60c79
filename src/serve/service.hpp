// TranscodeService — the asynchronous serving layer over the codec pipeline
// and the NN front end.
//
//   clients ──submit()──▶ bounded FIFO queue ──▶ worker pumps
//               │          (runtime::MpmcQueue)    │ one pump per worker, each calling
//               │ admission control:               │ the codec on its own thread-local
//               │                                  │ CodecContext
//               │   kBlock  — wait for space       │ (warm arenas, cached tables)
//               │   kReject — typed kRejected      └─▶ per-worker latency histograms ──merge──▶ ServiceStats
//               ▼            response, immediately
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
// within a request. Per-tenant counters and service-time histograms are
// kept for every named tenant.
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

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

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
  /// registry across services/servers to scrape one unified plane. The
  /// submission counters live *in* the registry (stats() reads them back),
  /// and a collector snapshot of everything else is registered here — so
  /// metrics_text() and ServiceStats can never disagree.
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

  /// Point-in-time counters + merged latency quantiles. Callable at any
  /// time, including after shutdown. Ordering contract: once a request's
  /// future has been fulfilled, that request is reflected in every counter,
  /// context-warmth delta and latency histogram.
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
  struct WorkerStats;
  void pump(WorkerStats& ws);
  void process(Job job, WorkerStats& ws);
  Response run(const Request& req, const TenantEntry* tenant);
  jpeg::EncoderConfig deepn_config(int quality, const TenantEntry* tenant) const;
  void collect_metrics(std::vector<obs::Sample>& out) const;
  void submit_job(Job job);
  static void fulfill(Job&& job, Response&& resp);
  void refuse(Job&& job, Status status, std::string why);

  ServiceConfig config_;

  std::unique_ptr<runtime::MpmcQueue<Job>> queue_;
  std::vector<std::unique_ptr<WorkerStats>> worker_stats_;
  std::unique_ptr<runtime::ThreadPool> workers_;  ///< null once shut down
  std::mutex shutdown_mutex_;
  std::mutex model_mutex_;

  // Submission-side counters (completion-side ones live in WorkerStats).
  // They are obs::Registry instruments — the registry is the single source
  // of truth; stats() reads the same counters the exporters render.
  // Stable addresses for the registry's lifetime, cached here so the hot
  // path is one relaxed fetch_add with no registry lookups.
  obs::Counter* submitted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* refused_shutdown_ = nullptr;
  obs::Counter* submit_errors_ = nullptr;  ///< unknown-tenant refusals
  std::uint64_t metrics_collector_ = 0;    ///< removed before members die
};

}  // namespace dnj::serve
