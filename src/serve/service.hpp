// TranscodeService — the asynchronous serving layer over the codec pipeline
// and the NN front end.
//
//   clients ──submit()──▶ consistent-hash ring ──▶ sharded MPMC queue ──▶ worker pumps
//               │           shard_of(config digest)   one sub-queue per shard    │
//               │ admission control:                  (pop home shard first,     │ one pump per worker, each
//               │   kBlock  — wait for space           steal fullest foreign     │ on its own thread-local
//               │   kReject — typed kRejected          shard when starving)      │ CodecContext (warm arenas,
//               ▼            response, immediately                              ├─▶ result LRU   (shared; byte + per-tenant quota accounting)
//        future<Response>                                                       ├─▶ table LRU    (per worker: DeepN pair, IJG-scaled per quality)
//                                                                               └─▶ per-worker latency histograms ──merge──▶ ServiceStats
//
// Scheduling: digest-affinity sharding. The submission path hashes the
// request's config digest onto a consistent-hash ring (kShardRingReplicas
// virtual points per shard) that maps it to a home shard; with
// shard_by_digest on there is one shard per worker, so every request
// stream with one configuration lands on one worker whose CodecContext
// caches (Huffman specs, reciprocal multipliers, scaled tables, LUT
// decoders) stay permanently warm for it. After popping a request, a pump
// opportunistically drains immediately-available *compatible* followers
// (same kind, same config digest) from the same shard up to `max_batch` —
// micro-batching; sharding makes those runs longer because a shard's
// sub-queue interleaves fewer distinct configs. A worker whose home shard
// is empty steals the head of the fullest foreign shard (config_.steal),
// trading warmth for utilization; nothing else changes hands.
//
// Multi-tenancy: a versioned TableRegistry (shared or service-private)
// maps tenant names to base table pairs + encoder options. A kDeepnEncode
// request naming a tenant pins that tenant's immutable snapshot at
// submission — concurrent re-registration can never mix table generations
// within a request — and is digested by resolved *content*, so identical
// configurations share shards, batches, and table caches across tenant
// names. The result LRU does not: its keyed input digest folds in the
// tenant name, so one tenant's entry never answers another's request. It
// enforces per-tenant byte quotas so one tenant cannot evict everyone
// else (see LruCache).
//
// Determinism contract (extends the codec/runtime contracts to serving):
// every response payload is bit-identical to the equivalent synchronous
// single-threaded call — execute() — regardless of worker count, sharding
// mode, stealing, batching decisions, cache hits, or arrival order. This
// holds because every handler is a pure function of the request plus the
// configuration snapshot it pinned: contexts only carry scratch state, the
// caches store deterministic functions of their keys, and the model is
// locked during each forward. Sharding and stealing are pure scheduling —
// they choose *where* a request runs, never what it computes.
// tests/test_serve.cpp pins the contract across worker counts {1, 2, 8},
// sharding on/off, stealing on/off, batching on/off, and cache warm/cold.
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
#include <utility>
#include <vector>

#include "jpeg/quant.hpp"
#include "nn/layer.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/digest.hpp"
#include "serve/lru_cache.hpp"
#include "serve/registry.hpp"
#include "serve/request.hpp"
#include "serve/service_stats.hpp"
#include "serve/shard_queue.hpp"

namespace dnj::serve {

enum class AdmissionPolicy : int {
  kBlock = 0,  ///< submit() waits for queue space (backpressure by blocking)
  kReject,     ///< submit() returns a typed kRejected response when full
};

struct ServiceConfig {
  /// Fixed worker count (clamped to >= 1). Each worker owns one
  /// thread-local jpeg::pipeline::CodecContext for its whole lifetime.
  int workers = 2;

  /// Bounded submission-queue capacity (clamped to >= 1), split evenly
  /// across shards (rounded up). The queue never holds more requests than
  /// ServiceStats::queue_capacity — admission control handles overflow.
  std::size_t queue_capacity = 256;

  AdmissionPolicy admission = AdmissionPolicy::kBlock;

  /// Largest micro-batch a worker may drain per pop; 1 disables batching.
  int max_batch = 8;

  /// Digest-affinity sharding: one sub-queue per worker, requests routed
  /// by config digest so per-worker caches stay warm per configuration.
  /// Off = one shard (classic any-worker-pops-anything scheduling).
  /// Scheduling only — responses are bit-identical either way.
  bool shard_by_digest = true;

  /// Work stealing: a worker whose home shard is empty takes the head of
  /// the fullest foreign shard instead of idling. Only meaningful with
  /// shard_by_digest; trades cache warmth for utilization under skew.
  bool steal = true;

  /// Result-cache entries — encoded byte payloads keyed on (keyed 128-bit
  /// input digest, config digest); see serve/digest.hpp. 0 disables the
  /// cache.
  std::size_t cache_capacity = 256;

  /// Result-cache byte ceiling across all entries (0 = entry count only).
  std::size_t cache_max_bytes = 0;

  /// Per-tenant result-cache byte quota (0 = none). Over-quota tenants
  /// evict their own least-recently-used entries, never other tenants'.
  /// A tenant whose TenantEntry carries a nonzero quota_bytes... shares
  /// this single cache-wide per-tenant cap (the registry quota is
  /// bookkeeping for operators; enforcement is uniform by design so the
  /// cache needs no registry lookups on the hot path).
  std::size_t tenant_quota_bytes = 0;

  /// Scaled-table cache entries for kDeepnEncode, per worker (one entry
  /// per distinct (table pair, quality)). 0 disables it (tables are then
  /// re-scaled per request).
  std::size_t table_cache_capacity = 16;

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
  /// thread — no queue, no batching, no caches (tenant names still resolve
  /// against the registry, pinned at this call). The determinism contract
  /// says submit()'s payloads equal execute()'s, bit for bit.
  Response execute(const Request& req);

  /// Graceful shutdown: refuse new work, drain accepted work, join
  /// workers. Idempotent and safe to race with submit().
  void shutdown();

  /// Point-in-time counters + merged latency quantiles. Callable at any
  /// time, including after shutdown. Ordering contract: once a request's
  /// future has been fulfilled, that request is reflected in the lifecycle
  /// counters, per-kind counts, batch counters, and latency histograms.
  /// Only the context-warmth deltas settle at batch granularity (final
  /// once shutdown() returned).
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
  /// What run() observed that the Response does not carry (table-LRU
  /// traffic, attributed per request/tenant by process_batch).
  struct RunInfo {
    bool table_lookup = false;
    bool table_hit = false;
  };
  void pump(int worker_id);
  void process_batch(std::vector<Job>& batch, WorkerStats& ws, int worker_id);
  Response run(const Request& req, const TenantEntry* tenant, int worker_id,
               RunInfo* info);
  jpeg::EncoderConfig deepn_config(int quality, const TenantEntry* tenant,
                                   int worker_id, RunInfo* info);
  std::size_t shard_of(std::uint64_t config_digest) const;
  void collect_metrics(std::vector<obs::Sample>& out) const;
  void submit_job(Job job);
  static void fulfill(Job&& job, Response&& resp);
  void refuse(Job&& job, Status status, std::string why);

  ServiceConfig config_;
  /// This service's SipHash key for result-cache input digests, drawn at
  /// construction and never exposed (serve/digest.hpp).
  const SipKey digest_key_ = random_sip_key();
  std::uint64_t deepn_tables_digest_ = 0;
  std::size_t shards_ = 1;
  /// Consistent-hash ring: (point, shard), sorted by point. Virtual nodes
  /// smooth the digest -> shard split; consistent hashing keeps most
  /// digests' homes stable if the shard count ever changes generation to
  /// generation (services today fix it at construction, but cache-warmth
  /// math should not depend on that).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;

  std::unique_ptr<ShardedQueue<Job>> queue_;
  std::vector<std::unique_ptr<WorkerStats>> worker_stats_;
  std::unique_ptr<runtime::ThreadPool> workers_;  ///< null once shut down
  std::mutex shutdown_mutex_;

  LruCache<CacheKey, std::vector<std::uint8_t>, CacheKeyHash> result_cache_;
  struct TablePair {
    jpeg::QuantTable luma, chroma;
  };
  /// One scaled-table LRU per worker (indexed by worker id): with digest
  /// affinity each worker only ever hosts its shard's configurations, so
  /// a small per-worker cache outperforms one shared cache under
  /// multi-tenant load — and sheds the cross-worker lock traffic.
  std::vector<std::unique_ptr<LruCache<CacheKey, TablePair, CacheKeyHash>>> table_caches_;

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
