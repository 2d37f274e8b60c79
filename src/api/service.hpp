// Async façade: the public view over the serving layer (serve::
// TranscodeService) with the API's Status taxonomy and zero-copy-in,
// owned-out types.
//
//   Service service(ServiceOptions().workers(4));
//   Pending p = service.encode(view, EncodeOptions().quality(85));
//   ServiceReply r = p.get();            // blocks; never throws
//   if (r.status.ok()) use(r.bytes);
//
// Inputs are copied into the owned request at submission (the request
// outlives the caller's buffers inside the queue); replies carry owned
// payloads. Payloads are bit-identical to the synchronous Codec calls —
// the serving determinism contract, re-pinned through this façade by
// tests/test_api.cpp. Submission after shutdown() yields kShutdown;
// a full queue under the reject policy yields kRejected.
//
// Standard-library-only header (pimpl over the serve layer).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <optional>

#include "api/registry.hpp"
#include "api/status.hpp"
#include "api/types.hpp"

namespace dnj::api {

/// Builder-style service configuration (a curated subset of the serve
/// layer's ServiceConfig; the taxonomy of knobs is documented there).
class ServiceOptions {
 public:
  ServiceOptions& workers(int n) {
    workers_ = n;
    return *this;
  }
  ServiceOptions& queue_capacity(std::size_t n) {
    queue_capacity_ = n;
    return *this;
  }
  /// true: a full queue rejects (typed kRejected) instead of blocking.
  ServiceOptions& reject_when_full(bool on) {
    reject_when_full_ = on;
    return *this;
  }
  /// Retired result-cache knobs, kept so existing callers still compile.
  /// Each is a no-op: every accepted request runs its handler once.
  ServiceOptions& result_cache(std::size_t) { return *this; }
  ServiceOptions& cache_max_bytes(std::size_t) { return *this; }
  ServiceOptions& tenant_quota_bytes(std::size_t) { return *this; }
  /// Retired scheduling knobs, kept so existing callers still compile.
  /// Each is a no-op: the service serves one FIFO queue, one request per
  /// pop, and scales deepn_encode tables per request (docs/ARCHITECTURE.md,
  /// "Scheduling").
  ServiceOptions& max_batch(int) { return *this; }
  ServiceOptions& table_cache(std::size_t) { return *this; }
  ServiceOptions& shard_by_digest(bool) { return *this; }
  ServiceOptions& steal(bool) { return *this; }
  /// The tenant registry deepn_encode resolves names against. Omitted =
  /// the service creates a private one (reachable via Service::registry());
  /// pass one Registry to several services to share a tenant set.
  ServiceOptions& registry(Registry r) {
    registry_ = std::move(r);
    return *this;
  }
  /// Design-job workers: threads dedicated to the long-running design jobs
  /// behind the wire's v3 job ops, so a 400-iteration anneal never starves
  /// transcode latency. 0 disables the job subsystem (job ops answer with
  /// a typed kInternal error).
  ServiceOptions& design_workers(int n) {
    design_workers_ = n;
    return *this;
  }
  /// Max queued + running design jobs; beyond it submissions are refused
  /// with a typed kRejected.
  ServiceOptions& design_queue(std::size_t n) {
    design_queue_ = n;
    return *this;
  }
  /// SA iterations between automatic design-job checkpoints.
  ServiceOptions& design_checkpoint_interval(int n) {
    design_checkpoint_interval_ = n;
    return *this;
  }

  int workers() const { return workers_; }
  std::size_t queue_capacity() const { return queue_capacity_; }
  bool reject_when_full() const { return reject_when_full_; }
  const std::optional<Registry>& registry() const { return registry_; }
  int design_workers() const { return design_workers_; }
  std::size_t design_queue() const { return design_queue_; }
  int design_checkpoint_interval() const { return design_checkpoint_interval_; }

 private:
  int workers_ = 2;
  std::size_t queue_capacity_ = 256;
  bool reject_when_full_ = false;
  std::optional<Registry> registry_;
  int design_workers_ = 1;
  std::size_t design_queue_ = 8;
  int design_checkpoint_interval_ = 64;
};

/// Builder-style configuration for the TCP front end (src/net). Tuning
/// guidance lives in docs/OPERATIONS.md; the wire format in
/// docs/PROTOCOL.md.
class ListenOptions {
 public:
  ListenOptions& host(std::string h) {
    host_ = std::move(h);
    return *this;
  }
  /// 0 = ephemeral; read the bound port from Service::listen_port().
  ListenOptions& port(std::uint16_t p) {
    port_ = p;
    return *this;
  }
  /// Accepted-connection cap; surplus connections are refused with a typed
  /// kRejected frame.
  ListenOptions& max_connections(int n) {
    max_connections_ = n;
    return *this;
  }
  /// Idle connections are closed after this long (0 disables).
  ListenOptions& idle_timeout_ms(int ms) {
    idle_timeout_ms_ = ms;
    return *this;
  }

  const std::string& host() const { return host_; }
  std::uint16_t port() const { return port_; }
  int max_connections() const { return max_connections_; }
  int idle_timeout_ms() const { return idle_timeout_ms_; }

 private:
  std::string host_ = "127.0.0.1";
  std::uint16_t port_ = 0;
  int max_connections_ = 64;
  int idle_timeout_ms_ = 30000;
};

/// One fulfilled service reply. Exactly one payload field is populated on
/// success, matching the operation submitted. The observability fields
/// describe scheduling, never the payload (which is deterministic).
struct ServiceReply {
  Status status;
  std::vector<std::uint8_t> bytes;  ///< encode / transcode result
  DecodedImage image;               ///< decode result
  bool cache_hit = false;   ///< always false: the result cache is retired
  int batch_size = 0;       ///< always 1: workers run one request per pop
  double queue_us = 0.0;    ///< submission -> worker pickup
  double service_us = 0.0;  ///< worker pickup -> completion
};

/// Handle on one in-flight submission. get() blocks until the reply is
/// ready and may be called once; it never throws. Move-only.
class Pending {
 public:
  Pending();
  ~Pending();
  Pending(Pending&&) noexcept;
  Pending& operator=(Pending&&) noexcept;
  Pending(const Pending&) = delete;
  Pending& operator=(const Pending&) = delete;

  /// True until get() consumes the reply.
  bool valid() const;

  /// Waits for and returns the reply (kInternal reply if !valid()).
  ServiceReply get();

 private:
  friend class Service;
  struct State;
  explicit Pending(std::unique_ptr<State> state);
  std::unique_ptr<State> state_;
};

/// Per-tenant slice of the service counters (named registry tenants only).
struct TenantMetrics {
  std::string name;
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t cache_hits = 0;  ///< always 0: the result cache is retired
  double service_p50_us = 0.0;
  double service_p99_us = 0.0;
};

/// Point-in-time service counters + merged latency quantiles (µs).
struct ServiceMetrics {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  // Always 0: the result cache is retired.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t cache_quota_evictions = 0;
  double total_p50_us = 0.0;
  double total_p95_us = 0.0;
  double total_p99_us = 0.0;
  std::vector<TenantMetrics> tenants;  ///< sorted by name
};

class Service {
 public:
  explicit Service(const ServiceOptions& options = {});
  ~Service();  ///< shuts down: drains accepted work, joins workers
  Service(Service&&) noexcept;
  Service& operator=(Service&&) noexcept;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Submit asynchronous work. Invalid inputs come back as an
  /// already-fulfilled kInvalidArgument reply — submission never throws.
  Pending encode(ImageView image, const EncodeOptions& options = {});
  Pending decode(ByteSpan stream);
  Pending transcode(ByteSpan stream, const EncodeOptions& options = {});

  /// Encodes under tenant `tenant`'s registered table pair, IJG-scaled to
  /// `quality` (50 = the tenant's base tables verbatim). The payload is
  /// bit-identical to a synchronous Codec::encode under
  /// Registry::encode_options_for(tenant, quality). A name the registry
  /// does not know yields a kInternal reply (resolution happens at
  /// submission, pinning that tenant generation for the request).
  Pending deepn_encode(ImageView image, const std::string& tenant, int quality);

  /// The registry deepn_encode resolves tenant names against — the one
  /// from ServiceOptions, or the service-private one. The returned handle
  /// shares the underlying registry: put()/remove() through it are live
  /// immediately for subsequent submissions.
  Registry registry() const;

  ServiceMetrics metrics() const;

  /// The unified metrics plane rendered as Prometheus text exposition —
  /// every counter ServiceMetrics exposes (and the net front end's, when
  /// listening), one scrape. The same document a kStats wire request
  /// returns (docs/PROTOCOL.md).
  std::string metrics_text() const;

  /// The span-tracer ring contents as a JSON document
  /// (tools/trace2chrome.py converts it for chrome://tracing). Tracing is
  /// off unless DNJ_TRACE_SAMPLE is set; see docs/OPERATIONS.md.
  std::string dump_trace() const;

  /// Starts the TCP front end (src/net, wire format in docs/PROTOCOL.md)
  /// over this service. Network responses are byte-identical to the
  /// in-process calls above — the determinism contract crosses the wire.
  /// One listener per Service; a second listen() without stop_listening()
  /// fails. Returns success or a kInternal status describing the bind
  /// failure.
  Status listen(const ListenOptions& options = {});

  /// The bound TCP port (the ephemeral answer) while listening, else -1.
  int listen_port() const;

  /// Drains and closes the listener: stop accepting, let in-flight
  /// requests complete and flush, close connections. Idempotent; implied
  /// by shutdown() and destruction.
  void stop_listening();

  /// Graceful shutdown: stop the listener first (if any), then refuse new
  /// work (kShutdown), drain accepted work, join workers. Idempotent; the
  /// destructor calls it.
  void shutdown();

 private:
  static Pending immediate(Status status);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dnj::api
